import math
from types import SimpleNamespace

import numpy as np
import pytest

from ugks1d.coeffs import (X_SWITCH, _C_G, _C_G2, _C_P, _C_R, _C_W2,
                           _relative_exponentials, blend_parameter, coefficient_arrays)
from ugks1d.errors import InvalidArgumentError, InvalidDataError
from ugks1d.grid import SpatialMesh, build_gauss_legendre, sample_material
from ugks1d.ugks import BoundarySpec, SchemeConfig, StepPlan


def interface_coefficients(dt: float, eps: float, sigma: float, alpha: float) -> SimpleNamespace:
    """The coefficients of one interface as floats: a, b, c, d, e and nu."""
    values = coefficient_arrays(dt, eps, sigma, alpha)
    return SimpleNamespace(**{name: float(v) for name, v in zip(("a", "b", "c", "d", "e", "nu"), values)})


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One Maclaurin series by Horner's rule; the per-function reference form."""
    y = np.full_like(x, c[-1])
    for ck in c[-2::-1]:
        y = y * x + ck
    return y


def _relative_exponentials_reference(x: np.ndarray):
    """(p, g, g2, r, w2) with each series and each expm1 form evaluated on
    every entry, then selected per entry."""
    small = x < X_SWITCH
    xs = np.where(small, 1.0, x)
    em = np.expm1(-xs)
    return (np.where(small, _horner(_C_P, x), -em / xs),
            np.where(small, _horner(_C_G, x), (xs + em) / xs),
            np.where(small, _horner(_C_G2, x), (xs + em) / xs**2),
            np.where(small, _horner(_C_R, x), (2.0 * (xs + em) + xs * em) / xs**2),
            np.where(small, _horner(_C_W2, x), (xs + em + xs * em) / xs**2))


def test_unit_inputs_match_closed_forms():
    c = interface_coefficients(dt=1.0, eps=1.0, sigma=1.0, alpha=0.0)
    assert c.nu == pytest.approx(1.0)
    assert c.a == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert c.e == pytest.approx(math.exp(-1.0), abs=1e-15)
    # direct substitution for C and D at nu*dt = 1
    assert c.c == pytest.approx(1.0 - (1.0 - math.exp(-1.0)), abs=1e-15)
    d_direct = -(1.0 * (1.0 + math.exp(-1.0)) - 2.0 * (1.0 - math.exp(-1.0)))
    assert c.d == pytest.approx(d_direct, rel=1e-13)


def test_vanishing_collisions_exact_limits():
    c = interface_coefficients(dt=0.7, eps=2.0, sigma=0.0, alpha=0.0)
    assert c.a == 1.0 / 2.0
    assert c.c == 0.0
    assert c.d == 0.0
    assert c.e == pytest.approx(0.7 / (2.0 * 2.0), abs=1e-16)
    assert c.b == pytest.approx(-0.7 / (2.0 * 4.0), abs=1e-16)


def test_free_transport_asymptotics_monotone():
    # sigma = alpha -> 0 at fixed dt, eps: A -> 1/eps with |A - 1/eps| <= nu dt,
    # C and D decay monotonically to 0.
    dt, eps = 1e-2, 1.0
    prev = None
    for k in range(2, 13):
        s = 10.0**-k
        c = interface_coefficients(dt, eps, s, s)
        gap = abs(c.a - 1.0 / eps)
        assert gap <= c.nu * dt
        if prev is not None:
            assert gap <= prev[0] * (1 + 1e-12)
            assert abs(c.c) <= prev[1] * (1 + 1e-12)
            assert abs(c.d) <= prev[2] * (1 + 1e-12)
        prev = (gap, abs(c.c), abs(c.d))
    assert prev[0] < 2e-14 and prev[1] < 1e-14 and prev[2] < 1e-16


def test_diffusive_asymptotics():
    # eps -> 0 at fixed dt, sigma: A -> 0 and D -> -1/sigma
    dt, sigma = 1e-2, 1.0
    gaps_a, gaps_d = [], []
    for k in range(1, 11):
        eps = 10.0**-k
        c = interface_coefficients(dt, eps, sigma, 0.0)
        gaps_a.append(abs(c.a))
        gaps_d.append(abs(c.d + 1.0 / sigma))
    assert all(x >= y - 1e-18 for x, y in zip(gaps_a, gaps_a[1:]))
    assert all(x >= y - 1e-18 for x, y in zip(gaps_d, gaps_d[1:]))
    # at eps = 1e-6 and below, D is within 1e-8 of its limit
    assert all(g <= 1e-8 for g in gaps_d[5:])
    # A decays linearly in eps: eps/dt each decade
    assert gaps_a[-1] <= 1.01e-8


def test_macro_flux_diffusion_coefficient():
    # The macroscopic flux's slope term D <v^2>_h (rho_{i+1} - rho_i)/dx tends
    # to the diffusion flux -(1/(3 sigma)) (rho_{i+1} - rho_i)/dx as eps -> 0.
    q = build_gauss_legendre(16)
    sigma = np.array([1.0, 0.1, 10.0])
    d = coefficient_arrays(2e-3, 1e-8, sigma, np.zeros(3))[3]
    assert np.allclose(d * q.m_v2, -1.0 / (3.0 * sigma), rtol=1e-6, atol=0.0)


def test_sign_invariants_random_sweep():
    rng = np.random.default_rng(7)
    n = 100_000
    dt = 10.0 ** rng.uniform(-6, 1, n)
    eps = 10.0 ** rng.uniform(-9, 1, n)
    sigma = np.where(rng.random(n) < 0.05, 0.0, 10.0 ** rng.uniform(-8, 3, n))
    alpha = np.where(rng.random(n) < 0.5, 0.0, 10.0 ** rng.uniform(-8, 2, n))
    a, b, c, d, e, nu = coefficient_arrays(dt, eps, sigma, alpha)
    assert np.all(a >= 0) and np.all(c >= 0) and np.all(e >= 0)
    assert np.all(d <= 0) and np.all(b <= 0)
    assert np.allclose(nu, sigma / eps**2 + alpha, rtol=1e-14)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(d))


def test_branch_switch_continuity():
    # series and expm1 formulas agree to 1e-10 relative at the switch point
    x = np.array([X_SWITCH])
    em = np.expm1(-x)
    direct = {
        "p": -em / x,
        "g": (x + em) / x,
        "g2": (x + em) / x**2,
        "r": (2.0 * (x + em) + x * em) / x**2,
        "w2": (x + em + x * em) / x**2,
    }
    series = {
        "p": _horner(_C_P, x),
        "g": _horner(_C_G, x),
        "g2": _horner(_C_G2, x),
        "r": _horner(_C_R, x),
        "w2": _horner(_C_W2, x),
    }
    for name in direct:
        rel = abs(direct[name][0] - series[name][0]) / abs(direct[name][0])
        assert rel < 1e-10, name


@pytest.mark.parametrize("x", [
    np.array([0.0]),
    np.array([X_SWITCH]),
    np.array([1e3]),
    np.linspace(0.0, 0.099, 26),
    np.geomspace(X_SWITCH, 1e12, 201),
    np.array([0.0, 1e-300, 1e-8, np.nextafter(X_SWITCH, 0.0), X_SWITCH, 0.3, 7.0, 1e16]),
    np.random.default_rng(5).permutation(np.concatenate((np.geomspace(1e-12, 1e6, 120), [0.0]))),
])
def test_stacked_series_bit_identical_to_reference(x):
    for got, ref in zip(_relative_exponentials(x), _relative_exponentials_reference(x)):
        assert got.shape == x.shape
        assert np.array_equal(got, ref)
    scalar = _relative_exponentials(np.float64(x[-1]))
    for got, ref in zip(scalar, _relative_exponentials_reference(x[-1:])):
        assert got.shape == () and got == ref[0]


def coefficients_reference(dt: float, eps: float, sigma, alpha) -> np.ndarray:
    """(a, b, c, d, e, nu) as rows, one entry at a time: Python float
    arithmetic in the order of the module docstring's formulas, np.expm1 of
    a one-entry array, and each relative exponential by its own series or
    expm1 form."""
    out = np.empty((6, len(sigma)))
    for i, (s, al) in enumerate(zip(map(float, sigma), map(float, alpha))):
        nu = s / eps**2 + al
        x = nu * dt
        if x < X_SWITCH:
            p, g, g2, r, w2 = (float(_horner(c, np.array([x]))[0])
                               for c in (_C_P, _C_G, _C_G2, _C_R, _C_W2))
        else:
            em = float(np.expm1(np.array([-x]))[0])
            x2 = x * x
            p, g, g2 = -em / x, (x + em) / x, (x + em) / x2
            r, w2 = (2.0 * (x + em) + x * em) / x2, (x + em + x * em) / x2
        scale = s + eps**2 * al
        safe = scale if scale > 0 else 1.0
        ratio = s / safe if s > 0 else 0.0
        d = -s * x * r / (safe * safe) if s > 0 else 0.0
        out[:, i] = p / eps, dt * w2 / eps**2, ratio * g / eps, d, dt * g2 / eps, nu
    return out


_MIXED_SIGMA = np.concatenate(([0.0, 0.0, 1e-300], np.geomspace(1e-6, 1e3, 40), [0.0]))
_MIXED_ALPHA = np.where(np.arange(_MIXED_SIGMA.size) % 3 == 0, 0.0, 0.5)


@pytest.mark.parametrize("dt, eps, sigma, alpha", [
    # sigma = 0, alpha > 0 and x = 0 entries, x mixed across X_SWITCH
    (0.0225, 1.0, _MIXED_SIGMA, _MIXED_ALPHA),
    (1e-3, 0.3, _MIXED_SIGMA, _MIXED_ALPHA),
    (0.0, 1.0, np.array([0.0, 1.0, 5.0]), np.array([0.0, 0.0, 2.0])),
    # all below the switch (ex5 at eps = 1), all above (eps = 1e-2, 1e-8)
    (0.036, 1.0, np.ones(26), np.zeros(26)),
    (3.6e-4, 1e-2, np.ones(26), np.zeros(26)),
    (2.16e-3, 1e-8, np.linspace(1.0, 101.0, 201), np.linspace(0.0, 3.0, 201)),
    # the ex4 material (sigma in {1, 10, 100}) at eps = 1, which straddles the switch
    (0.0225, 1.0, np.repeat([1.0, 10.0, 100.0], [4, 16, 21]), np.zeros(41)),
])
def test_coefficients_bit_identical_to_per_entry_reference(dt, eps, sigma, alpha):
    got = coefficient_arrays(dt, eps, sigma, alpha)
    ref = coefficients_reference(dt, eps, sigma, alpha)
    for name, g, r in zip("abcde", got, ref):
        assert g.shape == sigma.shape, name
        assert np.array_equal(g, r), name
        assert np.array_equal(np.signbit(g), np.signbit(r)), name
    assert np.array_equal(got[-1], ref[-1])


def test_blend_parameter():
    assert blend_parameter(0.0, 1.0) == 0.0
    assert blend_parameter(1e12, 1.0) == pytest.approx(1.0)
    assert blend_parameter(math.log(2.0), 1.0) == pytest.approx(0.5, abs=1e-15)
    nu = np.array([0.0, 1.0, 2.0])
    out = blend_parameter(nu, 0.5)
    assert np.all(np.diff(out) > 0)
    with pytest.raises(InvalidArgumentError):
        blend_parameter(1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        blend_parameter(-1.0, 1.0)


def test_invalid_arguments():
    """The coefficients take their inputs from checked objects: a plan
    rejects dt, the scheme eps and the sampled material the signs."""
    mesh = SpatialMesh(0.0, 1.0, 4)
    q = build_gauss_legendre(4)
    bc = BoundarySpec.from_functions(0.0, 0.0, q)
    with pytest.raises(InvalidArgumentError):
        StepPlan(0.0, SchemeConfig(eps=1.0), sample_material(1.0, 0.0, 0.0, mesh), mesh, q, bc)
    with pytest.raises(InvalidArgumentError):
        SchemeConfig(eps=0.0)
    with pytest.raises(InvalidDataError):
        sample_material(-1.0, 0.0, 0.0, mesh)
    with pytest.raises(InvalidDataError):
        sample_material(1.0, -2.0, 0.0, mesh)
