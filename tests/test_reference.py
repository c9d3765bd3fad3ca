from fractions import Fraction

import numpy as np
import pytest

from ugks1d import experiments, reference
from ugks1d.errors import InvalidArgumentError
from ugks1d.grid import (SpatialMesh, build_double_gauss, build_gauss_legendre, sample_material,
                         wall_density)
from ugks1d.experiments import builtin_spec, run
from ugks1d.reference import (diffusion_run, diffusion_step, diffusion_timestep, leg_steps,
                              upwind_step, upwind_timestep)
from ugks1d.ugks import BoundarySpec, SchemeConfig, StepPlan

from oracles import dirichlet_series_profile

Q16 = build_gauss_legendre(16)
QD16 = build_double_gauss(16)


# ---------------------------------------------------------------- upwind scheme

def test_upwind_uniform_fixed_point():
    mesh = SpatialMesh(0.0, 1.0, 8)
    mat = sample_material(0.0, 0.0, 0.0, mesh)
    f = np.full((8, 16), 0.4)
    fl = np.full(16, 0.4)
    dt = upwind_timestep(1.0, mat, mesh)
    out = upwind_step(f, 1.0, mat, mesh, Q16, fl, fl, dt)
    assert np.abs(out - 0.4).max() < 1e-15


def test_upwind_relaxation_factor():
    # spatially uniform data with matching inflow: transport drops out and the
    # deviation from the mean contracts by exactly (1 - dt sigma / eps^2)
    mesh = SpatialMesh(0.0, 1.0, 4)
    sigma, eps = 2.0, 0.8
    mat = sample_material(sigma, 0.0, 0.0, mesh)
    rng = np.random.default_rng(12)
    row = rng.uniform(0.2, 1.0, 16)
    f = np.tile(row, (4, 1))
    dt = upwind_timestep(eps, mat, mesh)
    out = upwind_step(f, eps, mat, mesh, Q16, row, row, dt)
    rho = float(row @ (0.5 * Q16.weights))
    factor = 1.0 - dt * sigma / eps**2
    expected = rho + factor * (row - rho)
    assert np.abs(out[1] - expected).max() < 1e-13


def test_upwind_monotone_under_cfl():
    mesh = SpatialMesh(0.0, 1.0, 30)
    mat = sample_material(1.0, 0.0, 0.0, mesh)
    rng = np.random.default_rng(2)
    f = rng.uniform(0.0, 1.0, size=(30, 16))
    fl = rng.uniform(0.0, 1.0, 16)
    fr = rng.uniform(0.0, 1.0, 16)
    dt = upwind_timestep(1.0, mat, mesh)
    for _ in range(50):
        f = upwind_step(f, 1.0, mat, mesh, Q16, fl, fr, dt)
    assert f.min() >= -1e-14 and f.max() <= 1.0 + 1e-14


def test_upwind_rejects_unstable_dt():
    mesh = SpatialMesh(0.0, 1.0, 10)
    mat = sample_material(5.0, 0.0, 0.0, mesh)
    bound = upwind_timestep(0.1, mat, mesh, cfl=1.0)
    with pytest.raises(InvalidArgumentError):
        upwind_step(np.zeros((10, 16)), 0.1, mat, mesh, Q16,
                    np.zeros(16), np.zeros(16), 2.0 * bound)


# ---------------------------------------------------------------- diffusion scheme

def test_diffusion_linear_steady_interior():
    n = 20
    mesh = SpatialMesh(0.0, 1.0, n)
    rho = 1.0 - mesh.centers
    kappa = np.full(n + 1, 1.0 / 3.0)
    dt = diffusion_timestep(kappa, mesh.dx)
    out = diffusion_step(rho, kappa, 0.0, 0.0, mesh.dx, dt, "explicit", (1.0, 0.0))
    # interior cells see the zero discrete Laplacian of linear data
    assert np.abs(out[1:-1] - rho[1:-1]).max() < 1e-15


def test_interface_kappa_is_harmonic_mean():
    # sigma in {1, 3}: interface kappa = 1/(3*mean sigma) = 1/6, the harmonic
    # mean of 1/3 and 1/9
    mesh = SpatialMesh(0.0, 1.0, 4)
    mat = sample_material(lambda x: 1.0 if x < 0.5 else 3.0, 0.0, 0.0, mesh)
    kappa_if = 1.0 / (3.0 * mat.sigma_iface)
    k1, k2 = 1.0 / 3.0, 1.0 / 9.0
    harmonic = 2.0 * k1 * k2 / (k1 + k2)
    assert kappa_if[2] == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert kappa_if[2] == pytest.approx(harmonic, abs=1e-15)


def test_explicit_diffusion_max_principle():
    n = 30
    mesh = SpatialMesh(0.0, 1.0, n)
    rng = np.random.default_rng(8)
    rho = rng.uniform(0.0, 1.0, n)
    kappa = np.full(n + 1, 0.5)
    dt = diffusion_timestep(kappa, mesh.dx)
    for _ in range(100):
        rho = diffusion_step(rho, kappa, 0.0, 0.0, mesh.dx, dt, "explicit", (0.3, 0.8))
        assert rho.min() >= -1e-14 and rho.max() <= 1.0 + 1e-14


def test_implicit_diffusion_bounded():
    n = 25
    mesh = SpatialMesh(0.0, 1.0, n)
    rng = np.random.default_rng(13)
    rho = rng.uniform(-1.0, 2.0, n)
    kappa = np.full(n + 1, 2.0)
    g = rng.uniform(-1.0, 1.0, n)
    dt = 0.5  # far above the explicit bound
    bound = max(np.abs(rho).max(), 0.5, 1.5) + dt * np.abs(g).max()
    out = diffusion_step(rho, kappa, 0.1, g, mesh.dx, dt, "implicit", (0.5, -1.5))
    assert np.abs(out).max() <= bound + 1e-12


def test_explicit_diffusion_rejects_unstable_dt():
    kappa = np.full(11, 1.0)
    with pytest.raises(InvalidArgumentError):
        diffusion_step(np.zeros(10), kappa, 0.0, 0.0, 0.1, 1.0, "explicit", (0.0, 0.0))


@pytest.mark.parametrize("alpha", [0.0, np.linspace(0.0, 0.5, 10)], ids=["uniform", "varying"])
def test_explicit_diffusion_run_rejects_unstable_dt(alpha):
    """Past the parabolic bound the explicit run diverges, on the
    eigendecomposition path of uniform alpha as on the step loop; the
    leg's last, shortened step is inside the bound."""
    kappa = np.full(11, 1.0)
    dt = 1.5 * diffusion_timestep(kappa, 0.1, cfl=1.0)
    with pytest.raises(InvalidArgumentError, match="parabolic bound"):
        diffusion_run(np.zeros(10), kappa, alpha, 0.0, 0.1, 0.0, 100.5 * dt, "explicit", (1.0, 0.0), dt)


def test_diffusion_run_modal_matches_stepping():
    n = 60
    mesh = SpatialMesh(0.0, 1.0, n)
    kappa = np.linspace(0.2, 0.5, n + 1)
    dt = diffusion_timestep(kappa, mesh.dx)
    t_end = 173 * dt
    rho0 = np.sin(np.pi * mesh.centers) ** 2
    modal, steps = diffusion_run(rho0, kappa, 0.0, 0.3, mesh.dx, 0.0, t_end, "explicit", (1.0, 0.2), dt)
    stepped = rho0
    for _ in range(173):
        stepped = diffusion_step(stepped, kappa, 0.0, 0.3, mesh.dx, dt, "explicit", (1.0, 0.2))
    assert steps == 173
    assert np.abs(modal - stepped).max() < 1e-12


def stepped_leg(t, t_end, dt):
    """Reference leg-end rule, one step at a time: the step sizes a loop
    takes from t to t_end, step k starting at t + k dt."""
    sizes, stop = [], t_end - 1e-13 * max(1.0, t_end)
    while t + len(sizes) * dt < stop:
        if t_end - (t + len(sizes) * dt) < dt:
            return sizes + [(t_end - t) - len(sizes) * dt]
        sizes.append(dt)
    return sizes


def test_leg_steps_are_the_steps_of_the_loop():
    rng = np.random.default_rng(3)
    for _ in range(400):
        dt = rng.uniform(1e-4, 0.1)
        t = rng.choice([0.0, rng.uniform(0.0, 3.0)])
        near = rng.choice([0.0, 1e-16, 5e-14, 2e-13, -3e-14, rng.uniform(-dt, dt)])
        t_end = max(t, t + rng.integers(0, 2000) * dt + near)
        n, last = leg_steps(t, t_end, dt)
        assert [dt] * n + ([last] if last else []) == stepped_leg(t, t_end, dt)


@pytest.mark.parametrize("dt", [-0.01, 0.0, float("nan")])
def test_leg_steps_rejects_a_step_that_is_not_positive(dt):
    with pytest.raises(InvalidArgumentError, match="dt must be positive"):
        leg_steps(0.0, 1.0, dt)


@pytest.mark.parametrize("dt", [5e-324, 1e-300])
def test_leg_steps_rejects_a_step_too_small_to_finish(dt):
    # 5e-324 made the step estimate overflow, 1e-300 asked for 1e299 steps
    with pytest.raises(InvalidArgumentError, match="steps from t=0 to t=1"):
        leg_steps(0.0, 1.0, dt)


def test_modal_run_counts_the_steps_of_the_leg_rule(monkeypatch):
    # ex3 (sigma = 1 + (10x)^2, alpha = 0) runs its full steps through the
    # eigendecomposition, yet reports what stepping one by one would take
    modal, full_steps = reference._explicit_modal, []

    def counted(*args):
        full_steps.append(args[6])
        return modal(*args)

    monkeypatch.setattr(reference, "_explicit_modal", counted)
    out = run(builtin_spec("ex3", scheme="diffusion"), cells=200)
    sizes = stepped_leg(0.0, 0.4, out.dt)
    assert out.n_steps == len(sizes) == 11845
    assert full_steps == [sizes.count(out.dt)]


def test_diffusion_oracle_lands_on_its_output_time(monkeypatch):
    # ex2 explicit diffusion at 200 cells to t = 1: leg_steps gives 29,629
    # full steps, taken at once by the modal map, and one shortened step of
    # (t_end - t) - n dt, so the oracle's steps add up to t = 1 to rounding.
    modal, step, taken = reference._explicit_modal, reference.diffusion_step, {}

    def counted(*args):
        taken["full"] = args[6]
        return modal(*args)

    def recorded(*args):
        taken.setdefault("short", []).append(args[5])
        return step(*args)

    monkeypatch.setattr(reference, "_explicit_modal", counted)
    monkeypatch.setattr(reference, "diffusion_step", recorded)
    out = run(builtin_spec("ex2", scheme="diffusion", times=(1.0,)), cells=200)
    assert out.n_steps == taken["full"] + 1 == 29630
    assert len(taken["short"]) == 1
    simulated = taken["full"] * Fraction(out.dt) + Fraction(taken["short"][0])
    assert abs(simulated - 1) <= 2 * np.spacing(1.0)


def test_discrete_reference_tracks_analytic_series():
    # the 2000-cell explicit scheme agrees with the exact sine-series solution
    # to its own (first-order boundary) accuracy
    n = 2000
    mesh = SpatialMesh(0.0, 1.0, n)
    kappa = np.full(n + 1, 1.0 / 3.0)
    for t, tol in ((0.05, 2e-3), (0.5, 5e-4)):
        rho, _ = diffusion_run(np.zeros(n), kappa, 0.0, 0.0, mesh.dx, 0.0, t, "explicit", (1.0, 0.0),
                               diffusion_timestep(kappa, mesh.dx))
        exact = dirichlet_series_profile(mesh.centers, t, 1.0 / 3.0, 1.0, 0.0)
        assert np.abs(rho - exact).max() < tol


# ---------------------------------------------------------------- boundary weight

WEIGHT_RULES = {"GL4": build_gauss_legendre(4), "GL16": Q16, "DG16": QD16}


def test_chandrasekhar_isotropic_normalization():
    h = QD16.split
    assert wall_density(QD16, np.full(16, 0.6), slice(h, None)) == pytest.approx(0.6, abs=1e-14)
    assert wall_density(QD16, np.full(16, 0.6), slice(0, h)) == pytest.approx(0.6, abs=1e-14)


def test_chandrasekhar_anisotropic_values():
    # W(v) = v + (3/2) v^2 has unit weight on a half-range-exact rule, so
    # f_L(v) = v gives 1/3 + 3/8 there
    val = wall_density(QD16, QD16.nodes, slice(QD16.split, None))
    assert val == pytest.approx(17.0 / 24.0, abs=1e-14)


def test_discrete_weight_normalization_quadrature_level():
    for q in (Q16, QD16):
        v = q.nodes[q.positive]
        norm = float(np.sum(q.weights[q.positive] * (v + 1.5 * v**2)))
        assert norm == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("rule", WEIGHT_RULES)
def test_shared_weight_is_normalized_on_its_rule(rule):
    # unit inflow reads the weight's own sum on the incoming half
    q = WEIGHT_RULES[rule]
    norm = wall_density(q, np.ones(q.n), slice(q.split, None))
    assert abs(norm - 1.0) <= 2 * np.spacing(1.0)


@pytest.mark.parametrize("rule", WEIGHT_RULES)
def test_oracle_dirichlet_data_is_the_corrected_wall_density(rule, monkeypatch):
    # anisotropic inflow at both walls, f_L(v) = v and f_R(v) = 1 - v, and
    # isotropic inflow, whose weighted sum can miss the value itself by an ulp;
    # the Dirichlet data is what a diffusion run passes to its oracle
    q = WEIGHT_RULES[rule]
    quad = dict(quadrature=q.n, quad_kind="double_gauss" if rule.startswith("DG") else "gauss_legendre")
    mesh = SpatialMesh(0.0, 1.0, 25)
    seen = []

    def capture(*args):
        seen.append(args[8])   # dirichlet
        return diffusion_run(*args)
    monkeypatch.setattr(experiments, "diffusion_run", capture)
    for f_left, f_right in ((lambda v: v, lambda v: 1.0 - v), (1.0, 0.3)):
        seen.clear()
        run(builtin_spec("ex5", f_left=f_left, f_right=f_right, scheme="diffusion", times=(0.01,), **quad),
            cells=25)
        bc = BoundarySpec.from_functions(f_left, f_right, q, mode="corrected")
        plan = StepPlan(0.01, SchemeConfig(eps=1e-2), sample_material(1.0, 0.0, 0.0, mesh), mesh, q, bc)
        assert seen == [plan.rho_half]


@pytest.mark.parametrize("quad_kind", ["gauss_legendre", "double_gauss"])
def test_corrected_ugks_meets_the_diffusion_oracle_at_small_eps(quad_kind):
    # The boundary layer of ex5 is O(eps) thin at eps = 1e-8: with one wall
    # density for both, the two runs differ by the AP limit's rounding only.
    spec = builtin_spec("ex5", eps=1e-8, times=(2.0,), bc_mode="corrected", quad_kind=quad_kind)
    kinetic = run(spec, cells=25).rho[0]
    diffusion = run(builtin_spec("ex5", eps=1e-8, times=(2.0,), scheme="diffusion",
                                 quad_kind=quad_kind), cells=25).rho[0]
    assert np.abs(kinetic - diffusion).max() <= 1e-7 * np.abs(diffusion).max()
