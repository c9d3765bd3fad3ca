import math

import numpy as np
import pytest

from ugks1d.errors import InvalidArgumentError, InvalidDataError
from ugks1d.grid import (SpatialMesh, VelocityQuadrature, average, build_double_gauss,
                         build_gauss_legendre, sample_material)

from oracles import mc_slopes


def test_two_point_rule_closed_form():
    q = build_gauss_legendre(2)
    assert np.allclose(sorted(q.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(q.weights, [1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("builder", [build_gauss_legendre, build_double_gauss])
def test_quadrature_invariants(builder, n):
    q = builder(n)
    assert abs(np.sum(q.weights) - 2.0) < 1e-14
    # symmetric node set with equal weights, no node at zero
    order = np.argsort(q.nodes)
    nodes = q.nodes[order]
    weights = q.weights[order]
    assert np.allclose(nodes, -nodes[::-1], atol=1e-15)
    assert np.allclose(weights, weights[::-1], atol=1e-15)
    assert np.all(nodes != 0.0)
    assert abs(average(q, q.nodes)) < 1e-14
    # half-moments of v cancel; half-moments of v^2 split evenly
    assert abs(q.m_v_neg + q.m_v_pos) < 1e-14
    assert abs(q.m_v2_neg - q.m_v2_pos) < 1e-14
    assert abs(q.m_v2_neg + q.m_v2_pos - q.m_v2) < 1e-14
    # ascending nodes: the negative half precedes the positive half
    assert np.all(q.nodes[:q.split] < 0) and np.all(q.nodes[q.split:] > 0)
    assert np.array_equal(q.positive, q.nodes > 0)


@pytest.mark.parametrize("builder", [build_gauss_legendre, build_double_gauss])
def test_mirrored_rules_have_exactly_mirrored_half_moments(builder):
    """Every built-in rule is mirrored bit for bit, and so are its computed
    half-moments: the implicit density solve relies on m_v2_neg ==
    m_v2_pos."""
    for n in range(2, 513, 2):
        q = builder(n)
        h = q.split
        assert np.array_equal(q.nodes[:h], -q.nodes[h:][::-1])
        assert np.array_equal(q.weights[:h], q.weights[h:][::-1])
        assert q.m_v2_neg == q.m_v2_pos, n
        assert q.m_v_neg == -q.m_v_pos, n


@pytest.mark.parametrize("nodes", [[0.5, -0.5], [-0.5, -0.5, 0.5, 0.7], [-0.5, 0.5, 0.3]])
def test_quadrature_rejects_unsorted_nodes(nodes):
    with pytest.raises(InvalidArgumentError):
        VelocityQuadrature(np.array(nodes), np.full(len(nodes), 2.0 / len(nodes)))


def test_second_moment_exact_for_16_nodes():
    q = build_gauss_legendre(16)
    # oracle: direct summation against the exact integral of v^2
    direct = 0.5 * np.sum(q.weights * q.nodes**2)
    assert abs(direct - 1.0 / 3.0) < 1e-14
    assert abs(q.m_v2 - 1.0 / 3.0) < 1e-14


def test_double_gauss_half_range_moments_exact():
    q = build_double_gauss(16)
    assert abs(q.m_v_pos - 0.25) < 1e-15
    assert abs(q.m_v2_pos - 1.0 / 6.0) < 1e-15
    # odd cubic on the half range, exact for the mirrored rule only
    pos = q.positive
    third = 0.5 * np.sum(q.weights[pos] * q.nodes[pos] ** 3)
    assert abs(third - 0.125) < 1e-15


def test_full_range_rule_half_moment_error_is_quadrature_level():
    # the full-range rule only approximates half-range odd moments
    q = build_gauss_legendre(16)
    assert 1e-6 < abs(q.m_v_pos - 0.25) < 2e-3


@pytest.mark.parametrize("n", [1, 3, 0, -2, 514])
def test_invalid_order_rejected(n):
    with pytest.raises(InvalidArgumentError):
        build_gauss_legendre(n)
    with pytest.raises(InvalidArgumentError):
        build_double_gauss(max(n, 1) if n % 2 else n)


def test_average_basics():
    q = build_gauss_legendre(16)
    assert abs(average(q, np.ones(16)) - 1.0) < 1e-15
    assert abs(average(q, q.nodes)) < 1e-14
    assert abs(average(q, q.nodes**2) - 1.0 / 3.0) < 1e-14


def test_average_is_linear():
    q = build_gauss_legendre(8)
    rng = np.random.default_rng(42)
    for _ in range(25):
        f = rng.normal(size=8)
        g = rng.normal(size=8)
        a, b = rng.normal(size=2)
        lhs = average(q, a * f + b * g)
        rhs = a * average(q, f) + b * average(q, g)
        assert abs(lhs - rhs) < 1e-13 * (1 + abs(lhs))


def test_average_length_mismatch():
    q = build_gauss_legendre(8)
    with pytest.raises(InvalidArgumentError):
        average(q, np.ones(7))


def test_mesh_invariants():
    mesh = SpatialMesh(0.0, 1.0, 40)
    assert mesh.dx == pytest.approx(0.025)
    interfaces = mesh.x_min + np.arange(mesh.n_cells + 1) * mesh.dx
    assert np.all(np.diff(interfaces) > 0) and interfaces[-1] == pytest.approx(mesh.x_max)
    assert mesh.centers[0] == pytest.approx(0.0125)
    with pytest.raises(InvalidArgumentError):
        SpatialMesh(0.0, 1.0, 1)
    with pytest.raises(InvalidArgumentError):
        SpatialMesh(1.0, 0.0, 10)


def test_sample_material_constant():
    mesh = SpatialMesh(0.0, 1.0, 10)
    mat = sample_material(1.0, 0.0, 0.0, mesh)
    assert np.all(mat.sigma_cell == 1.0)
    assert np.all(mat.sigma_iface == 1.0)


def test_sample_material_smooth_profile():
    # sigma = 1 + (10x)^2 on 40 cells: first midpoint sample
    mesh = SpatialMesh(0.0, 1.0, 40)
    mat = sample_material(lambda x: 1.0 + (10.0 * x) ** 2, 0.0, 0.0, mesh)
    assert mat.sigma_cell[0] == pytest.approx(1.015625, abs=1e-15)


def test_sample_material_piecewise_interface_mean():
    mesh = SpatialMesh(0.0, 1.0, 40)

    def sigma(x):
        return np.where(x < 0.1, 1.0, np.where(x < 0.5, 10.0, 100.0))

    mat = sample_material(sigma, 0.0, 0.0, mesh)
    j = 20  # interface at x = 0.5 between cells 19 and 20
    assert mesh.x_min + j * mesh.dx == pytest.approx(0.5)
    assert mat.sigma_iface[j] == pytest.approx(55.0)


def test_interface_values_bounded_by_neighbours():
    mesh = SpatialMesh(0.0, 1.0, 33)
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.1, 5.0, mesh.n_cells)
    mat = sample_material(lambda x: vals[min(int(x / mesh.dx), mesh.n_cells - 1)], 0.0, 0.0, mesh)
    lo = np.minimum(mat.sigma_cell[:-1], mat.sigma_cell[1:])
    hi = np.maximum(mat.sigma_cell[:-1], mat.sigma_cell[1:])
    inner = mat.sigma_iface[1:-1]
    assert np.all(inner >= lo - 1e-14) and np.all(inner <= hi + 1e-14)


def test_negative_samples_rejected():
    mesh = SpatialMesh(0.0, 1.0, 4)
    with pytest.raises(InvalidDataError):
        sample_material(lambda x: -1.0, 0.0, 0.0, mesh)
    with pytest.raises(InvalidDataError):
        sample_material(1.0, lambda x: -0.5, 0.0, mesh)


def mc_slope(f_prev: float, f_mid: float, f_next: float, dx: float, theta_lim: float) -> float:
    """Scalar reference of the MC limiter: the three-argument minmod of the
    central and the two theta-scaled one-sided differences."""
    a = (f_next - f_prev) / (2.0 * dx)
    b = theta_lim * (f_mid - f_prev) / dx
    c = theta_lim * (f_next - f_mid) / dx
    if a > 0 and b > 0 and c > 0:
        return min(a, b, c)
    if a < 0 and b < 0 and c < 0:
        return max(a, b, c)
    return 0.0


def test_mc_slope():
    assert mc_slope(0.0, 1.0, 2.0, 1.0, 1.5) == pytest.approx(1.0)
    assert mc_slope(0.0, 1.0, 0.0, 1.0, 1.5) == 0.0
    assert mc_slope(0.0, 1.0, 4.0, 1.0, 1.5) == pytest.approx(1.5)
    assert mc_slope(4.0, 1.0, 0.0, 1.0, 1.5) == pytest.approx(-1.5)


@pytest.mark.parametrize("strided", [0, 1])
def test_mc_slopes_match_the_scalar_limiter(strided):
    # Rough data with flat stretches, so every minmod branch and tie occurs.
    rng = np.random.default_rng(5)
    f = np.round(rng.random((30, 6)) * 4.0) / 4.0
    dx, theta = 0.1, 1.5
    # node-major input, cells last; a strided view is copied first
    df = mc_slopes(f.T if strided else np.ascontiguousarray(f.T), dx).T
    expect = np.zeros_like(f)
    for i in range(1, f.shape[0] - 1):
        for k in range(f.shape[1]):
            expect[i, k] = mc_slope(f[i - 1, k], f[i, k], f[i + 1, k], dx, theta)
    assert np.array_equal(df, expect)
    assert np.array_equal(np.signbit(df), np.signbit(expect))   # zeros are +0.0 too
    assert np.count_nonzero(expect > 0) and np.count_nonzero(expect < 0)
