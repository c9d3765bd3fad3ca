import math

import numpy as np
import pytest

from ugks1d import ugks
from ugks1d.config import compile_expression
from ugks1d.errors import InvalidArgumentError, InvalidDataError
from ugks1d.grid import (SpatialMesh, average, build_double_gauss,
                         build_gauss_legendre, sample_material)
from ugks1d.reference import diffusion_step, upwind_step
from ugks1d.ugks import (BoundarySpec, KineticState, SchemeConfig, StepPlan,
                         cfl_timestep, moment_defect, step)

from oracles import upwind_moments
from plans import cfl_plan, penalized_plan

Q16 = build_gauss_legendre(16)


def make_setup(n_cells=25, sigma=1.0, alpha=0.0, source=0.0, eps=1.0, **cfg_kw):
    mesh = SpatialMesh(0.0, 1.0, n_cells)
    mat = sample_material(sigma, alpha, source, mesh)
    cfg = SchemeConfig(eps=eps, **cfg_kw)
    return mesh, mat, cfg


def isotropic_state(profile, q=Q16, t=0.0):
    profile = np.asarray(profile, dtype=float)
    return KineticState.from_distribution(np.repeat(profile[:, None], q.n, axis=1), q, t=t)


# ---------------------------------------------------------------- interface ops

def plan_interface_density(f_i, f_ip1, q=Q16):
    """Density a step assigns to the interface between two cells holding
    f_i and f_ip1: a plan's moment rows applied to the upwind halves."""
    mesh, mat, cfg = make_setup(n_cells=2)
    plan = StepPlan(0.01, cfg, mat, mesh, q, BoundarySpec.from_functions(0.0, 0.0, q))
    fn = np.ascontiguousarray(np.array([f_i, f_ip1], dtype=float).T)
    return upwind_moments(plan.moments, fn, ugks._moment_scratch(2, 2))[1, 1]


def test_interface_density_constant_and_half_range():
    c = 0.73
    assert plan_interface_density(np.full(16, c), np.full(16, c)) == pytest.approx(c, abs=1e-14)
    assert plan_interface_density(np.ones(16), np.zeros(16)) == pytest.approx(0.5, abs=1e-14)


def test_interface_density_odd_function_half_moment():
    qd = build_double_gauss(16)
    val = plan_interface_density(qd.nodes, np.zeros(16), qd)
    assert val == pytest.approx(0.25, abs=1e-14)
    # full-range Gauss-Legendre only achieves quadrature accuracy here
    val_gl = plan_interface_density(Q16.nodes, np.zeros(16))
    assert val_gl == pytest.approx(0.25, abs=2e-3)


# ---------------------------------------------------------------- boundaries

def wall_densities(bc, q=Q16):
    """(rho_{1/2}, rho_{N+1/2}) of a plan at dt = 0.01, eps = 0.01, sigma = 1."""
    mesh, mat, cfg = make_setup(n_cells=25, sigma=1.0, eps=1e-2)
    return StepPlan(0.01, cfg, mat, mesh, q, bc).rho_half


@pytest.mark.parametrize("mode", ["stabilized", "corrected", "blended"])
def test_boundary_density_isotropic_preserved(mode):
    bc = BoundarySpec.from_functions(0.9, 0.9, Q16, mode=mode)
    rho_l, rho_r = wall_densities(bc)
    assert rho_l == pytest.approx(0.9, abs=1e-13)
    assert rho_r == pytest.approx(0.9, abs=1e-13)


def test_boundary_density_anisotropic_corrected_value():
    # f_L(v) = v with the polynomial weight gives 17/24 on a half-range-exact
    # rule; f_R(v) = -v is its mirror image at the right wall
    qd = build_double_gauss(16)
    bc = BoundarySpec.from_functions(lambda v: v, lambda v: -v, qd, mode="corrected")
    rho_l, rho_r = wall_densities(bc, qd)
    assert rho_l == pytest.approx(17.0 / 24.0, abs=1e-14)
    assert rho_r == pytest.approx(17.0 / 24.0, abs=1e-14)


def test_boundary_unknown_mode_rejected():
    with pytest.raises(InvalidArgumentError):
        BoundarySpec(Q16, f_left=np.zeros(16), f_right=np.zeros(16), mode="reflecting")


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_a_directly_built_spec_checks_its_incoming_samples(bad):
    # the check of from_functions holds whatever builds the spec
    for name in ("f_left", "f_right"):
        samples = dict(f_left=np.zeros(16), f_right=np.zeros(16))
        samples[name] = np.full(16, bad)
        with pytest.raises(InvalidDataError, match=name):
            BoundarySpec(Q16, **samples)


def test_a_spec_needs_one_sample_per_node_of_its_rule():
    with pytest.raises(InvalidArgumentError, match="f_right"):
        BoundarySpec(Q16, np.zeros(16), np.zeros(8))


def test_a_spec_reduces_its_inflow_once_and_no_plan_again(monkeypatch):
    calls = []
    wall_density = ugks.wall_density
    monkeypatch.setattr(ugks, "wall_density", lambda *args: calls.append(args) or wall_density(*args))
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, Q16, mode="corrected")
    assert len(calls) == 2   # one per wall
    mesh, mat, cfg = make_setup(eps=1e-2)
    plans = [StepPlan(dt, cfg, mat, mesh, Q16, bc) for dt in (0.01, 0.005, 0.002)]
    assert len(calls) == 2
    assert all(plan.rho_half == tuple(rho for _, rho in bc.walls) for plan in plans)


# Inflow data that an array call would reject or round differently: math.sqrt
# and an ``if`` take one number, and ``^`` in a config expression is a power,
# which for v^4 on the 512-node rule gives another last bit in 12 of 512
# nodes when evaluated on the array at once.  ``shift`` moves each below
# zero on part of both halves.
INFLOWS = {
    "math.sqrt": lambda shift: (lambda v: math.sqrt(abs(v)) - shift),
    "if body": lambda shift: (lambda v: (v if v > 0 else -v) - shift),
    "config ^": lambda shift: compile_expression(f"v^4 - {shift}"),
    "scalar": lambda shift: 0.6 - 2.0 * shift,
}


@pytest.mark.parametrize("kind", INFLOWS)
def test_inflow_sampled_node_by_node(kind):
    for q in (Q16, build_double_gauss(16), build_gauss_legendre(512)):
        fn = INFLOWS[kind](0.0)
        bc = BoundarySpec.from_functions(fn, fn, q)
        ref = np.array([float(fn(vk)) for vk in q.nodes]) if callable(fn) else np.full(q.n, fn)
        assert np.array_equal(bc.f_left, ref) and np.array_equal(bc.f_right, ref)
        with pytest.raises(InvalidDataError):
            BoundarySpec.from_functions(INFLOWS[kind](0.5), 0.0, q)
        with pytest.raises(InvalidDataError):
            BoundarySpec.from_functions(0.0, INFLOWS[kind](0.5), q)
    # Negative samples on the outgoing half are not inflow data.
    BoundarySpec.from_functions(lambda v: v, lambda v: -v, Q16)


def test_a_non_finite_inflow_sample_is_named_without_a_warning():
    # a negative base to a fractional power is NaN at the numpy nodes below 0.4
    fn = compile_expression("(v-0.4)^0.5")
    with np.errstate(all="raise"):   # a numpy warning would raise FloatingPointError instead
        for args, name in (((fn, 0.0), "f_left"), ((0.0, compile_expression("(-v-0.4)^0.5")), "f_right"),
                           ((math.inf, 0.0), "f_left")):
            with pytest.raises(InvalidDataError, match=name):
                BoundarySpec.from_functions(*args, Q16)
        # not finite only on the outgoing half, which no wall reads
        bc = BoundarySpec.from_functions(compile_expression("v^0.5"), 0.0, Q16)
    assert np.isfinite(bc.f_left[Q16.split:]).all()


# ---------------------------------------------------------------- CFL policy

def test_cfl_timestep_examples():
    mesh, mat, cfg = make_setup(n_cells=25, sigma=1.0, eps=1.0)
    assert cfl_timestep(cfg, mat, mesh) == pytest.approx(0.036)
    mesh, mat, cfg = make_setup(n_cells=25, sigma=1.0, eps=1e-8)
    assert cfl_timestep(cfg, mat, mesh) == pytest.approx(2.16e-3)
    mesh, mat, cfg = make_setup(n_cells=200, sigma=1.0, eps=1e-8,
                                diffusion_mode="implicit_slopes")
    assert cfl_timestep(cfg, mat, mesh) == pytest.approx(4.5e-3)


# ---------------------------------------------------------------- stepping

@pytest.mark.parametrize("mode", ["stabilized", "corrected", "blended"])
@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_equilibrium_fixed_point(mode, diffusion_mode):
    c = 0.6
    mesh, mat, cfg = make_setup(n_cells=12, sigma=2.0, eps=0.3,
                                diffusion_mode=diffusion_mode)
    bc = BoundarySpec.from_functions(c, c, Q16, mode=mode)
    state = isotropic_state(np.full(12, c))
    plan = cfl_plan(cfg, mat, mesh, Q16, bc)
    for _ in range(40):
        state = step(state, plan)
    assert np.abs(state.f - c).max() < 5e-13
    assert np.all(state.rho >= 0)


def test_equilibrium_with_absorption_and_matching_source():
    # alpha > 0 with G = alpha*c keeps the constant state stationary
    c, alpha = 0.8, 0.7
    mesh, mat, cfg = make_setup(n_cells=10, sigma=1.5, alpha=alpha,
                                source=alpha * c, eps=0.5)
    bc = BoundarySpec.from_functions(c, c, Q16)
    state = isotropic_state(np.full(10, c))
    plan = cfl_plan(cfg, mat, mesh, Q16, bc)
    for _ in range(30):
        state = step(state, plan)
    assert np.abs(state.f - c).max() < 5e-13


def test_free_transport_step_equals_upwind():
    # with sigma = alpha = 0 the stabilized and blended walls are upwind walls
    mesh, mat, cfg = make_setup(n_cells=30, sigma=0.0, eps=1.0)
    rng = np.random.default_rng(4)
    f0 = rng.uniform(0.0, 1.0, size=(30, 16))
    state = KineticState.from_distribution(f0, Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    for mode in ("stabilized", "blended"):
        bc = BoundarySpec.from_functions(lambda v: v, 0.0, Q16, mode=mode)
        out = step(state, StepPlan(dt, cfg, mat, mesh, Q16, bc))
        ref = upwind_step(f0, 1.0, mat, mesh, Q16, bc.f_left, bc.f_right, dt)
        assert np.abs(out.f - ref).max() < 1e-13


def test_micro_flux_free_transport_is_upwind():
    # sigma = alpha = 0 at eps = 0.5 with a uniform source: every interior
    # interface carries v/eps times the upwind value plus e v G, and the
    # uniform e v G part cancels in each interior cell's flux difference
    mesh, mat, cfg = make_setup(n_cells=30, sigma=0.0, source=0.7, eps=0.5)
    f0 = np.random.default_rng(7).uniform(0.2, 1.3, size=(30, 16))
    state = KineticState.from_distribution(f0, Q16)
    bc = BoundarySpec.from_functions(0.0, 0.0, Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    out = step(state, StepPlan(dt, cfg, mat, mesh, Q16, bc))
    ref = upwind_step(f0, 0.5, mat, mesh, Q16, bc.f_left, bc.f_right, dt)
    assert np.abs(out.f[1:-1] - ref[1:-1]).max() < 1e-13


def test_boundary_free_transport_flux_is_upwind():
    # with sigma = alpha = 0 the stabilized and blended macroscopic wall
    # fluxes reduce to the first-order upwind flux, so the density of the
    # wall cell follows the upwind step
    mesh, mat, cfg = make_setup(n_cells=25, sigma=0.0, eps=1.0)
    f1 = np.tile(np.abs(Q16.nodes) + 0.2, (25, 1))
    state = KineticState.from_distribution(f1, Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    for mode in ("stabilized", "blended"):
        bc = BoundarySpec.from_functions(lambda v: v, 0.0, Q16, mode=mode)
        out = step(state, StepPlan(dt, cfg, mat, mesh, Q16, bc))
        ref = upwind_step(f1, 1.0, mat, mesh, Q16, bc.f_left, bc.f_right, dt)
        assert out.rho[0] == pytest.approx(average(Q16, ref[0]), rel=1e-13)


def test_second_order_free_transport_matches_traced_upwind():
    mesh, mat, _ = make_setup(n_cells=40, sigma=0.0, eps=1.0)
    cfg = SchemeConfig(eps=1.0, reconstruction="mc_limited")
    prof = np.exp(-((mesh.centers - 0.5) / 0.15) ** 2)
    state = isotropic_state(prof)
    bc = BoundarySpec.from_functions(0.0, 0.0, Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    out = step(state, StepPlan(dt, cfg, mat, mesh, Q16, bc))
    ref = upwind_step(state.f, 1.0, mat, mesh, Q16, bc.f_left, bc.f_right, dt,
                      reconstruction="mc_limited")
    assert np.abs(out.f - ref).max() < 1e-13


def test_diffusive_macro_update_matches_three_point_scheme():
    mesh, mat, cfg = make_setup(n_cells=25, sigma=1.0, eps=1e-8)
    rho0 = 0.5 * (1.0 + np.cos(np.pi * mesh.centers))
    state = isotropic_state(rho0)
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    out = step(state, StepPlan(dt, cfg, mat, mesh, Q16, bc))
    kappa = 1.0 / (3.0 * mat.sigma_iface)
    ref = diffusion_step(rho0, kappa, 0.0, 0.0, mesh.dx, dt, "explicit", (1.0, 0.0))
    assert np.abs(out.rho - ref).max() < 1e-6 * np.abs(ref).max()


def test_implicit_macro_update_matches_implicit_diffusion():
    mesh, mat, _ = make_setup(n_cells=25, sigma=1.0, eps=1e-8)
    cfg = SchemeConfig(eps=1e-8, diffusion_mode="implicit_slopes")
    rho0 = 0.5 * (1.0 + np.cos(np.pi * mesh.centers))
    state = isotropic_state(rho0)
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    out = step(state, StepPlan(dt, cfg, mat, mesh, Q16, bc))
    kappa = 1.0 / (3.0 * mat.sigma_iface)
    ref = diffusion_step(rho0, kappa, 0.0, 0.0, mesh.dx, dt, "implicit", (1.0, 0.0))
    assert np.abs(out.rho - ref).max() < 1e-6 * np.abs(ref).max()


@pytest.mark.parametrize("eps,sigma,alpha,source,diffusion_mode,reconstruction", [
    (1.0, 1.0, 0.0, 0.0, "explicit_slopes", "first_order"),
    (1e-2, 5.0, 0.3, 1.0, "explicit_slopes", "first_order"),
    (1e-8, 1.0, 0.0, 0.0, "explicit_slopes", "first_order"),
    (1e-2, 5.0, 0.3, 1.0, "implicit_slopes", "first_order"),
    (1e-2, 5.0, 0.0, 1.0, "explicit_slopes", "mc_limited"),
])
def test_moment_consistency_random_states(eps, sigma, alpha, source, diffusion_mode, reconstruction):
    mesh, mat, _ = make_setup(n_cells=20, sigma=sigma, alpha=alpha, source=source, eps=eps)
    cfg = SchemeConfig(eps=eps, diffusion_mode=diffusion_mode, reconstruction=reconstruction)
    assert_moments_consistent(cfg, mat, mesh, np.random.default_rng(9), n_steps=5)


@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_moment_consistency_random_coefficients(diffusion_mode):
    # The macroscopic flux is the velocity average of the per-node one for
    # any (dt, eps, sigma, alpha), MC slope terms included: the interface
    # density and source terms drop only through the symmetric quadrature.
    rng = np.random.default_rng(11)
    for _ in range(10):
        dt = 10.0 ** rng.uniform(-5, -1)
        eps = 10.0 ** rng.uniform(-6, 0)
        sigma = 10.0 ** rng.uniform(-3, 2)
        alpha = rng.uniform(0.0, 2.0)
        mesh, mat, _ = make_setup(n_cells=20, sigma=sigma, alpha=alpha,
                                  source=rng.uniform(0.0, 2.0), eps=eps)
        cfg = SchemeConfig(eps=eps, diffusion_mode=diffusion_mode, reconstruction="mc_limited")
        assert_moments_consistent(cfg, mat, mesh, rng, n_steps=3, dt=dt)


def assert_moments_consistent(cfg, mat, mesh, rng, n_steps, dt=None):
    """Step a random state and check rho = <f>_h after every step."""
    f0 = rng.uniform(0.0, 2.0, size=(mesh.n_cells, 16))
    state = KineticState.from_distribution(f0, Q16)
    plan = cfl_plan(cfg, mat, mesh, Q16, BoundarySpec.from_functions(1.0, 0.0, Q16), dt)
    for _ in range(n_steps):
        state = step(state, plan)
        assert moment_defect(state, Q16) < 1e-12


def test_boundary_modes_identical_for_isotropic_inflow():
    mesh, mat, cfg = make_setup(n_cells=15, sigma=1.0, eps=1e-2)
    rng = np.random.default_rng(5)
    f0 = rng.uniform(0.5, 1.5, size=(15, 16))
    results = []
    for mode in ("stabilized", "corrected", "blended"):
        bc = BoundarySpec.from_functions(1.0, 0.25, Q16, mode=mode)
        state = KineticState.from_distribution(f0, Q16)
        plan = cfl_plan(cfg, mat, mesh, Q16, bc)
        for _ in range(20):
            state = step(state, plan)
        results.append(state.rho)
    assert np.abs(results[0] - results[1]).max() < 1e-12
    assert np.abs(results[0] - results[2]).max() < 1e-12


def test_nan_detection():
    from ugks1d.errors import SolverFailureError

    mesh, mat, cfg = make_setup(n_cells=5, sigma=1.0, eps=1.0)
    bad = np.full((5, 16), np.nan)
    state = KineticState(f=bad, rho=np.full(5, np.nan), t=0.0)
    bc = BoundarySpec.from_functions(0.0, 0.0, Q16)
    with pytest.raises(SolverFailureError):
        step(state, cfl_plan(cfg, mat, mesh, Q16, bc))


SCHEMES = {
    "explicit": dict(),
    "ugks_id": dict(diffusion_mode="implicit_slopes"),
    "mc_limited": dict(reconstruction="mc_limited"),
    "penalized": dict(),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_single_non_finite_entry_is_detected(scheme, bad):
    """One non-finite f value, in the first, an interior or the last cell
    and in either velocity half, fails the step: the stencil multiplies
    some entries of f by exact zeros, so the guard must not rely on them."""
    from ugks1d.errors import SolverFailureError
    from ugks1d.penalized import PenalizedOperator, ScatteringKernel, penalized_step

    n = 9
    mesh, mat, cfg = make_setup(n_cells=n, sigma=1.0, eps=0.1, **SCHEMES[scheme])
    bc = BoundarySpec.from_functions(lambda v: v, 0.5, Q16, mode="blended")
    f0 = np.random.default_rng(3).uniform(0.2, 1.0, size=(n, Q16.n))
    rho0 = average(Q16, f0)
    if scheme == "penalized":
        table = 0.5 + 0.25 * np.outer(Q16.nodes, Q16.nodes)
        op = PenalizedOperator.build(ScatteringKernel.from_table(table, Q16), Q16)

        plan = penalized_plan(op, mesh, Q16, bc, cfg)

        def advance(state):
            return penalized_step(state, op, plan)
    else:
        plan = cfl_plan(cfg, mat, mesh, Q16, bc)

        def advance(state):
            return step(state, plan)

    advance(KineticState(f=f0, rho=rho0, t=0.0))    # finite data steps
    for cell in (0, n // 2, n - 1):
        for node in (0, Q16.split - 1, Q16.split, Q16.n - 1):   # both halves, both ends of each
            f = f0.copy()
            f[cell, node] = bad
            with pytest.raises(SolverFailureError), np.errstate(invalid="ignore", over="ignore"):
                advance(KineticState(f=f, rho=rho0, t=0.0))


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_overflowing_step_is_detected(scheme):
    """A finite state whose step has finite entries that sum past the
    largest float fails the step: the guard sums f and rho."""
    from ugks1d.errors import SolverFailureError
    from ugks1d.penalized import PenalizedOperator, ScatteringKernel, penalized_step

    n, big = 5, 5e306
    # eps = 1 keeps sigma/eps^2 rho, which the step scales back down, finite.
    mesh, mat, cfg = make_setup(n_cells=n, sigma=1.0, eps=1.0, **SCHEMES[scheme])
    bc = BoundarySpec.from_functions(lambda v: v, 0.5, Q16, mode="blended")
    source = None
    if scheme == "penalized":
        table = 0.5 + 0.25 * np.outer(Q16.nodes, Q16.nodes)
        op = PenalizedOperator.build(ScatteringKernel.from_table(table, Q16), Q16)
        mat, source = op.material(sample_material(0.0, 0.0, 0.0, mesh)), op.shifted

        def advance(f):
            state = KineticState(f=f, rho=average(Q16, f), t=0.0)
            return penalized_step(state, op, plan)
    else:
        def advance(f):
            return step(KineticState(f=f, rho=average(Q16, f), t=0.0), plan)

    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc, source=source)
    f = np.full((n, Q16.n), big)
    # The step is affine with O(1) inflow terms: scaled down, it shows that
    # the full step's entries stay finite while their sum overflows.
    scale = 2.0**40
    small = advance(f / scale)
    largest = np.finfo(float).max / scale
    assert max(np.abs(small.f).max(), np.abs(small.rho).max()) < largest < small.f.sum() + small.rho.sum()
    with pytest.raises(SolverFailureError), np.errstate(over="ignore", invalid="ignore"):
        advance(f)
