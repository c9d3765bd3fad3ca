"""A StepPlan built once and reused must give the same bits as a fresh plan
per step, for every scheme option and in the experiment driver."""

import builtins

import numpy as np
import pytest
import scipy.linalg

from ugks1d.errors import InvalidArgumentError
from ugks1d.experiments import builtin_spec, run
from ugks1d import ugks
from ugks1d.grid import (SpatialMesh, VelocityQuadrature, build_double_gauss, build_gauss_legendre,
                         sample_material)
from ugks1d.penalized import PenalizedOperator, ScatteringKernel, penalized_step
from ugks1d.ugks import (BC_MODES, BoundarySpec, KineticState, SchemeConfig, StepPlan,
                         apply, cfl_timestep, step)

from plans import cfl_plan, penalized_plan

Q16 = build_gauss_legendre(16)
N_CELLS = 20
N_STEPS = 12


def setup(eps=0.05, **cfg_kw):
    mesh = SpatialMesh(0.0, 1.0, N_CELLS)
    mat = sample_material(lambda x: 1.0 + (4.0 * x) ** 2, 0.2, 0.5, mesh)
    return mesh, mat, SchemeConfig(eps=eps, **cfg_kw)


def rough_state():
    """Anisotropic, non-smooth data, so every flux term and limiter branch acts."""
    f = np.random.default_rng(7).random((N_CELLS, Q16.n))
    return KineticState.from_distribution(f, Q16)


def aniso_operator():
    """Penalized operator of k(v, v') = (1 + v v'/2)/2."""
    table = 0.5 + 0.25 * np.outer(Q16.nodes, Q16.nodes)
    return PenalizedOperator.build(ScatteringKernel.from_table(table, Q16), Q16)


def assert_same(a: KineticState, b: KineticState):
    assert np.array_equal(a.f, b.f)
    assert np.array_equal(a.rho, b.rho)
    assert a.t == b.t


@pytest.mark.parametrize("mode", BC_MODES)
@pytest.mark.parametrize("reconstruction", ["first_order", "mc_limited"])
@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_reused_plan_matches_fresh_plans(mode, reconstruction, diffusion_mode):
    mesh, mat, cfg = setup(reconstruction=reconstruction, diffusion_mode=diffusion_mode)
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, Q16, mode=mode)
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    reused = fresh = rough_state()
    for _ in range(N_STEPS):
        reused = step(reused, plan)
        fresh = step(fresh, cfl_plan(cfg, mat, mesh, Q16, bc))
        assert_same(reused, fresh)
    assert np.ptp(reused.rho) > 1e-3        # the data still varies


@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_reused_penalized_plan_matches_fresh_plans(diffusion_mode):
    eps = 0.3
    mesh, _, cfg = setup(eps=eps, diffusion_mode=diffusion_mode)
    op = aniso_operator()
    bc = BoundarySpec.from_functions(lambda v: v, 0.0, Q16)
    mat = op.material(mesh, sample_material(0.0, 0.0, 0.0, mesh))
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    reused = fresh = rough_state()
    for _ in range(N_STEPS):
        reused = penalized_step(reused, op, plan)
        fresh = penalized_step(fresh, op, penalized_plan(op, mesh, Q16, bc, cfg))
        assert_same(reused, fresh)


def layouts(state: KineticState):
    """The state with f in C order and in node-major (F) order, same values."""
    return [KineticState(f=order(state.f), rho=state.rho, t=state.t)
            for order in (np.ascontiguousarray, np.asfortranarray)]


@pytest.mark.parametrize("mode", BC_MODES)
@pytest.mark.parametrize("reconstruction", ["first_order", "mc_limited"])
@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_step_is_independent_of_memory_order(mode, reconstruction, diffusion_mode):
    mesh, mat, cfg = setup(reconstruction=reconstruction, diffusion_mode=diffusion_mode)
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, Q16, mode=mode)
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    c_order, node_major = layouts(rough_state())
    assert c_order.f.flags.c_contiguous and node_major.f.flags.f_contiguous
    f_c, rho_c = apply(plan, c_order.f, c_order.rho)
    f_n, rho_n = apply(plan, node_major.f, node_major.rho)
    assert np.array_equal(f_c, f_n)
    assert np.array_equal(rho_c, rho_n)


def test_penalized_step_is_independent_of_memory_order():
    eps = 0.3
    mesh, _, cfg = setup(eps=eps, reconstruction="mc_limited")
    op = aniso_operator()
    bc = BoundarySpec.from_functions(lambda v: v, 0.0, Q16)
    mat = op.material(mesh, sample_material(0.0, 0.0, 0.0, mesh))
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    c_order, node_major = layouts(rough_state())
    assert_same(penalized_step(c_order, op, plan), penalized_step(node_major, op, plan))


def plan_arrays(obj):
    """Every array a plan holds, also inside tuples (its scratch views,
    stencil, moment buffers, factors and source fold)."""
    items = vars(obj).values() if isinstance(obj, StepPlan) else obj
    for item in items:
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, tuple):
            yield from plan_arrays(item)


@pytest.mark.parametrize("penalized", [False, True], ids=["isotropic", "penalized"])
@pytest.mark.parametrize("reconstruction", ["first_order", "mc_limited"])
@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_returned_state_survives_later_steps_on_its_plan(diffusion_mode, reconstruction, penalized):
    """A returned state shares no memory with the plan's buffers, though
    its f and rho come from one allocation."""
    eps = 0.3
    mesh, mat, cfg = setup(eps=eps, reconstruction=reconstruction, diffusion_mode=diffusion_mode)
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, Q16, mode="blended")
    if penalized:
        op = aniso_operator()
        mat = op.material(mesh, sample_material(0.0, 0.0, 0.0, mesh))

        def advance(s):
            return penalized_step(s, op, plan)
    else:
        def advance(s):
            return step(s, plan)
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    first = advance(rough_state())
    buffers = list(plan_arrays(plan))
    assert len(buffers) > 20
    for buf in buffers:
        assert not np.may_share_memory(first.rho, buf)
        assert not np.may_share_memory(first.f, buf)
    kept = KineticState(f=first.f.copy(), rho=first.rho.copy(), t=first.t)
    state = first
    for _ in range(N_STEPS):
        state = advance(state)
    assert_same(first, kept)
    assert not np.array_equal(state.f, first.f)


@pytest.mark.parametrize("kind", ["first_order", "mc_limited", "ugks_id", "penalized"])
def test_state_size_plan_buffers_start_on_a_cache_line(kind):
    """Every (nodes, cells) buffer a 2000-cell plan owns starts on a 64-byte
    boundary, where a numpy store into it is fastest."""
    mesh = SpatialMesh(0.0, 1.0, 2000)
    mat = sample_material(lambda x: 1.0 + (4.0 * x) ** 2, 0.2, 0.5, mesh)
    cfg = SchemeConfig(eps=0.05, reconstruction="mc_limited" if kind == "mc_limited" else "first_order",
                       diffusion_mode="implicit_slopes" if kind == "ugks_id" else "explicit_slopes")
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, Q16)
    state = KineticState.from_distribution(np.random.default_rng(7).random((2000, Q16.n)), Q16)
    if kind == "penalized":
        op = aniso_operator()
        mat = op.material(mesh, sample_material(0.0, 0.0, 0.0, mesh))
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    if kind == "penalized":
        penalized_step(state, op, plan)
    else:
        step(state, plan)
    buffers = [*plan.stencil, plan.scratch, plan.up_state, plan.scaled_source]
    if kind == "mc_limited":
        buffers += [plan.mc_lambda, plan.mc_diag, plan.slope, *plan.mc_work]
    assert [buf.ctypes.data % 64 for buf in buffers] == [0] * len(buffers)


@pytest.mark.parametrize("overrides", [
    dict(),
    dict(scheme="ugks_id", bc_mode="blended"),
    dict(collision="penalized", kernel_constant=1.0),
])
def test_run_matches_manual_stepping_with_shortened_leg_ends(overrides):
    spec = builtin_spec("ex5", times=(0.0123, 0.05), **overrides)
    res = run(spec, cells=N_CELLS, store_f=True)

    mesh = SpatialMesh(spec.x_min, spec.x_max, N_CELLS)
    mat = sample_material(spec.sigma, spec.alpha, spec.source, mesh)
    bc = BoundarySpec.from_functions(spec.f_left, spec.f_right, Q16, mode=spec.bc_mode)
    cfg = SchemeConfig(eps=spec.eps, diffusion_mode="implicit_slopes"
                       if spec.scheme == "ugks_id" else "explicit_slopes")
    op = PenalizedOperator.build(ScatteringKernel.isotropic(1.0, Q16), Q16)
    dt_policy = cfl_timestep(cfg, mat, mesh)
    state = KineticState.from_distribution(np.zeros((N_CELLS, Q16.n)), Q16)
    t, shortened = 0.0, 0
    for t_target, rho_run, f_run in zip(spec.times, res.rho, res.f):
        k = 0   # step k starts at t + k dt; a leg's last step lands on t_target
        while t + k * dt_policy < t_target - 1e-13:
            full = t_target - (t + k * dt_policy) >= dt_policy
            dt = dt_policy if full else (t_target - t) - k * dt_policy
            shortened += not full
            if spec.collision == "penalized":
                state = penalized_step(state, op, penalized_plan(op, mesh, Q16, bc, cfg, dt))
            else:
                state = step(state, cfl_plan(cfg, mat, mesh, Q16, bc, dt))
            k += 1
        t = t_target
        assert np.array_equal(state.rho, rho_run)
        assert np.array_equal(state.f, f_run)
    assert shortened == len(spec.times)


@pytest.mark.parametrize("example, alpha", [("ex2", 0.0), ("ex4", 0.0), ("ex4", 0.5)])
@pytest.mark.parametrize("build_quadrature", [build_gauss_legendre, build_double_gauss])
@pytest.mark.parametrize("n_cells", [25, 2000])
def test_factored_solve_matches_the_banded_solve(example, alpha, build_quadrature, n_cells):
    """The plan's factors solve the density system to the bits of a fresh
    symmetric banded solve (LAPACK ptsv) on the same bands, and to rounding
    of the general tridiagonal solve."""
    spec = builtin_spec(example, alpha=alpha)
    mesh = SpatialMesh(spec.x_min, spec.x_max, n_cells)
    mat = sample_material(spec.sigma, spec.alpha, spec.source, mesh)
    q = build_quadrature(16)
    bc = BoundarySpec.from_functions(spec.f_left, spec.f_right, q)
    cfg = SchemeConfig(eps=spec.eps, diffusion_mode="implicit_slopes")
    dt = cfl_timestep(cfg, mat, mesh)
    plan = StepPlan(dt, cfg, mat, mesh, q, bc)
    lower, diag, upper = plan.bands
    rhs = np.random.default_rng(n_cells).random(n_cells) / dt
    got = ugks.solve_banded(plan.lu, rhs.copy())
    # solveh_banded's upper form wants the superdiagonal upper[:-1] shifted
    # one column right; the bands are symmetric, so that row is ``lower``.
    assert np.array_equal(got, scipy.linalg.solveh_banded(np.array([lower, diag]), rhs))
    ab = np.zeros((3, n_cells))
    ab[0, 1:] = upper[:-1]
    ab[1] = diag
    ab[2, :-1] = lower[1:]
    general = scipy.linalg.solve_banded((1, 1), ab, rhs)
    assert np.abs(got - general).max() <= 1e-14 * np.abs(general).max()


def test_solve_overwrites_its_right_hand_side():
    """``apply`` ignores the solve's return value: the solution must land in
    the row it passes."""
    mesh, mat, cfg = setup(diffusion_mode="implicit_slopes")
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    rhs = np.random.default_rng(3).random(N_CELLS) / plan.dt
    original = rhs.copy()
    assert ugks.solve_banded(plan.lu, rhs) is rhs
    assert not np.array_equal(rhs, original)
    assert np.array_equal(rhs, scipy.linalg.solveh_banded(np.array(plan.bands[:2]), original))


def test_implicit_plan_needs_a_mirrored_quadrature():
    """Half-moments that differ leave no symmetric density system: an
    implicit plan refuses the quadrature, an explicit one builds."""
    q = VelocityQuadrature(np.array([-0.9, -0.2, 0.5, 0.8]), np.full(4, 0.5))
    assert q.m_v2_pos != q.m_v2_neg
    mesh, mat, cfg = setup(diffusion_mode="implicit_slopes")
    bc = BoundarySpec.from_functions(1.0, 0.0, q)
    dt = cfl_timestep(cfg, mat, mesh)
    with pytest.raises(InvalidArgumentError, match="mirrored"):
        StepPlan(dt, cfg, mat, mesh, q, bc)
    plan = StepPlan(dt, SchemeConfig(eps=cfg.eps), mat, mesh, q, bc)
    f, rho = apply(plan, np.ones((N_CELLS, q.n)), np.ones(N_CELLS))
    assert np.all(np.isfinite(f))


@pytest.mark.parametrize("order", [2, 6, 16, 512])
@pytest.mark.parametrize("build_quadrature", [build_gauss_legendre, build_double_gauss])
def test_implicit_bands_are_symmetric(build_quadrature, order):
    q = build_quadrature(order)
    mesh, mat, cfg = setup(diffusion_mode="implicit_slopes")
    bc = BoundarySpec.from_functions(1.0, 0.0, q)
    lower, _, upper = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, q, bc).bands
    assert np.array_equal(lower[1:], upper[:-1])


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_two_cell_implicit_plan_solves(alpha):
    """The smallest mesh, 2 cells, factors and solves its 2 x 2 system like
    any other: the solve matches a general banded solve, and steps stay
    bounded."""
    mesh = SpatialMesh(0.0, 1.0, 2)
    mat = sample_material(1.0, alpha, 0.0, mesh)
    cfg = SchemeConfig(eps=0.1, diffusion_mode="implicit_slopes")
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    lower, diag, upper = plan.bands
    assert diag.shape == (2,)
    ab = np.array([[0.0, upper[0]], diag, [lower[1], 0.0]])
    rhs = np.random.default_rng(2).random(2) / plan.dt
    expect = scipy.linalg.solve_banded((1, 1), ab, rhs)
    assert np.abs(ugks.solve_banded(plan.lu, rhs.copy()) - expect).max() <= 1e-15 * np.abs(expect).max()
    state = KineticState.from_distribution(np.zeros((2, Q16.n)), Q16)
    for _ in range(5):
        state = step(state, plan)
    assert np.all(np.isfinite(state.f)) and 0.0 < state.rho.min() <= state.rho.max() < 1.0


@pytest.mark.parametrize("reconstruction", ["first_order", "mc_limited"])
def test_implicit_steps_run_no_import(monkeypatch, reconstruction):
    """An implicit plan binds its LAPACK routines when it factors, so a
    step never looks a module up."""
    mesh, mat, cfg = setup(reconstruction=reconstruction, diffusion_mode="implicit_slopes")
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    state = rough_state()
    f, rho = state.f, state.rho
    imported = []
    real_import = builtins.__import__

    def recording_import(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", recording_import)
    for _ in range(10):
        f, rho = apply(plan, f, rho)
    monkeypatch.undo()
    assert imported == []
    assert np.all(np.isfinite(f)) and np.ptp(rho) > 1e-3


def test_plan_rejects_a_mismatched_step():
    mesh, mat, cfg = setup()
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    plan = StepPlan(dt, cfg, mat, mesh, Q16, bc)
    state = rough_state()
    with pytest.raises(InvalidArgumentError):
        apply(plan, state.f[:-1], state.rho[:-1])
    with pytest.raises(InvalidArgumentError):
        StepPlan(0.0, cfg, mat, mesh, Q16, bc)
    with pytest.raises(InvalidArgumentError):
        StepPlan(dt, cfg, mat, SpatialMesh(0.0, 1.0, N_CELLS + 1), Q16, bc)
    with pytest.raises(InvalidArgumentError):
        StepPlan(dt, cfg, mat, mesh, Q16, BoundarySpec(f_left=np.ones(8), f_right=np.ones(8)))
