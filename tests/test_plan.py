"""A StepPlan built once and reused must give the same bits as a fresh plan
per step, for every scheme option and in the experiment driver."""

import builtins
import gc
import math
import re
import weakref

import numpy as np
import pytest
import scipy.linalg

from ugks1d.errors import InvalidArgumentError, SolverFailureError
from ugks1d.experiments import builtin_spec, run
from ugks1d import penalized, ugks
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


def aniso_operator(q=Q16):
    """Penalized operator of k(v, v') = (1 + v v'/2)/2 on ``q``."""
    table = 0.5 + 0.25 * np.outer(q.nodes, q.nodes)
    return PenalizedOperator.build(ScatteringKernel.from_table(table, q), q)


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
    plan = penalized_plan(op, mesh, Q16, bc, cfg)
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
    plan = penalized_plan(op, mesh, Q16, bc, cfg)
    c_order, node_major = layouts(rough_state())
    assert_same(penalized_step(c_order, op, plan), penalized_step(node_major, op, plan))


def closure_values(fn):
    """The values in ``fn``'s closure, skipping empty cells: names that the
    path of the plan that built it never binds."""
    for cell in fn.__closure__:
        try:
            yield cell.cell_contents
        except ValueError:
            pass


def plan_arrays(obj):
    """Every array a plan holds, also inside tuples (its scratch views,
    stencil, moment buffers, factors and source fold) and in its kernel's
    closure, which holds the views that the step writes."""
    items = [*vars(obj).values(), *closure_values(obj._kernel)] if isinstance(obj, StepPlan) else obj
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
    source = None
    if penalized:
        op = aniso_operator()
        mat, source = op.material(sample_material(0.0, 0.0, 0.0, mesh)), op.shifted

        def advance(s):
            return penalized_step(s, op, plan)
    else:
        def advance(s):
            return step(s, plan)
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc, source=source)
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


KINDS = ["first_order", "mc_limited", "ugks_id", "penalized", "penalized_ugks_id"]


def plan_of(kind):
    """A plan of ``kind`` on the rough material with anisotropic blended
    inflow, and ``advance(state, plan, n=1)``, its n steps.  Besides
    ``KINDS``, "penalized_mc_limited" is a penalized MC plan and
    "penalized_per_cell" a penalized one with alpha(x), whose lambda is
    one value per cell."""
    mesh, mat, cfg = setup(reconstruction="mc_limited" if kind.endswith("mc_limited") else "first_order",
                           diffusion_mode="implicit_slopes" if kind.endswith("ugks_id") else "explicit_slopes")
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, Q16, mode="blended")
    advance, source = step, None
    if kind.startswith("penalized"):
        op = aniso_operator()
        alpha = (lambda x: 40.0 * x * x) if kind == "penalized_per_cell" else 0.0
        mat, source = op.material(sample_material(0.0, alpha, 0.0, mesh)), op.shifted

        def advance(state, plan, n=1):
            return penalized_step(state, op, plan, n)
    return StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc, source=source), advance


@pytest.mark.parametrize("kind", KINDS)
def test_a_plan_is_whole_when_built(monkeypatch, kind):
    """A plan binds its kernel and builds every attribute, its one aligned
    block of (nodes, cells) buffers included, when it is built: its steps
    replace or add none of them.  A call takes only aligned blocks of its
    own, the (nodes + 1, cells) block that it returns and, for more than
    one step, the (2, nodes + 1, cells) block of the steps before the
    last, and nothing keeps them once the returned state is dropped."""
    shapes, blocks = [], []

    def recording(shape, _original=ugks._aligned_empty):
        block = owner = _original(shape)
        while owner.base is not None:
            owner = owner.base
        shapes.append(shape)
        blocks.append(weakref.ref(owner))
        return block
    monkeypatch.setattr(ugks, "_aligned_empty", recording)
    plan, advance = plan_of(kind)
    assert len(shapes) == 1
    built, kernel = dict(vars(plan)), plan._kernel
    del shapes[:], blocks[:]
    state = rough_state()
    for n in (1, 1, 3):
        state = advance(state, plan, n)
    out = (Q16.n + 1, N_CELLS)
    assert shapes == [out, out, (2, *out), out]
    del state
    assert [block() for block in blocks] == [None] * 4
    assert plan._kernel is kernel
    assert vars(plan).keys() == built.keys()
    assert all(vars(plan)[name] is value for name, value in built.items())


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("kind", [*KINDS, "penalized_mc_limited", "penalized_per_cell"])
def test_a_call_of_n_steps_is_n_single_steps(kind, n):
    """One call of n steps gives the bits of n calls of one step, time
    included, and returns one new read-only block that aliases neither
    its input nor any array of the plan; the call adds or replaces no
    attribute of the plan."""
    plan, advance = plan_of(kind)
    if kind == "penalized_per_cell":
        assert np.ndim(plan.source_fold[0]) == 2
    start = rough_state()
    single = start
    for _ in range(n):
        single = advance(single, plan)
    built, kernel = dict(vars(plan)), plan._kernel
    f, rho = apply(plan, start.f, start.rho, n)
    assert plan._kernel is kernel
    assert vars(plan).keys() == built.keys()
    assert all(vars(plan)[name] is value for name, value in built.items())
    assert np.array_equal(f, single.f) and np.array_equal(rho, single.rho)
    for arr in (f, rho):
        assert not arr.flags.writeable
        for other in (start.f, start.rho, *plan_arrays(plan)):
            assert not np.may_share_memory(arr, other)
    stepped = advance(start, plan, n)
    assert_same(stepped, single)
    t = start.t
    for _ in range(n):
        t += plan.dt
    assert stepped.t == t


def test_a_call_takes_at_least_one_step():
    plan, advance = plan_of("first_order")
    state = rough_state()
    for n in (0, -1):
        with pytest.raises(InvalidArgumentError, match="at least one step"):
            apply(plan, state.f, state.rho, n)
        with pytest.raises(InvalidArgumentError, match="at least one step"):
            advance(state, plan, n)


@pytest.mark.parametrize("kind", ["first_order", "penalized"])
def test_a_step_count_must_be_an_integer(kind):
    """A count that is not an integer raises ``InvalidArgumentError``
    naming it, before any step; a numpy integer counts as its value."""
    plan, advance = plan_of(kind)
    state = rough_state()
    for n in (2.0, 2.5, "3", None):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"n={n!r}")):
            apply(plan, state.f, state.rho, n)
        with pytest.raises(InvalidArgumentError, match=re.escape(f"n={n!r}")):
            advance(state, plan, n)
    assert_same(advance(state, plan, np.int64(3)), advance(state, plan, 3))


def test_a_failed_step_is_named_within_its_call():
    """Ten times the CFL step diverges from data near the largest float:
    a call of more steps fails in the step in which single steps fail,
    after the same finite guard, and carries that step's number."""
    mesh, mat, cfg = setup(eps=1.0)
    bc = BoundarySpec.from_functions(0.0, 0.0, Q16)
    plan = StepPlan(10.0 * cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    start = KineticState.from_distribution(np.random.default_rng(7).random((N_CELLS, Q16.n)) * 1e250, Q16)
    state, passed = start, 0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverFailureError) as single:
            for _ in range(1000):
                state = step(state, plan)
                passed += 1
        assert single.value.step == 1 and passed > 2
        with pytest.raises(SolverFailureError, match="^non-finite values after step$") as raised:
            step(start, plan, passed + 4)
    assert raised.value.step == passed + 1


@pytest.mark.parametrize("kind", KINDS)
def test_a_dropped_stepped_plan_is_freed_by_reference_counting(kind):
    """A plan's step, bound when the plan is built, holds no reference back
    to the plan: no cycle keeps a dropped plan alive until the cyclic
    collector runs."""
    plan, advance = plan_of(kind)
    state = advance(advance(rough_state(), plan), plan)
    freed = weakref.ref(plan)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del plan
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
    assert np.all(np.isfinite(state.f))


@pytest.mark.parametrize("kind", KINDS)
def test_stepped_states_are_read_only(kind):
    """A plan's first and second steps both return a state whose f and rho
    cannot be written.  The step builds it without
    ``KineticState.__init__``, so it must hold exactly the fields of a
    state that ``KineticState(...)`` builds."""
    plan, advance = plan_of(kind)
    state = rough_state()
    for _ in range(2):
        state = advance(state, plan)
        assert vars(state) == vars(KineticState(f=state.f, rho=state.rho, t=state.t))
        for arr in (state.f, state.rho):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_a_built_state_checks_its_shapes_and_is_read_only():
    f, rho = np.zeros((N_CELLS, Q16.n)), np.zeros(N_CELLS)
    for bad_f, bad_rho in ((f, rho[:-1]), (f[:-1], rho), (f[0], rho)):
        with pytest.raises(InvalidArgumentError):
            KineticState(f=bad_f, rho=bad_rho, t=0.0)
    state = KineticState(f=f, rho=rho, t=0.0)
    assert not state.f.flags.writeable and not state.rho.flags.writeable


@pytest.mark.parametrize("kind", KINDS)
def test_a_bound_plan_calls_names_patched_after_its_first_step(monkeypatch, kind):
    """The benchmark's tracer and the allocation tests patch module-level
    names; a plan's step looks ``np.empty`` and ``solve_banded`` up when it
    runs, not when the plan binds its kernel.  A penalized plan's step forms its source itself, so it does not call
    ``penalized_source``, patched or not."""
    plan, advance = plan_of(kind)
    state = advance(rough_state(), plan)
    calls = []
    for module, name in ((ugks, "solve_banded"), (penalized, "penalized_source"), (np, "empty")):
        def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    advance(state, plan)
    monkeypatch.undo()
    expected = ["empty"]
    if kind.endswith("ugks_id"):
        expected.append("solve_banded")
    assert sorted(calls) == sorted(expected)


def sized_plan(kind, cells, q=Q16):
    """A plan of ``kind``, first order, MC, ``ugks_id`` or penalized, on
    ``cells`` cells of the rough material with anisotropic inflow sampled
    on ``q``, and ``advance(state, plan, n=1)`` as in :func:`plan_of`."""
    mesh = SpatialMesh(0.0, 1.0, cells)
    mat = sample_material(lambda x: 1.0 + (4.0 * x) ** 2, 0.2, 0.5, mesh)
    cfg = SchemeConfig(eps=0.05, reconstruction="mc_limited" if kind == "mc_limited" else "first_order",
                       diffusion_mode="implicit_slopes" if kind == "ugks_id" else "explicit_slopes")
    bc = BoundarySpec.from_functions(lambda v: v, 0.3, q)
    advance, source = step, None
    if kind == "penalized":
        op = aniso_operator(q)
        mat, source = op.material(sample_material(0.0, 0.0, 0.0, mesh)), op.shifted

        def advance(state, plan, n=1):
            return penalized_step(state, op, plan, n)
    return StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, q, bc, source=source), advance


@pytest.mark.parametrize("kind", ["first_order", "mc_limited", "ugks_id", "penalized"])
def test_state_size_plan_buffers_start_on_a_cache_line(kind):
    """Every (nodes, cells) buffer a 2000-cell plan owns starts on a 64-byte
    boundary, where a numpy store into it is fastest, as soon as the plan
    is built."""
    plan, _ = sized_plan(kind, 2000)
    buffers = [*plan.stencil, plan.scratch]
    if kind == "mc_limited":
        buffers += [plan.up_state, plan.mc_lambda, plan.mc_diag, plan.slope, *plan.mc_work]
    if kind == "penalized":
        buffers += [plan.up_state, plan.scaled_source]
    assert [buf.ctypes.data % 64 for buf in buffers] == [0] * len(buffers)


def address_of(state, buffers):
    """The address at which ``state`` lies, as a step writes it (the
    node-major f, then rho), in one of ``buffers``."""
    values = np.concatenate((state.f.T.ravel(), state.rho))
    for buf in buffers:
        flat = buf.reshape(-1)
        for start in np.flatnonzero(flat == values[0]):
            if np.array_equal(flat[start:start + values.size], values):
                return buf.ctypes.data + start * flat.itemsize
    raise AssertionError("no buffer holds the values")


@pytest.mark.parametrize("allocator", ["numpy", "shifted"])
@pytest.mark.parametrize("nodes, cells", [(16, 25), (16, 200), (6, 25)])
@pytest.mark.parametrize("kind", ["first_order", "mc_limited", "ugks_id", "penalized"])
def test_every_block_a_call_writes_starts_on_a_cache_line(monkeypatch, kind, nodes, cells, allocator):
    """The blocks that a call of 1 and of 3 steps writes start on a 64-byte
    boundary, whatever ``np.empty`` returns: the (nodes + 1, cells) block
    whose f and rho rows the call returns, and the (2, nodes + 1, cells)
    block that the steps before the last write.  "shifted" serves every
    ``np.empty`` 16 bytes past a boundary, as glibc serves each array from
    mmap under ``MALLOC_MMAP_THRESHOLD_=0``.  rho, and the second half of
    the two-half block, start on one only when the rows before them hold a
    multiple of 8 doubles, so on 6 nodes x 25 cells only the block starts
    are checked."""
    q = build_gauss_legendre(nodes)
    plan, advance = sized_plan(kind, cells, q)
    singles = [KineticState.from_distribution(np.random.default_rng(7).random((cells, nodes)), q)]
    for _ in range(2):
        singles.append(advance(singles[-1], plan))
    served, empty = [], np.empty

    def serving(shape, *args, **kwargs):
        if allocator == "shifted":
            size = math.prod(np.atleast_1d(shape))
            buf = empty(size + 8, *args, **kwargs)
            start = (16 - buf.ctypes.data) % 64 // buf.itemsize
            served.append(buf[start:start + size].reshape(shape))
        else:
            served.append(empty(shape, *args, **kwargs))
        return served[-1]
    monkeypatch.setattr(np, "empty", serving)
    one, three = advance(singles[0], plan), advance(singles[0], plan, 3)
    monkeypatch.undo()
    # Step 2 of the three writes the first half of the two-half block,
    # step 1 the second.
    starts = [one.f.ctypes.data, three.f.ctypes.data, address_of(singles[2], served)]
    if nodes * cells % 8 == 0:
        starts += [one.rho.ctypes.data, three.rho.ctypes.data]
    if (nodes + 1) * cells % 8 == 0:
        starts.append(address_of(singles[1], served))
    assert [start % 64 for start in starts] == [0] * len(starts)


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
        StepPlan(dt, cfg, mat, mesh, Q16, BoundarySpec.from_functions(1.0, 1.0, build_gauss_legendre(8)))


def test_plan_rejects_an_inflow_sampled_on_another_rule():
    # DG16 has as many nodes as GL16, so only the rule tells the samples apart
    mesh, mat, cfg = setup()
    dt = cfl_timestep(cfg, mat, mesh)
    for other in (build_gauss_legendre(8), build_double_gauss(16)):
        bc = BoundarySpec.from_functions(lambda v: v, 0.0, other, mode="corrected")
        with pytest.raises(InvalidArgumentError, match="another quadrature"):
            StepPlan(dt, cfg, mat, mesh, Q16, bc)
