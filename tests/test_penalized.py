import itertools
import tracemalloc

import numpy as np
import pytest

from ugks1d.errors import InvalidArgumentError, InvalidKernelError
from ugks1d.experiments import builtin_spec, run
from ugks1d.grid import (SpatialMesh, average, build_double_gauss, build_gauss_legendre,
                         sample_material)
from ugks1d.penalized import (PenalizedOperator, ScatteringKernel, assemble_operator,
                              penalization_theta, penalized_source, penalized_step,
                              pseudo_inverse_v)
from ugks1d.reference import DiffusionPlan, diffusion_step
from ugks1d.ugks import (BoundarySpec, KineticState, SchemeConfig, StepPlan, cfl_timestep,
                         moment_defect, step)

from oracles import homogeneous_stability_margin, linear_step, plan_constants, source_terms
from plans import penalized_plan

Q16 = build_gauss_legendre(16)


def anisotropic_kernel(q=Q16):
    table = 0.5 + 0.2 * np.outer(q.nodes, q.nodes)
    return ScatteringKernel.from_table(table, q)


# ---------------------------------------------------------------- kernel and operator

def test_kernel_validation():
    with pytest.raises(InvalidKernelError):
        ScatteringKernel(table=np.array([[1.0, 0.5], [0.6, 1.0]]))
    with pytest.raises(InvalidKernelError):
        ScatteringKernel(table=np.zeros((2, 2)))
    with pytest.raises(InvalidKernelError):
        ScatteringKernel.isotropic(-1.0, Q16)
    with pytest.raises(InvalidKernelError):
        ScatteringKernel.from_table(np.ones((4, 4)), Q16)


def test_operator_annihilates_constants():
    for kernel in (ScatteringKernel.isotropic(2.0, Q16), anisotropic_kernel()):
        op = assemble_operator(kernel, Q16)
        assert np.abs(op @ np.ones(16)).max() < 1e-12


def test_operator_isotropic_is_relaxation():
    c = 1.7
    op = assemble_operator(ScatteringKernel.isotropic(c, Q16), Q16)
    rng = np.random.default_rng(21)
    f = rng.normal(size=16)
    expected = c * (average(Q16, f) - f)
    assert np.abs(op @ f - expected).max() < 1e-13
    # odd data: L v = -c v
    assert np.abs(op @ Q16.nodes + c * Q16.nodes).max() < 1e-13


def test_operator_conserves_mass():
    op = assemble_operator(anisotropic_kernel(), Q16)
    rng = np.random.default_rng(22)
    for _ in range(10):
        f = rng.normal(size=16)
        assert abs(average(Q16, op @ f)) < 1e-14 * np.abs(f).max()


# ---------------------------------------------------------------- pseudo-inverse and theta

def test_pseudo_inverse_isotropic_closed_form():
    c = 2.5
    op = assemble_operator(ScatteringKernel.isotropic(c, Q16), Q16)
    psi = pseudo_inverse_v(op, Q16)
    assert np.abs(psi + Q16.nodes / c).max() < 1e-13
    assert abs(average(Q16, psi)) < 1e-12


def test_pseudo_inverse_scaling():
    kernel = anisotropic_kernel()
    op = assemble_operator(kernel, Q16)
    psi1 = pseudo_inverse_v(op, Q16)
    psi2 = pseudo_inverse_v(2.0 * op, Q16)
    assert np.abs(psi2 - 0.5 * psi1).max() < 1e-12


def test_penalization_theta_isotropic():
    c = 1.3
    op = assemble_operator(ScatteringKernel.isotropic(c, Q16), Q16)
    assert penalization_theta(op, Q16) == pytest.approx(c, abs=1e-12)


def test_penalization_theta_scaling_and_kappa_identity():
    op = assemble_operator(anisotropic_kernel(), Q16)
    theta = penalization_theta(op, Q16)
    assert theta > 0
    assert penalization_theta(3.0 * op, Q16) == pytest.approx(3.0 * theta, rel=1e-12)
    # diffusion coefficient identity: <v^2>/theta = -<v L^{-1} v>
    psi = pseudo_inverse_v(op, Q16)
    assert Q16.m_v2 / theta == pytest.approx(-average(Q16, Q16.nodes * psi), rel=1e-12)


def test_stability_margin():
    assert homogeneous_stability_margin(1.0, 1.0, 5.0, 0.3) == pytest.approx(0.09)
    k_max, theta, eps = 2.0, 1.5, 0.1
    dt = eps**2 / (k_max - theta)
    assert homogeneous_stability_margin(k_max, theta, dt, eps) == pytest.approx(0.0, abs=1e-15)
    # isotropic kernel c/2 has k_max = c/2 < theta = c: uniformly stable
    c = 1.0
    kernel = ScatteringKernel.isotropic(c, Q16)
    op = PenalizedOperator.build(kernel, Q16)
    assert op.theta > kernel.k_max
    assert homogeneous_stability_margin(kernel.k_max, op.theta, 1e6, 1e-8) > 0


def test_homogeneous_iteration_contracts():
    # space-homogeneous penalized update with nonnegative margin: the
    # deviation from the mean decays monotonically
    kernel = anisotropic_kernel()
    op = PenalizedOperator.build(kernel, Q16)
    k_max = kernel.k_max
    eps = 0.5
    dt = 0.9 * eps**2 / max(k_max - op.theta, 1e-30) if k_max > op.theta else 0.05
    assert homogeneous_stability_margin(k_max, op.theta, dt, eps) >= 0
    rng = np.random.default_rng(31)
    f = rng.uniform(0.0, 2.0, 16)
    prev = None
    for _ in range(100):
        rho = average(Q16, f)
        g = (op.matrix @ f - op.theta * (rho - f)) / eps**2
        f = (f / dt + op.theta / eps**2 * rho + g) / (1.0 / dt + op.theta / eps**2)
        dev = np.sqrt(average(Q16, (f - average(Q16, f)) ** 2))
        if prev is not None:
            assert dev <= prev * (1 + 1e-12)
        prev = dev
    assert prev < 1e-6


# ---------------------------------------------------------------- penalized stepping

def setup_run(n_cells=20, eps=1.0):
    mesh = SpatialMesh(0.0, 1.0, n_cells)
    mat = sample_material(1.0, 0.0, 0.0, mesh)
    bc = BoundarySpec.from_functions(0.0, 1.0, Q16)
    return mesh, mat, bc


def test_penalized_matches_isotropic_trajectory():
    mesh, mat, bc = setup_run()
    cfg = SchemeConfig(eps=1.0)
    op = PenalizedOperator.build(ScatteringKernel.isotropic(1.0, Q16), Q16)
    dt = cfl_timestep(cfg, mat, mesh)
    iso_plan = StepPlan(dt, cfg, mat, mesh, Q16, bc)
    pen_plan = penalized_plan(op, mesh, Q16, bc, cfg, dt)
    s_iso = KineticState.from_distribution(np.zeros((20, 16)), Q16)
    s_pen = s_iso
    for _ in range(50):
        s_iso = step(s_iso, iso_plan)
        s_pen = penalized_step(s_pen, op, pen_plan)
        assert np.abs(s_pen.f - s_iso.f).max() < 1e-12


def test_penalized_isotropic_state_fixed_point():
    mesh = SpatialMesh(0.0, 1.0, 10)
    op = PenalizedOperator.build(anisotropic_kernel(), Q16)
    bc = BoundarySpec.from_functions(0.7, 0.7, Q16)
    state = KineticState.from_distribution(np.full((10, 16), 0.7), Q16)
    plan = penalized_plan(op, mesh, Q16, bc, SchemeConfig(eps=0.5))
    for _ in range(20):
        state = penalized_step(state, op, plan)
    assert np.abs(state.f - 0.7).max() < 1e-12


def assert_step_allocates_only_its_output(advance, n, monkeypatch):
    """After one warm-up step, tracemalloc's peak over one ``advance`` of
    a (n, 16) state is its (nodes + 1, cells) output block plus at most
    4 KB of small objects.  The block is the
    step's one ``np.empty``, and its size would hide a state-size buffer
    freed before it, so the peak up to that call is held to 4 KB too."""
    state = KineticState.from_distribution(np.linspace(0.0, 1.0, 16 * n).reshape(n, 16), Q16)
    state = advance(state)
    empty, before_output = np.empty, []

    def traced_empty(*args, **kwargs):
        before_output.append(tracemalloc.get_traced_memory()[1])
        return empty(*args, **kwargs)

    monkeypatch.setattr(np, "empty", traced_empty)
    tracemalloc.start()
    try:
        advance(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    output = (16 + 1) * n * 8
    assert len(before_output) == 1 and before_output[0] <= 4096
    assert output <= peak <= output + 4096


def test_penalized_step_allocates_only_its_output(monkeypatch):
    """A penalized step at 200 cells allocates only its output: the source
    and F - rho live in the plan's ``scaled_source`` and ``scratch``."""
    n, eps = 200, 1e-2
    mesh = SpatialMesh(0.0, 1.0, n)
    op = PenalizedOperator.build(anisotropic_kernel(), Q16)
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    cfg = SchemeConfig(eps=eps)
    mat = op.material(sample_material(0.0, 0.0, 0.0, mesh))
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc, source=op.shifted)
    assert_step_allocates_only_its_output(
        lambda s: penalized_step(s, op, plan), n, monkeypatch)


def test_penalized_step_with_varying_lambda_allocates_only_its_output(monkeypatch):
    """alpha(x) makes lambda a (nodes, cells) array, which multiplies the
    source in place after the product."""
    n, eps = 200, 1e-2
    mesh = SpatialMesh(0.0, 1.0, n)
    op = PenalizedOperator.build(anisotropic_kernel(), Q16)
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    cfg = SchemeConfig(eps=eps)
    mat = op.material(sample_material(0.0, lambda x: 40.0 * x * x, 0.0, mesh))
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc, source=op.shifted)
    assert np.ndim(plan.source_fold[0]) == 2
    assert_step_allocates_only_its_output(
        lambda s: penalized_step(s, op, plan), n, monkeypatch)


@pytest.mark.parametrize("reconstruction, diffusion_mode", [
    ("first_order", "explicit_slopes"), ("mc_limited", "explicit_slopes"),
    ("first_order", "implicit_slopes")])
def test_step_allocates_only_its_output(reconstruction, diffusion_mode, monkeypatch):
    """The first-order, MC and ugks_id steps at 200 cells allocate only
    their output: the stencil's flat views and the finite guard's ones
    vector come with the plan, not with each step."""
    n = 200
    mesh = SpatialMesh(0.0, 1.0, n)
    mat = sample_material(lambda x: 1.0 + x, lambda x: 0.5 * x, lambda x: 0.0 * x, mesh)
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    cfg = SchemeConfig(eps=1e-2, reconstruction=reconstruction, diffusion_mode=diffusion_mode)
    plan = StepPlan(cfl_timestep(cfg, mat, mesh), cfg, mat, mesh, Q16, bc)
    assert_step_allocates_only_its_output(
        lambda s: step(s, plan), n, monkeypatch)


def test_penalized_source_zero_mean():
    op = PenalizedOperator.build(anisotropic_kernel(), Q16)
    rng = np.random.default_rng(41)
    f = rng.uniform(0.0, 1.0, size=(12, 16))
    rho = f @ (0.5 * Q16.weights)
    g = penalized_source(f, rho, op, eps=1.0)
    means = g @ (0.5 * Q16.weights)
    assert np.abs(means).max() < 1e-12 * max(1.0, np.abs(g).max())


@pytest.mark.parametrize("q", [build_gauss_legendre(4), Q16, build_double_gauss(16)],
                         ids=["GL4", "GL16", "DG16"])
@pytest.mark.parametrize("kernel", ["isotropic", "anisotropic"])
def test_penalized_source_is_zero_at_equilibrium(q, kernel):
    """On F = rho 1^T the source is exactly 0 at eps = 1e-8: it is taken
    on F - rho, so the rounding of M's row sums (about 1e-16) is never
    scaled by rho/eps^2."""
    k = ScatteringKernel.isotropic(1.0, q) if kernel == "isotropic" else anisotropic_kernel(q)
    op = PenalizedOperator.build(k, q)
    rho = np.random.default_rng(q.n).uniform(0.5, 2.0, 30)
    f = np.repeat(rho[:, None], q.n, axis=1)
    for lam in (1.0, 0.37, np.full((q.n, 30), 0.37)):
        assert not np.any(penalized_source(f, rho, op, 1e-8, lam))


def long_double_source(f, rho, kernel, q, theta, eps, lam):
    """(lam/eps^2)(M + theta I)(F - rho) in long double, M assembled from
    the kernel table apart from ``assemble_operator``."""
    ld = np.longdouble
    m = kernel.table.astype(ld) * q.weights.astype(ld)[None, :]
    m[np.diag_indices(q.n)] += ld(theta) - m.sum(axis=1)
    d = f.T.astype(ld) - rho.astype(ld)[None, :]
    return (np.asarray(lam, dtype=ld) / ld(eps) ** 2 * (m @ d)).T


@pytest.mark.parametrize("eps", [1.0, 1e-8])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("lam_kind", ["scalar", "array"])
@pytest.mark.parametrize("buffers", [False, True])
def test_penalized_source_matches_long_double(eps, order, lam_kind, buffers):
    q = Q16
    kernel = anisotropic_kernel(q)
    op = PenalizedOperator.build(kernel, q)
    rng = np.random.default_rng(61)
    n = 23
    for _ in range(5):
        f = np.asarray(rng.uniform(0.0, 1.0, (n, q.n)), order=order)
        rho = f @ (0.5 * q.weights)
        lam = 0.73 if lam_kind == "scalar" else rng.uniform(0.1, 1.0, (q.n, n))
        out = work = None
        if buffers:
            out, work = np.empty((q.n, n)), np.empty((q.n, n))
        g = penalized_source(f, rho, op, eps, lam, out=out, work=work)
        if buffers:
            assert g.base is out
        ref = long_double_source(f, rho, kernel, q, op.theta, eps, lam)
        assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()


def test_penalized_moment_consistency():
    mesh, mat, bc = setup_run()
    op = PenalizedOperator.build(anisotropic_kernel(), Q16)
    rng = np.random.default_rng(51)
    state = KineticState.from_distribution(rng.uniform(0.0, 1.0, size=(20, 16)), Q16)
    plan = penalized_plan(op, mesh, Q16, bc, SchemeConfig(eps=0.7))
    for _ in range(5):
        state = penalized_step(state, op, plan)
        assert moment_defect(state, Q16) < 1e-12


def test_penalized_diffusion_limit_macro_update():
    # eps -> 0 with an anisotropic kernel: one macro update matches the
    # 3-point diffusion scheme with kappa = <v^2>_h / theta
    n, eps = 25, 1e-8
    mesh = SpatialMesh(0.0, 1.0, n)
    op = PenalizedOperator.build(anisotropic_kernel(), Q16)
    bc = BoundarySpec.from_functions(1.0, 0.0, Q16)
    rho0 = 0.5 * (1.0 + np.cos(np.pi * mesh.centers))
    state = KineticState.from_distribution(np.repeat(rho0[:, None], 16, axis=1), Q16)
    dt = 0.9 * max(eps * mesh.dx, 1.5 * mesh.dx**2 * op.theta)
    out = penalized_step(state, op, penalized_plan(op, mesh, Q16, bc, SchemeConfig(eps=eps), dt))
    kappa = np.full(n + 1, Q16.m_v2 / op.theta)
    ref = diffusion_step(rho0, DiffusionPlan(dt, kappa, 0.0, 0.0, mesh.dx, "explicit", (1.0, 0.0)))
    assert np.abs(out.rho - ref).max() < 1e-6 * np.abs(ref).max()


# ---------------------------------------------------------------- the folded source

def unfused_penalized_step(plain, q, state, op, eps):
    """Reference: the penalized step with the source kept apart from F.

    The step is linear, so it is the step of the penalized plan's twin
    built without the source, whose constants ``plain`` holds
    (:func:`oracles.plan_constants`), plus the source's own terms
    (:func:`oracles.source_terms`), with g from :func:`penalized_source`.
    """
    g = np.ascontiguousarray(penalized_source(state.f, state.rho, op, eps).T)
    d_rhs, pair = source_terms(plain, q, g)
    return linear_step(plain, state, d_rhs, [(pair, g)])


def sourced_and_plain(cfg, mat, mesh, q, bc, op):
    """The penalized plan of ``op`` on ``mat`` at the CFL policy's dt, and
    its twin built without the source."""
    dt = cfl_timestep(cfg, mat, mesh)
    return (StepPlan(dt, cfg, mat, mesh, q, bc, source=op.shifted),
            StepPlan(dt, cfg, mat, mesh, q, bc))


def assert_fold_matches_reference(plans, q, op, cfg, mat, steps=10):
    """Along the folded trajectory from random data, each step of the
    penalized plan of ``plans`` (:func:`sourced_and_plain` of ``cfg`` and
    ``mat``) matches the unfused reference from the same state to 1e-13
    relative.  Returns False, checking nothing further, once the run grows
    past 10 times its data."""
    plan, plain = plans[0], plan_constants(plans[1], cfg, mat, q)
    eps = cfg.eps
    rng = np.random.default_rng(q.n * 1000 + mat.n_cells)
    state = KineticState.from_distribution(rng.uniform(0.0, 1.0, (mat.n_cells, q.n)), q)
    for _ in range(steps):
        f_ref, rho_ref = unfused_penalized_step(plain, q, state, op, eps)
        state = penalized_step(state, op, plan)
        scale = max(1.0, float(np.abs(f_ref).max()))
        if scale > 10.0:
            return False
        assert np.abs(state.f - f_ref).max() <= 1e-13 * scale
        assert np.abs(state.rho - rho_ref).max() <= 1e-13 * scale
    return True


@pytest.mark.parametrize("reconstruction", ["first_order", "mc_limited"])
@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_folded_source_matches_the_unfused_reference(diffusion_mode, reconstruction):
    kept = 0
    for build, nodes, cells, eps, mode in itertools.product(
            (build_gauss_legendre, build_double_gauss), (4, 16), (3, 7, 40), (1.0, 0.1, 1e-3),
            ("stabilized", "corrected")):
        q = build(nodes)
        op = PenalizedOperator.build(anisotropic_kernel(q), q)
        mesh = SpatialMesh(0.0, 1.0, cells)
        mat = op.material(sample_material(0.0, 0.0, 0.0, mesh))
        cfg = SchemeConfig(eps=eps, reconstruction=reconstruction, diffusion_mode=diffusion_mode)
        bc = BoundarySpec.from_functions(abs, 0.3, q, mode=mode)
        plans = sourced_and_plain(cfg, mat, mesh, q, bc, op)
        assert np.ndim(plans[0].source_fold[0]) == 0     # uniform material: scalar lambda
        kept += assert_fold_matches_reference(plans, q, op, cfg, mat)
    assert kept >= 60                                # of 72; the rest grow


@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_folded_source_with_absorption_varying_in_x(diffusion_mode):
    """alpha(x) makes E/A differ between interfaces, so each velocity half
    of a cell takes the lambda of its own outflow interface."""
    eps, q = 0.1, Q16
    op = PenalizedOperator.build(anisotropic_kernel(q), q)
    mesh = SpatialMesh(0.0, 1.0, 12)
    mat = op.material(sample_material(1.0, lambda x: 40.0 * x * x, lambda x: 1.0 + x, mesh))
    cfg = SchemeConfig(eps=eps, reconstruction="mc_limited", diffusion_mode=diffusion_mode)
    bc = BoundarySpec.from_functions(abs, 0.3, q, mode="corrected")
    plans = sourced_and_plain(cfg, mat, mesh, q, bc, op)
    lam, kappa = plans[0].source_fold
    assert lam.shape == kappa.shape == (q.n, mesh.n_cells)
    assert not np.array_equal(lam[q.split:], lam[:q.split])
    assert assert_fold_matches_reference(plans, q, op, cfg, mat)


def test_source_fold_is_built_only_by_a_sourced_plan():
    """A plan without a source has no fold; a plan with one has it as soon
    as it is built, and its steps keep that fold."""
    mesh, _, bc = setup_run()
    op = PenalizedOperator.build(anisotropic_kernel(), Q16)
    mat = op.material(sample_material(0.0, 0.0, 0.0, mesh))
    cfg = SchemeConfig(eps=0.5)
    plan, plain = sourced_and_plain(cfg, mat, mesh, Q16, bc, op)
    assert "source_fold" not in vars(plain)
    fold = vars(plan)["source_fold"]
    state = KineticState.from_distribution(np.zeros((20, 16)), Q16)
    step(state, plain)
    penalized_step(state, op, plan)
    assert "source_fold" not in vars(plain)
    assert plan.source_fold is fold


def test_penalized_step_rejects_a_plan_without_its_source():
    """A plan built without ``source=op.shifted``, plain or of another
    operator, would take another step: the penalized step refuses it."""
    mesh, _, bc = setup_run()
    op = PenalizedOperator.build(anisotropic_kernel(), Q16)
    other = PenalizedOperator.build(anisotropic_kernel(), Q16)
    mat = op.material(sample_material(0.0, 0.0, 0.0, mesh))
    cfg = SchemeConfig(eps=0.5)
    plan, plain = sourced_and_plain(cfg, mat, mesh, Q16, bc, op)
    state = KineticState.from_distribution(np.full((20, 16), 0.5), Q16)
    for wrong in (plain, sourced_and_plain(cfg, mat, mesh, Q16, bc, other)[0]):
        with pytest.raises(InvalidArgumentError, match="source=op.shifted"):
            penalized_step(state, op, wrong)
    penalized_step(state, other, sourced_and_plain(cfg, mat, mesh, Q16, bc, other)[0])
    penalized_step(state, op, plan)


def test_plan_rejects_a_source_of_another_size():
    mesh, _, bc = setup_run()
    op = PenalizedOperator.build(ScatteringKernel.isotropic(1.0, build_gauss_legendre(8)), build_gauss_legendre(8))
    mat = sample_material(1.0, 0.0, 0.0, mesh)
    with pytest.raises(InvalidArgumentError, match="source"):
        StepPlan(0.01, SchemeConfig(eps=0.5), mat, mesh, Q16, bc, source=op.shifted)


def test_penalized_run_keeps_the_spec_source_and_absorption():
    """An isotropic kernel c = 1 is relaxation on sigma = 1, so a penalized
    ex3 (G = 1) with sigma = 1 is the plain ugks run, absorption included."""
    for alpha in (0.0, 0.5):
        plain = run(builtin_spec("ex3", sigma=1.0, alpha=alpha))
        pen = run(builtin_spec("ex3", sigma=1.0, alpha=alpha, collision="penalized",
                               kernel_constant=1.0))
        assert pen.n_steps == plain.n_steps
        assert np.max(plain.rho[-1]) > 0.1
        assert np.abs(pen.rho[-1] - plain.rho[-1]).max() <= 1e-13 * np.abs(plain.rho[-1]).max()
