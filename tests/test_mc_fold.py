"""The MC slope folded into the upwind state, against the slope-stencil
step that it replaced, which is kept here as the reference."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from ugks1d import ugks
from ugks1d.grid import SpatialMesh, build_double_gauss, build_gauss_legendre, mc_slopes, sample_material
from ugks1d.penalized import PenalizedOperator, ScatteringKernel, penalized_source, penalized_step
from ugks1d.ugks import BoundarySpec, KineticState, SchemeConfig, StepPlan, cfl_timestep, step

from oracles import linear_step, plan_constants, source_terms, upwind_moments


def unfused_mc_step(first, q, state, source=None):
    """Reference: the MC step with the slope kept apart from F.

    ``first`` holds the constants (:func:`oracles.plan_constants`) of the
    plan of the same step without reconstruction and without a source,
    its interface coefficients B among them.  Once the
    slope df is known the step is linear in it, so it is the first-order
    step plus the slope's own terms: the reconstruction shift
    A <|v| df_up>_h dx/2 and the B-term B <v^2 df_up>_h of the macroscopic
    flux, through their own moment product into the density update, and
    the stencil pair of (A |v| dx/2 + B v^2) df_up / dx, times the
    relaxation factor, into f (:func:`oracles.linear_step`).  ``source``
    is (op, eps) for a penalized step, whose source g from
    :func:`penalized_source` adds its own terms the same way
    (:func:`oracles.source_terms`).
    """
    n, h, dx = first.plan.shape[0], first.split, first.plan.dx
    fn = np.ascontiguousarray(state.f.T)
    df = mc_slopes(fn, dx)
    w_half, v = 0.5 * q.weights, q.nodes
    slope_rows = ugks._half_rows(np.array((0.5 * dx * w_half * np.abs(v), w_half * v * v)), h)
    shift_flux, b_flux = upwind_moments(slope_rows, df, ugks._moment_scratch(2, n))
    phi = first.a * shift_flux + first.b * b_flux
    d_rhs = -(phi[1:] - phi[:-1]) / dx
    cols = ugks._signed_cols(np.column_stack((0.5 * np.abs(v), v * v)), h)
    terms = [(ugks._stencil_pair(cols, np.array((first.a * dx, first.b)), first.inv_den_f / dx, 0.0), df)]
    if source is not None:
        op, eps = source
        g = np.ascontiguousarray(penalized_source(state.f, state.rho, op, eps).T)
        d_source, pair = source_terms(first, q, g)
        d_rhs = d_rhs + d_source
        terms.append((pair, g))
    return linear_step(first, state, d_rhs, terms)


def rough_material(mesh):
    """sigma, alpha and G varying in x, so B/A and E/A differ between
    interfaces and every term of the step acts."""
    return sample_material(lambda x: 1.0 + (4.0 * x) ** 2, lambda x: 0.5 * x, lambda x: 1.0 + x, mesh)


def plans(q, cells, eps, mode, diffusion_mode, penalized):
    """(MC plan, the constants of the first-order plan without a source
    (:func:`oracles.plan_constants`), and the source (op, eps) of a
    penalized step or None) of one grid point."""
    mesh = SpatialMesh(0.0, 1.0, cells)
    mat = rough_material(mesh)
    source = shifted = None
    if penalized:
        table = 0.5 + 0.2 * np.outer(q.nodes, q.nodes)
        op = PenalizedOperator.build(ScatteringKernel.from_table(table, q), q)
        mat, shifted = op.material(mat), op.shifted
        source = (op, eps)
    cfg = SchemeConfig(eps=eps, reconstruction="mc_limited", diffusion_mode=diffusion_mode)
    bc = BoundarySpec.from_functions(abs, 0.3, q, mode=mode)
    dt = cfl_timestep(cfg, mat, mesh)
    plan = StepPlan(dt, cfg, mat, mesh, q, bc, source=shifted)
    first_cfg = replace(cfg, reconstruction="first_order")
    first = StepPlan(dt, first_cfg, mat, mesh, q, bc)
    return plan, plan_constants(first, first_cfg, mat, q), source


def advance(plan, state, source):
    if source is None:
        return step(state, plan)
    return penalized_step(state, source[0], plan)


def assert_fold_matches_reference(q, cells, eps, mode, diffusion_mode, penalized, steps=10):
    """Along the folded trajectory from random data, each step matches the
    slope-stencil reference from the same state to 1e-13 relative.
    Returns False, checking nothing further, once the run grows past 10
    times its data."""
    plan, first, source = plans(q, cells, eps, mode, diffusion_mode, penalized)
    rng = np.random.default_rng(q.n * 1000 + cells)
    state = KineticState.from_distribution(rng.uniform(0.0, 1.0, (cells, q.n)), q)
    for _ in range(steps):
        f_ref, rho_ref = unfused_mc_step(first, q, state, source)
        state = advance(plan, state, source)
        scale = max(1.0, float(np.abs(f_ref).max()))
        if scale > 10.0:
            return False
        assert np.abs(state.f - f_ref).max() <= 1e-13 * scale
        assert np.abs(state.rho - rho_ref).max() <= 1e-13 * scale
    return True


@pytest.mark.parametrize("penalized", [False, True], ids=["isotropic", "penalized"])
@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
def test_folded_slope_matches_the_slope_stencil_reference(diffusion_mode, penalized):
    kept = 0
    for build, nodes, cells, eps, mode in itertools.product(
            (build_gauss_legendre, build_double_gauss), (4, 16), (3, 7, 40), (1.0, 0.1, 1e-3),
            ("stabilized", "corrected")):
        kept += assert_fold_matches_reference(build(nodes), cells, eps, mode, diffusion_mode, penalized)
    assert kept >= 64                                # of 72; the rest grow


@pytest.mark.parametrize("diffusion_mode", ["explicit_slopes", "implicit_slopes"])
@pytest.mark.parametrize("cells", [3, 40])
def test_fold_keeps_the_wall_fluxes_bit_identical(diffusion_mode, cells):
    """The slope is zero in the wall cells, so the folded state equals F
    there: the wall interfaces' moments and macroscopic fluxes have the
    bits of the first-order step from the same state."""
    q = build_gauss_legendre(16)
    plan, consts, _ = plans(q, cells, 1e-2, "corrected", diffusion_mode, False)
    first = consts.plan
    f = np.random.default_rng(cells).uniform(0.0, 1.0, (cells, q.n))
    rho = f @ (0.5 * q.weights)
    ugks.apply(plan, f, rho)
    ugks.apply(first, f, rho)
    walls = [0, -1]
    assert np.array_equal(plan.iface[-1][:, walls], first.iface[-1][:, walls])
    assert np.array_equal(plan.phi[walls], first.phi[walls])
    assert not np.array_equal(plan.phi, first.phi)     # the slope acts inside
