"""Closed-form oracles that only the tests use."""

from types import SimpleNamespace

import numpy as np

from ugks1d import ugks
from ugks1d.coeffs import coefficient_arrays
from ugks1d.errors import InvalidArgumentError
from ugks1d.grid import mc_limiter


def dirichlet_series_profile(x: np.ndarray, t: float, kappa: float,
                             rho_l: float, rho_r: float, n_terms: int = 400) -> np.ndarray:
    """Analytic solution of rho_t = kappa rho_xx on [0,1] from rho(x,0)=0 with
    constant Dirichlet data, via the sine series; used as an oracle for the
    discrete references."""
    steady = rho_l + (rho_r - rho_l) * x
    out = steady.copy()
    for k in range(1, n_terms + 1):
        bk = 2.0 * (rho_l - rho_r * (-1.0) ** k) / (k * np.pi)
        term = bk * np.sin(k * np.pi * x) * np.exp(-kappa * (k * np.pi) ** 2 * t)
        out -= term
        if np.max(np.abs(term)) < 1e-17:
            break
    return out


def mc_slopes(f: np.ndarray, dx: float) -> np.ndarray:
    """MC-limited slope of ``f`` along its last axis (the cell axis of a
    node-major state): :func:`grid.mc_limiter` once, on ``f`` made contiguous."""
    x = np.ascontiguousarray(f)
    return mc_limiter(dx, np.empty(x.shape), np.empty((3, x.size - 1)))(x)


def homogeneous_stability_margin(k_max: float, theta: float, dt: float, eps: float) -> float:
    """eps^2 - dt (k_max - theta); nonnegative iff the space-homogeneous
    penalized iteration is absolutely stable.  For theta >= k_max the margin
    is positive for every dt, i.e. stability is uniform in eps."""
    if not (k_max > 0 and theta > 0 and dt > 0 and eps > 0):
        raise InvalidArgumentError("all inputs must be positive")
    return eps**2 - dt * (k_max - theta)


def upwind_moments(half_rows: np.ndarray, x: np.ndarray, scratch) -> np.ndarray:
    """Per interface, moments of the node-major ``x`` at its upwind cell:
    the v > 0 half of interface j comes from cell j-1, the v < 0 half from
    cell j, and the inflow half of each wall interface is zero.
    ``half_rows`` comes from ``ugks._half_rows`` and ``scratch`` from
    ``ugks._moment_scratch``, the layout of a plan's step; returns the
    (m, cells + 1) result."""
    per_cell, pos, neg, out, result = scratch
    np.matmul(half_rows, x, per_cell)
    np.add(pos, neg, out)
    return result


def add_stencil(out: np.ndarray, stencil, x: np.ndarray, split: int) -> None:
    """out += S_d x, plus S_o x moved one cell downwind: right in the v > 0
    rows, left in the v < 0 rows, the first ``split``.  The move is a
    shifted add on each half's flattened rows of the C-contiguous ``out``;
    S_o is zero in the column that would wrap into the next row."""
    s_d, s_o = stencil
    cut = split * x.shape[1]
    out += s_d * x
    moved = (s_o * x).reshape(-1)
    o = out.reshape(-1)
    o[cut + 1:] += moved[cut:-1]
    o[:cut - 1] += moved[1:cut]


def plan_constants(plan, cfg, mat, q):
    """The constants of a step of ``plan``, built for ``cfg`` on ``mat``
    and ``q``, that its kernel folds in and the plan does not keep, by the
    operations that build the plan on the same floats: the interface
    coefficients ``a``, ``b`` and ``e``, ``inv_den_rho`` = 1/(1/dt + alpha),
    ``relax`` = sigma/eps^2, ``inv_den_f`` = 1/(1/dt + relax + alpha),
    ``implicit`` and the quadrature's ``split``, with ``plan`` itself."""
    a, b, _, _, e, _ = coefficient_arrays(plan.dt, cfg.eps, mat.sigma_iface, mat.alpha_iface)
    inv_dt = 1.0 / plan.dt
    relax = mat.sigma_cell / cfg.eps**2
    return SimpleNamespace(plan=plan, a=a, b=b, e=e, inv_den_rho=1.0 / (inv_dt + mat.alpha_cell), relax=relax,
                           inv_den_f=1.0 / (inv_dt + relax + mat.alpha_cell),
                           implicit=cfg.diffusion_mode == "implicit_slopes", split=q.split)


def source_terms(consts, q, g):
    """The terms that a per-node source g with zero velocity mean adds to a
    step of the source-free plan of ``consts`` (:func:`plan_constants`):
    the change of the density update's right-hand side by its upwind flux
    E <v g_up>_h, and the stencil pair of E v g_up / dx and the cell-local
    g, both times the relaxation factor.  ``g`` is node-major; returns
    (d_rhs, pair)."""
    plan = consts.plan
    flux_rows = plan.moments[0::2].copy()
    flux = consts.e * upwind_moments(flux_rows, g, ugks._moment_scratch(1, plan.shape[0]))[0]
    pair = ugks._stencil_pair(ugks._node_tables(q).upwind_cols, consts.e[None, :],
                              consts.inv_den_f / plan.dx, consts.inv_den_f)
    return -(flux[1:] - flux[:-1]) / plan.dx, pair


def linear_step(consts, state, d_rhs, terms):
    """The step of the plan of ``consts`` (:func:`plan_constants`) from
    ``state`` plus terms linear in a known per-node array x: ``d_rhs``
    joins the density update's right-hand side and each (stencil pair, x)
    of ``terms`` joins f (:func:`add_stencil`).  Under ``implicit_slopes``
    the time-n density enters only the right-hand side of the density
    solve, so ``d_rhs`` goes in as a change of that density; under
    ``explicit_slopes`` the new density reaches f only through
    sigma/eps^2 rho^{n+1}.  Returns (f, rho)."""
    plan = consts.plan
    if consts.implicit:
        f0, rho_new = ugks.apply(plan, state.f, state.rho + plan.dt * d_rhs)
        f_new = f0.T.copy()
    else:
        f0, rho0 = ugks.apply(plan, state.f, state.rho)
        d_rho = d_rhs * consts.inv_den_rho
        rho_new = rho0 + d_rho
        f_new = f0.T + consts.relax * d_rho * consts.inv_den_f
    for pair, x in terms:
        add_stencil(f_new, pair, x, consts.split)
    return f_new.T, rho_new
