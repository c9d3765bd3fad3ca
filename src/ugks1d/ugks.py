"""UGKS time stepper for the scaled linear transport equation.

One step advances the cell-averaged distribution f[i][k] and its density
rho[i] through interface fluxes built from the exact characteristic integral
of the relaxation equation:

    phi_{i+1/2}(v) = A v f_up + C v rho_{i+1/2} + D v^2 (dL 1_{v>0} + dR 1_{v<0})
                     + E v G  [+ B v^2 (df_i 1_{v>0} + df_{i+1} 1_{v<0})]

The density update uses the velocity average of phi, in which the interface
density and source terms drop by quadrature symmetry; eliminating f^{n+1}
through that average is what makes the implicit relaxation solvable cell by
cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .coeffs import blend_parameter, coefficient_arrays
from .errors import InvalidArgumentError, InvalidDataError, SolverFailureError
from .grid import (WEIGHT_VARIANTS, MaterialField, SpatialMesh, VelocityQuadrature, average,
                   mc_slopes, weight_samples)

__all__ = [
    "KineticState",
    "BoundarySpec",
    "SchemeConfig",
    "cfl_timestep",
    "StepPlan",
    "apply",
    "step",
    "moment_defect",
]

BC_MODES = ("stabilized", "corrected", "blended")


@dataclass(frozen=True)
class KineticState:
    """Cell-averaged distribution f[i][k], its density rho[i], and the time."""

    f: np.ndarray
    rho: np.ndarray
    t: float

    def __post_init__(self) -> None:
        if self.f.ndim != 2 or self.rho.shape != (self.f.shape[0],):
            raise InvalidArgumentError("f must be (n_cells, n_nodes) with matching rho")
        self.f.setflags(write=False)
        self.rho.setflags(write=False)

    @classmethod
    def from_distribution(cls, f: np.ndarray, q: VelocityQuadrature, t: float = 0.0) -> "KineticState":
        f = np.array(f, dtype=float)
        return cls(f=f, rho=np.asarray(average(q, f)), t=t)


@dataclass(frozen=True)
class BoundarySpec:
    """Inflow data at quadrature nodes plus the boundary-condition mode.

    f_left is used for v > 0, f_right for v < 0.  ``mode`` selects between the
    stabilized, corrected, and blended boundary densities; ``weight_variant``
    picks the half-range weight used by the corrected/blended modes.
    """

    f_left: np.ndarray
    f_right: np.ndarray
    mode: str = "stabilized"
    weight_variant: str = "polynomial"

    def __post_init__(self) -> None:
        if self.mode not in BC_MODES:
            raise InvalidArgumentError(f"unknown boundary mode {self.mode!r}")
        if self.weight_variant not in WEIGHT_VARIANTS:
            raise InvalidArgumentError(f"unknown weight variant {self.weight_variant!r}")
        self.f_left.setflags(write=False)
        self.f_right.setflags(write=False)

    @classmethod
    def from_functions(cls, f_left, f_right, q: VelocityQuadrature,
                       mode: str = "stabilized", weight_variant: str = "polynomial") -> "BoundarySpec":
        v = q.nodes
        fl = np.array([float(f_left(vk)) for vk in v]) if callable(f_left) else np.full(q.n, float(f_left))
        fr = np.array([float(f_right(vk)) for vk in v]) if callable(f_right) else np.full(q.n, float(f_right))
        pos = q.positive
        if np.any(fl[pos] < 0) or np.any(fr[~pos] < 0):
            raise InvalidDataError("inflow samples must be nonnegative on their incoming half-range")
        return cls(f_left=fl, f_right=fr, mode=mode, weight_variant=weight_variant)


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection: scaling parameter, CFL policy, reconstruction order,
    diffusion (slope) time level, and collision model."""

    eps: float
    cfl: float = 0.9
    reconstruction: str = "first_order"
    theta_lim: float = 1.5
    diffusion_mode: str = "explicit_slopes"
    collision: str = "isotropic"
    cfl_form: str = "max"

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise InvalidArgumentError("eps must be positive")
        if not 0 < self.cfl <= 1:
            raise InvalidArgumentError("cfl must lie in (0, 1]")
        if self.reconstruction not in ("first_order", "mc_limited"):
            raise InvalidArgumentError(f"unknown reconstruction {self.reconstruction!r}")
        if self.reconstruction == "mc_limited" and not 1.0 <= self.theta_lim <= 2.0:
            raise InvalidArgumentError("theta_lim must lie in [1, 2]")
        if self.diffusion_mode not in ("explicit_slopes", "implicit_slopes"):
            raise InvalidArgumentError(f"unknown diffusion mode {self.diffusion_mode!r}")
        if self.cfl_form not in ("max", "sum"):
            raise InvalidArgumentError(f"unknown cfl form {self.cfl_form!r}")


def _wall_densities(q: VelocityQuadrature, bc: BoundarySpec, nu_left: float, nu_right: float,
                    dt: float):
    """Boundary densities and inflow terms at both walls.

    Returns ((rho_l, inflow_l), (rho_r, inflow_r)): rho_{1/2} and
    rho_{N+1/2}, and the inflow parts of the two macroscopic boundary fluxes
    times eps.  The right wall is the left wall under v -> -v: its incoming
    nodes are the negative half and its outgoing moment <v 1_{v>0}>_h.  The
    corrected density uses the half-range weight W(|v|), normalized so that
    ``sum_{v>0} w_k W(v_k) = 1`` under this quadrature; the normalization
    makes it map isotropic inflow to itself exactly.
    """
    h = q.split
    wv = 0.5 * q.weights * q.nodes
    if bc.mode != "stabilized":
        w_norm = weight_samples(bc.weight_variant, np.abs(q.nodes))
        w_norm = w_norm / float(np.sum(q.weights[h:] * w_norm[h:]))

    def wall(f_in, inc, m_out, nu):
        stab_inflow = float(f_in[inc] @ wv[inc])
        rho_stab = -stab_inflow / m_out
        if bc.mode == "stabilized":
            return rho_stab, stab_inflow
        rho_corr = float(np.sum(q.weights[inc] * w_norm[inc] * f_in[inc]))  # = 2<W f 1_inc>_h
        corr_inflow = -m_out * rho_corr
        if bc.mode == "corrected":
            return rho_corr, corr_inflow
        theta = blend_parameter(nu, dt)
        return ((1.0 - theta) * rho_stab + theta * rho_corr,
                (1.0 - theta) * stab_inflow + theta * corr_inflow)

    return (wall(bc.f_left, slice(h, None), q.m_v_neg, nu_left),
            wall(bc.f_right, slice(0, h), q.m_v_pos, nu_right))


def cfl_timestep(cfg: SchemeConfig, mat: MaterialField, mesh: SpatialMesh) -> float:
    """Time-step policy.

    Explicit slopes: dt = cfl * max(eps dx, (3/2) dx^2 sigma_min), optionally
    the sum form cfl * (eps dx + (3/2) dx^2 sigma_min).  Implicit slopes:
    dt = max(0.9 eps dx, cfl dx).
    """
    dx = mesh.dx
    if cfg.diffusion_mode == "implicit_slopes":
        return max(0.9 * cfg.eps * dx, cfg.cfl * dx)
    sigma_min = float(np.min(mat.sigma_cell))
    transport = cfg.eps * dx
    diffusive = 1.5 * dx * dx * sigma_min
    if cfg.cfl_form == "sum":
        return cfg.cfl * (transport + diffusive)
    return cfg.cfl * max(transport, diffusive)


class StepPlan:
    """Everything in one step of size dt that does not depend on the state.

    The update is linear, so for a fixed dt the interface coefficients, the
    boundary densities with their inflow fluxes, the reciprocals of dt and of
    both relaxation denominators, and the implicit bands with their LU
    factors are constants.  A plan computes them once, in O(cells) work;
    build one per distinct dt and advance with :func:`apply`.  ``coeffs``
    takes the ``coefficient_arrays`` tuple when the caller has already
    evaluated it.  For ``implicit_slopes``, ``bands`` is (lower, diag,
    upper) and ``lu`` its ``dgttrf`` factors, so a step only substitutes
    through them (:func:`solve_banded`); a singular system raises
    ``SolverFailureError`` here.  :func:`apply` multiplies by the stored
    reciprocals and divides no state-size array itself; the MC limiter and
    the penalized source keep their divisions, and so their bits.

    The step works node-major, on ``F = f.T`` of shape (nodes, cells) and on
    interface arrays of shape (nodes, cells + 1).  The quadrature's ascending
    nodes make v < 0 and v > 0 the contiguous row blocks ``F[:split]`` and
    ``F[split:]``, so the upwind selection is two block copies.  Of the
    plan's three interface arrays, ``av`` is the constant A v / dx; ``up``
    and ``phi`` are scratch that every :func:`apply` overwrites, so a plan
    must not be applied from two threads at once.  Nothing a step returns
    aliases them: the plan owns its scratch, the caller owns each result.
    """

    def __init__(self, dt: float, cfg: SchemeConfig, mat: MaterialField, mesh: SpatialMesh,
                 q: VelocityQuadrature, bc: BoundarySpec, coeffs=None):
        if not dt > 0:
            raise InvalidArgumentError(f"dt must be positive, got {dt}")
        n, k, h = mesh.n_cells, q.n, q.split
        if mat.n_cells != n or bc.f_left.shape != (k,) or bc.f_right.shape != (k,):
            raise InvalidArgumentError("material, mesh, quadrature and inflow sizes disagree")
        if coeffs is None:
            coeffs = coefficient_arrays(dt, cfg.eps, mat.sigma_iface, mat.alpha_iface)
        a, b, c, d, e, nu = coeffs
        eps, dx = cfg.eps, mesh.dx
        v = q.nodes
        v2 = v * v
        mpp, mnn = q.m_v2_pos, q.m_v2_neg
        self.dt, self.dx = dt, dx
        self.shape, self.split = (n, k), h
        self.implicit = cfg.diffusion_mode == "implicit_slopes"
        self.second_order = cfg.reconstruction == "mc_limited"
        self.theta_lim = cfg.theta_lim
        self.mpp, self.mnn = mpp, mnn
        w_half = 0.5 * q.weights
        self.wv = w_half * v
        self.a, self.c, self.d, self.e = a, c, d, e
        # Row 0 gives the interface density, row 1 the upwind part <v f_up>_h
        # of the macroscopic flux, from one product with the upwind values.
        self.moments = np.array((w_half, self.wv))
        # The per-node flux phi is kept divided by dx.  Its scalar and slope
        # terms are the columns (v, v^2 1_{v>0}, v^2 1_{v<0}) / dx times the
        # rows (C rho_if + E G, D dL, D dR).
        scale = 1.0 / dx
        self.node_rows = np.zeros((k, 3))
        self.node_rows[:, 0] = v
        self.node_rows[h:, 1] = v2[h:]
        self.node_rows[:h, 2] = v2[:h]
        self.node_rows *= scale
        self.v_col = self.node_rows[:, :1]
        self.av = self.v_col * a
        g_if = mat.g_iface
        self.eg = e * g_if if g_if.any() else None
        if self.second_order:
            shift = np.where(q.positive, 0.5 * dx, -0.5 * dx)
            self.b = b
            self.shift_col = shift[:, None]
            # B v^2 df_up / dx from the shifted slope, shift times df_up.
            self.slope_col = (v2 * scale / shift)[:, None]
            self.slope_moments = np.array((self.wv * shift, w_half * v2))

        (rho_l, inflow_l), (rho_r, inflow_r) = _wall_densities(q, bc, float(nu[0]), float(nu[-1]), dt)
        self.rho_half = (rho_l, rho_r)
        # Terms of the wall macroscopic fluxes after the upwind one, added in
        # this order (inflow, C, E): they cancel to O(1) from O(1/eps), so the
        # order fixes the bits.
        self.wall_terms = (
            (0, inflow_l / eps, c[0] * q.m_v_neg * rho_l, e[0] * q.m_v_neg * float(g_if[0])),
            (-1, inflow_r / eps, c[-1] * q.m_v_pos * rho_r, e[-1] * q.m_v_pos * float(g_if[-1])),
        )
        self.wall_slope = (d[0] * mnn, d[-1] * mpp)
        self.inflow_left = v[h:] / eps * bc.f_left[h:] * scale
        self.inflow_right = v[:h] / eps * bc.f_right[:h] * scale
        self.up = np.zeros((k, n + 1))
        self.phi = np.empty((k, n + 1))
        self.rows = np.zeros((3, n + 1))   # entries [1, 0] and [2, -1] stay zero

        self.g_cell = mat.g_cell if mat.g_cell.any() else None
        self.inv_dt = 1.0 / dt
        self.inv_den_rho = 1.0 / (self.inv_dt + mat.alpha_cell)
        self.relax = mat.sigma_cell / eps**2
        self.inv_den_f = 1.0 / (self.inv_dt + self.relax + mat.alpha_cell)
        if self.implicit:
            self.bands = _implicit_bands(d, mpp, mnn, dx, dt, mat.alpha_cell)
            lower, diag, upper = self.bands
            *self.lu, info = dgttrf(lower[1:], diag, upper[:-1])
            if info != 0:
                raise SolverFailureError(f"implicit density matrix is singular (dgttrf info={info})")
            # Explicit (time-n) part of each interface D-flux: the interface density.
            self.expl_coef = (2.0 * d[1:-1] / dx) * (mpp - mnn)
            self.expl_walls = (-(2.0 * d[0] / dx) * mnn * rho_l, (2.0 * d[-1] / dx) * mpp * rho_r)


def _upwind_rows(x: np.ndarray, split: int, out: np.ndarray) -> np.ndarray:
    """Per interface, the node-major values of the upwind cell: the v > 0
    rows of interface j come from cell j-1 and the v < 0 rows from cell j.
    The inflow half of each wall interface is zero."""
    out[split:, 1:] = x[split:]
    out[:split, :-1] = x[:split]
    out[split:, 0] = 0.0
    out[:split, -1] = 0.0
    return out


def apply(plan: StepPlan, f: np.ndarray, rho: np.ndarray,
          pernode_source: Optional[np.ndarray] = None):
    """Advance (f, rho) by one step of the plan's dt; returns (f_new, rho_new).

    ``f`` has shape (cells, nodes) in any memory order; the step reads it
    through the node-major view ``f.T`` and gives the same bits for either
    order.  The step overwrites the plan's scratch buffers; ``f_new`` and
    ``rho_new`` are new arrays that belong to the caller, and ``f_new`` is
    the transpose of a node-major array, so it is F-ordered.
    ``pernode_source`` is a per-cell, per-node source with zero velocity
    mean (the penalized leftover), added to the plan's scalar source.
    """
    p = plan
    if f.shape != p.shape or rho.shape != p.shape[:1]:
        raise InvalidArgumentError(f"state shape {f.shape} does not match the plan's {p.shape}")
    h = p.split
    fn = f.T
    up = _upwind_rows(fn, h, p.up)
    rho_if, up_flux = p.moments @ up
    rho_if[0], rho_if[-1] = p.rho_half
    phi = p.phi                 # scratch until the flux is built
    if p.second_order:
        slope = _upwind_rows(mc_slopes(fn, p.dx, p.theta_lim, axis=1), h, phi)
        shift_flux, b_flux = p.slope_moments @ slope
        up_flux += shift_flux
        slope *= p.shift_col    # the reconstruction's shift of the upwind values
        up += slope

    big_phi = p.a * up_flux
    for wall, inflow, c_term, e_term in p.wall_terms:
        big_phi[wall] += inflow
        big_phi[wall] += c_term
        big_phi[wall] += e_term
    up *= p.av
    if p.second_order:
        big_phi += p.b * b_flux
        slope *= p.b
        slope *= p.slope_col
        up += slope
    if pernode_source is not None:
        src = pernode_source.T
        g_up = _upwind_rows(src, h, phi)
        g_up *= p.e
        big_phi += p.wv @ g_up
        g_up *= p.v_col
        up += g_up

    inv_dx = 1.0 / p.dx
    two_over_dx = 2.0 / p.dx
    if p.implicit:
        # The D-terms couple the time-(n+1) densities: only their
        # interface-density part is explicit, the rest is the banded solve.
        big_phi[1:-1] += p.expl_coef * rho_if[1:-1]
        big_phi[0] += p.expl_walls[0]
        big_phi[-1] += p.expl_walls[1]
        rhs = rho * p.inv_dt - (big_phi[1:] - big_phi[:-1]) * inv_dx
        if p.g_cell is not None:
            rhs += p.g_cell
        rho_new = solve_banded(p.lu, rhs)
        d_l = (rho_if[1:] - rho_new) * two_over_dx    # v > 0 slope, interfaces 1..N
        d_r = (rho_new - rho_if[:-1]) * two_over_dx   # v < 0 slope, interfaces 0..N-1
    else:
        d_l = (rho_if[1:] - rho) * two_over_dx
        d_r = (rho - rho_if[:-1]) * two_over_dx
        big_phi[1:-1] += p.d[1:-1] * (p.mpp * d_l[:-1] + p.mnn * d_r[1:])
        big_phi[0] += p.wall_slope[0] * d_r[0]
        big_phi[-1] += p.wall_slope[1] * d_l[-1]
        rho_new = rho * p.inv_dt - (big_phi[1:] - big_phi[:-1]) * inv_dx
        if p.g_cell is not None:
            rho_new += p.g_cell
        rho_new *= p.inv_den_rho

    # phi / dx = (v (A f_up + E G_up) + v (C rho_if + E G) + v^2 (D slope + B df_up)) / dx;
    # ``up`` holds the part that varies per node and interface.
    rows = p.rows
    np.multiply(p.c, rho_if, out=rows[0])
    if p.eg is not None:
        rows[0] += p.eg
    np.multiply(p.d[1:], d_l, out=rows[1, 1:])
    np.multiply(p.d[:-1], d_r, out=rows[2, :-1])
    np.matmul(p.node_rows, rows, out=phi)
    phi += up
    phi[h:, 0] = p.inflow_left
    phi[:h, -1] = p.inflow_right

    # f/dt - (phi_{j+1} - phi_j)/dx; phi's scratch then takes f/dt.
    f_new = phi[:, :-1] - phi[:, 1:]
    f_new += np.multiply(fn, p.inv_dt, out=phi[:, :-1])
    cell = p.relax * rho_new
    if p.g_cell is not None:
        cell += p.g_cell
    f_new += cell
    if pernode_source is not None:
        f_new += src
    f_new *= p.inv_den_f
    if not (np.isfinite(f_new).all() and np.isfinite(rho_new).all()):
        raise SolverFailureError("non-finite values after step")
    return f_new.T, rho_new


def solve_banded(lu, rhs: np.ndarray) -> np.ndarray:
    """Solve the implicit density system for one right-hand side.

    ``lu`` is a plan's ``lu``, the ``dgttrf`` factors of its tridiagonal
    bands; ``rhs`` is overwritten with the solution, which is returned.
    This is the same elimination as LAPACK ``gtsv`` on the bands, without
    factoring them again each step.  ``benchmarks/tracer.py`` times the
    solve by wrapping this module-level name, so keep it.
    """
    return dgttrs(*lu, rhs, overwrite_b=True)[0]


def _implicit_bands(d_if: np.ndarray, mpp: float, mnn: float, dx: float, dt: float,
                    alpha_c: np.ndarray):
    """Tridiagonal bands (lower, diag, upper) of the implicit density solve.

    With c_j = 2 D_j / dx^2 <= 0, row i reads
    ``lower[i] rho_{i-1} + diag[i] rho_i + upper[i] rho_{i+1} = rhs_i`` with
    diag[i] = 1/dt + alpha_i - c_{i+1} mpp - c_i mnn, upper[i] = c_{i+1} mnn,
    lower[i] = c_i mpp.
    """
    n = alpha_c.size
    c = d_if * (2.0 / dx**2)
    diag = 1.0 / dt + alpha_c - c[1:] * mpp - c[:-1] * mnn
    lower = np.zeros(n)
    upper = np.zeros(n)
    upper[:-1] = c[1:-1] * mnn
    lower[1:] = c[1:-1] * mpp
    return lower, diag, upper


def step(state: KineticState, cfg: SchemeConfig, mat: MaterialField, mesh: SpatialMesh,
         q: VelocityQuadrature, bc: BoundarySpec, dt: Optional[float] = None,
         plan: Optional[StepPlan] = None) -> KineticState:
    """Advance the state by one UGKS step (isotropic collision operator).

    ``plan`` holds the step's constants for its dt; without one, a plan is
    built for ``dt`` (default: :func:`cfl_timestep`).  Repeated steps of
    one size should share a plan.
    """
    if cfg.collision != "isotropic":
        raise InvalidArgumentError("step() handles the isotropic operator; use penalized_step")
    if plan is None:
        plan = StepPlan(cfl_timestep(cfg, mat, mesh) if dt is None else dt, cfg, mat, mesh, q, bc)
    _check_dt(plan, dt)
    f_new, rho_new = apply(plan, state.f, state.rho)
    return KineticState(f=f_new, rho=rho_new, t=state.t + plan.dt)


def _check_dt(plan: StepPlan, dt: Optional[float]) -> None:
    if dt is not None and dt != plan.dt:
        raise InvalidArgumentError(f"dt={dt} differs from the plan's dt={plan.dt}")


def moment_defect(state: KineticState, q: VelocityQuadrature) -> float:
    """max_i |rho_i - <f_i>_h| / (1 + |rho_i|) for the stored state."""
    rho_f = average(q, state.f)
    return float(np.max(np.abs(state.rho - rho_f) / (1.0 + np.abs(state.rho))))

