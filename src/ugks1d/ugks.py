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

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .coeffs import blend_parameter, coefficient_arrays
from .errors import InvalidArgumentError, InvalidDataError, SolverFailureError
from .grid import MaterialField, SpatialMesh, VelocityQuadrature, average, mc_limiter, wall_density

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
RECONSTRUCTIONS = ("first_order", "mc_limited")


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
    def _stepped(cls, f: np.ndarray, rho: np.ndarray, t: float) -> "KineticState":
        """The state of a step's output, whose shapes :func:`apply` checked
        and whose arrays it returned read-only.  It sets the fields that
        ``__init__`` sets and no others, which tests check."""
        state = object.__new__(cls)
        state.__dict__.update(f=f, rho=rho, t=t)
        return state

    @classmethod
    def from_distribution(cls, f: np.ndarray, q: VelocityQuadrature, t: float = 0.0) -> "KineticState":
        f = np.array(f, dtype=float)
        return cls(f=f, rho=np.asarray(average(q, f)), t=t)


@dataclass(frozen=True)
class BoundarySpec:
    """Inflow data at the nodes of ``q`` plus the boundary-condition mode.

    f_left is used for v > 0, f_right for v < 0: one sample per node, finite
    and nonnegative on the incoming half.  ``mode`` selects between the
    stabilized, corrected, and blended boundary densities, which a plan
    blends from ``walls``: per wall, left first, the stabilized inflow
    <v f_in 1_inc>_h and the corrected density :func:`grid.wall_density`,
    the diffusion limit's Dirichlet value.
    """

    q: VelocityQuadrature
    f_left: np.ndarray
    f_right: np.ndarray
    mode: str = "stabilized"
    walls: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in BC_MODES:
            raise InvalidArgumentError(f"unknown boundary mode {self.mode!r}")
        q, h, walls = self.q, self.q.split, []
        for name, f_in, inc in (("f_left", self.f_left, slice(h, None)), ("f_right", self.f_right, slice(0, h))):
            if f_in.shape != (q.n,):
                raise InvalidArgumentError(f"{name}: {f_in.shape} samples for a {q.n}-node quadrature")
            if not 0.0 <= f_in[inc].min() <= f_in[inc].max() < math.inf:   # false for a NaN
                raise InvalidDataError(f"{name}: incoming samples must be finite and nonnegative")
            f_in.setflags(write=False)
            walls.append((float(f_in[inc].dot(_node_tables(q).wv[inc])), wall_density(q, f_in, inc)))
        object.__setattr__(self, "walls", tuple(walls))

    @classmethod
    def from_functions(cls, f_left, f_right, q: VelocityQuadrature,
                       mode: str = "stabilized") -> "BoundarySpec":
        """Sample each inflow, a constant or a callable of one number, node by
        node (a call on the node array can change last bits)."""
        with np.errstate(all="ignore"):   # a bad sample raises when checked, so no warning precedes it
            samples = [np.array([float(fn(vk)) for vk in q.nodes]) if callable(fn) else np.full(q.n, float(fn))
                       for fn in (f_left, f_right)]
        return cls(q, *samples, mode=mode)


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection: scaling parameter, CFL policy, reconstruction order
    and diffusion (slope) time level, which a :class:`StepPlan` fixes;
    ``cfl`` enters only :func:`cfl_timestep`.  The collision model is not
    part of it: a :class:`StepPlan` without a ``source`` steps the
    isotropic one, one with a source the penalized general one."""

    eps: float
    cfl: float = 0.9
    reconstruction: str = "first_order"
    diffusion_mode: str = "explicit_slopes"

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise InvalidArgumentError("eps must be positive")
        if not 0 < self.cfl <= 1:
            raise InvalidArgumentError("cfl must lie in (0, 1]")
        if self.reconstruction not in RECONSTRUCTIONS:
            raise InvalidArgumentError(f"unknown reconstruction {self.reconstruction!r}")
        if self.diffusion_mode not in ("explicit_slopes", "implicit_slopes"):
            raise InvalidArgumentError(f"unknown diffusion mode {self.diffusion_mode!r}")


def cfl_timestep(cfg: SchemeConfig, mat: MaterialField, mesh: SpatialMesh) -> float:
    """Time-step policy.

    Explicit slopes: dt = cfl * max(eps dx, (3/2) dx^2 sigma_min).  Implicit
    slopes: dt = max(0.9 eps dx, cfl dx).
    """
    dx = mesh.dx
    if cfg.diffusion_mode == "implicit_slopes":
        return max(0.9 * cfg.eps * dx, cfg.cfl * dx)
    sigma_min = float(mat.sigma_cell.min())
    return cfg.cfl * max(cfg.eps * dx, 1.5 * dx * dx * sigma_min)


class StepPlan:
    """Everything in one step of size dt that does not depend on the state,
    and the step itself.

    The update is linear, so for a fixed dt the interface coefficients, the
    boundary densities with their inflow fluxes, the reciprocals of dt and of
    both relaxation denominators, and the implicit bands with their LDL^T
    factors are constants.  A plan computes them once; build one per
    distinct dt and advance with :func:`apply`, :func:`step` or
    ``penalized_step``: besides the state, the plan is a step's whole input,
    its dt, scheme, material, mesh, quadrature, inflow and, for a penalized
    step, ``source``, the matrix M + theta I (``PenalizedOperator.shifted``)
    of g = (M + theta I)(F - rho)/eps^2.  ``coeffs`` takes the
    ``coefficient_arrays`` tuple when the caller has already evaluated it.
    For ``implicit_slopes``, ``bands`` is (lower, diag, upper) and ``lu`` is
    LAPACK's ``dpttrs`` followed by the bands' ``dpttrf`` (LDL^T) factors,
    so a step only substitutes through them (:func:`solve_banded`).  The
    system is symmetric positive definite (D <= 0, alpha >= 0) on a
    mirrored quadrature, which ``ugks_id`` therefore needs: unequal v^2
    half-moments raise ``InvalidArgumentError``, a failed factorization
    ``SolverFailureError``.  Both routines are imported from
    ``scipy.linalg.lapack`` here, when an implicit plan factors, so
    explicit plans never load SciPy and a step runs no import.

    The step works node-major, on ``F = f.T`` of shape (nodes, cells), in
    stencil form.  The quadrature's ascending nodes make v < 0 and v > 0 the
    contiguous row blocks ``F[:split]`` and ``F[split:]``.  With A v / dx,
    1/dt and the per-cell factor 1/(1/dt + sigma/eps^2 + alpha) folded in,
    the part of f^{n+1} that is linear in F node by node is a two-point
    upwind stencil: ``S_d * F`` plus ``S_o * F`` moved one cell downwind.
    ``stencil`` is that pair of (nodes, cells) arrays.  ``S_o`` is zero in
    the column that has no downwind cell, so the move is one shifted add on
    the flattened rows of each velocity half.  Each cell's value of one
    velocity half crosses exactly one interface, its exit interface, as the
    upwind value, so a per-node term X with A v X_up in the flux joins F
    there: the step runs ``stencil`` and the flux moments on one upwind
    state F + X and takes back the diagonal's (1/dt) X.  The penalized
    leftover g (A v f_up + E v g_up) joins as lambda g with lambda = E/A
    (``source_fold``), made as ``penalized_source`` makes it, and the MC
    slope df, whose reconstruction shift
    sgn(v) dx/2 and B-term B v^2 df_up it carries, as ``mc_lambda`` df with
    sgn(v) dx/2 + v B/A; neither has a stencil pair or moment product of
    its own.  Everything else, the interface-density, D-slope,
    scalar-source and relaxation terms, is one product of a (nodes, 6)
    constant with a (6, cells) block per step; its last two columns put
    the wall inflow in place of the interface terms at the walls.  One
    per-wall path, run once for each wall, blends the two reductions of its
    inflow that ``bc``, sampled on ``q`` itself, holds into its density
    ``rho_half`` and builds the terms of its macroscopic flux, its column of
    that constant and the row that selects its cell: the right wall is the
    left one under v -> -v.  No per-node array spans the cells + 1 interfaces:
    the macroscopic flux ``phi`` is O(cells) work on per-half moments of F,
    kept with the other interface rows in one padded row block, so one flat
    difference gives the density update's divergence and the product's
    interface differences at once.

    The plan binds its step when it is built, and builds everything else
    then too: no step adds or replaces an attribute.  At a few hundred
    cells a numpy call costs more in dispatch than in arithmetic, so
    ``__init__`` defines the kernel, :func:`apply` after its checks, as a
    closure over its own locals that runs n steps in one loop: the
    constants (scalars as 0-d arrays), the scratch with every view sliced
    once, the MC limiter on ``slope`` and ``mc_work``
    (:func:`grid.mc_limiter`), a sourced plan's lambda, kappa and
    (lambda/eps^2)(M + theta I), and the ufuncs.  Every ``add``,
    ``subtract``, ``multiply``, ``matmul`` and ``dot`` takes its output
    positionally, in-place updates included, 35-100 ns less than ``out=``
    or an operator.  The closure never holds the plan, so a dropped plan
    is freed by reference counting alone.  :func:`_aligned_empty`, with
    the ``np.empty`` that it calls, and :func:`solve_banded` are looked up
    at each call.

    A sourced plan's ``source_fold`` is (lambda, kappa) at each cell's exit
    interface: lambda = E/A, and kappa = (A/E - 1/dt) times the relaxation
    factor adds to lambda g the rest of g's cell-local term, of which the
    diagonal of ``stencil`` acting on F + lambda g carries lambda/dt.  Both
    are (nodes, cells) arrays, or scalars where E/A, A/E - 1/dt and the
    relaxation factor are uniform, as on ``PenalizedOperator.material``.

    Besides those named above, a plan keeps ``dt``, ``dx``, ``shape`` and
    ``inv_dt``, the moment rows ``moments``, a read-only table shared by
    every plan on one quadrature, and its scratch:
    ``iface``, the moment buffers (:func:`_moment_scratch`) and one block
    of (nodes, cells) buffers that starts on a 64-byte boundary
    (:func:`_aligned_empty`), the stencil pair, ``scratch``, a sourced or
    MC plan's upwind state ``up_state``, a sourced plan's lambda g
    ``scaled_source`` and the four MC arrays, each of which starts on a
    boundary when nodes x cells is a multiple of 8.  Every step overwrites
    the scratch, so a plan must not be applied from two threads at once;
    nothing a call returns aliases it.  At 16 x 2000 a numpy store into an
    output that does not start on a boundary takes about twice as long.
    A call's own blocks start on a boundary too, so every state-size
    array that a step writes does: the (nodes + 1, cells) block that the
    call returns and, for n > 1 steps, one (2, nodes + 1, cells) block,
    whose halves the steps before the last write in turn, dropped when
    the call returns (its second half starts on a boundary when
    (nodes + 1) x cells is a multiple of 8).  Each is one
    :func:`_aligned_empty` per call, 2.3-2.6 us against about 0.27 us
    for ``np.empty``.  Built with the plan instead, the two-half block
    stepped no faster, but a run's set-up up to its first step went from
    0.48 to 0.79 ms on the benchmark's diffusive-id-2000 (2000 cells).  The
    O(cells) row block and the moment buffers stay where the allocator
    puts them: aligning them gained nothing measurable.
    """

    def __init__(self, dt: float, cfg: SchemeConfig, mat: MaterialField, mesh: SpatialMesh,
                 q: VelocityQuadrature, bc: BoundarySpec, coeffs=None, source: Optional[np.ndarray] = None):
        if not dt > 0:
            raise InvalidArgumentError(f"dt must be positive, got {dt}")
        n, k, h = mesh.n_cells, q.n, q.split
        if mat.n_cells != n or source is not None and source.shape != (k, k):
            raise InvalidArgumentError("material, mesh, quadrature and source sizes disagree")
        if bc.q is not q:
            raise InvalidArgumentError("the inflow is sampled on another quadrature than the plan's")
        if coeffs is None:
            coeffs = coefficient_arrays(dt, cfg.eps, mat.sigma_iface, mat.alpha_iface)
        a, b, c, d, e, nu = coeffs
        eps, dx = cfg.eps, mesh.dx
        inv_dx = 1.0 / dx
        self.dt, self.dx, self.source = dt, dx, source
        self.shape = (n, k)
        implicit = cfg.diffusion_mode == "implicit_slopes"
        second_order = cfg.reconstruction == "mc_limited"
        g_cell = mat.g_cell if np.count_nonzero(mat.g_cell) else None
        g_if = mat.g_iface
        eg = e * g_if if np.count_nonzero(g_if) else None
        self.inv_dt = 1.0 / dt
        inv_den_rho = 1.0 / (self.inv_dt + mat.alpha_cell)
        relax = mat.sigma_cell / eps**2
        idf = 1.0 / (self.inv_dt + relax + mat.alpha_cell)
        tables = _node_tables(q)
        # The upwind moments (flux, density): per-cell half moments, then one
        # add of the v > 0 rows one cell left and the v < 0 rows.
        self.moments = half_rows = tables.moments
        flux_rows, dens_rows = half_rows[::2], half_rows[1::2]
        self.iface = per_cell, pos, neg, moment_sum, moments = _moment_scratch(2, n)
        flux_cell, dens_cell = per_cell[::2], per_cell[1::2]
        rho_if = moments[1]
        # (rho_if[1:], rho_if[:-1]) as one view of the flat result, in which
        # rho_if starts at n + 1: the row stride is one element back.
        item = moments.itemsize
        rho_if_pair = np.ndarray((2, n), buffer=moment_sum, offset=(n + 2) * item, strides=(-item, item))
        # Times the moments, (A <v f_up>_h, C rho_if) in one multiply.
        coef_rows = np.array((a, c))

        # One zeroed (11, cells + 1) block of per-step rows.  Rows 0-3 are the
        # interface rows: the macroscopic flux Phi, C rho_if + E G, then the
        # D-slope fluxes of the v > 0 and v < 0 nodes, D (rho_if - rho) 2/dx
        # from the cell on each side; ``slopes`` views rows[2, 1:] and
        # rows[3, :-1], adjacent in memory, so entries [2, 0] and [3, -1]
        # stay zero.  Rows 4-7, cut to cells columns, are the differences of
        # the interface rows, Phi_i - Phi_{i+1} first: the density update's
        # divergence and the first three rows of f^{n+1}'s product.  Rows
        # 5-10 are that product's (6, cells) block: after the differences,
        # sigma/eps^2 rho^{n+1} + G and two rows that select the wall cells.
        # Padding the rows to a common length makes the differences and the
        # scaling flat passes; explicit steps difference all four interface
        # rows at once, ugks_id ones Phi with C rho_if before its solve and
        # the D-slope rows after it.
        w = n + 1
        block = np.zeros((11, w))
        flat = block.reshape(-1)
        iface_rows = block[:2]
        self.phi = phi = block[0]
        c_row = block[1]
        d_rows = block[2:4]
        slopes = flat[2 * w + 1:4 * w - 1].reshape(2, n)
        # The v < 0 row's factor is negated: its difference is taken the
        # other way round, rho_if[:-1] - rho.
        d_slope = np.empty((2, n))
        np.multiply(2.0 / dx, d[1:], out=d_slope[0])
        np.multiply(-2.0 / dx, d[:-1], out=d_slope[1])
        here, right, diff = flat[:4 * w - 1], flat[1:4 * w], flat[4 * w:8 * w - 1]
        if implicit:
            here_d, right_d, diff_d = here[2 * w:], right[2 * w:], diff[2 * w:]
            here, right, diff = here[:2 * w - 1], right[:2 * w - 1], diff[:2 * w - 1]
        phi_term, div_phi = block[4], block[4, :n]
        relax_row = block[8, :n]
        scaled_rows = flat[5 * w:9 * w]
        cell_rows = block[5:, :n]
        # The product's (nodes, 6) columns are (v, v^2 1_{v>0}, v^2 1_{v<0}, 1)
        # and, at each wall of outward sign s, -s v (f_in/eps - C rho_wall
        # - E G) on its incoming nodes: the inflow flux less the
        # interface-row flux that the first column gives there, as it enters
        # the wall cell.  The row scale divides the first three rows and the
        # wall rows by dx, and scales every row by the relaxation factor.
        idf_dx = idf * inv_dx
        row_scale = np.zeros((4, w))
        row_scale[:3, :n] = idf_dx
        row_scale[3, :n] = idf
        row_scale = row_scale.reshape(-1)
        node_cols = tables.cell_cols.copy()
        # The corrected data's weight at each wall: 0 for stabilized, 1 for
        # corrected and 1 - exp(-nu dt) of the wall's nu for blended.
        thetas = (blend_parameter(nu[[0, -1]], dt).tolist() if bc.mode == "blended"
                  else [float(bc.mode == "corrected")] * 2)
        rho_half, wall_terms = [], []
        # One path builds both walls.  The right wall is the left one under
        # v -> -v: incoming nodes v < 0, outgoing half-moments of v > 0 and
        # outward sign s = +1.  Its interface is -1, but its cell in the
        # block's cells + 1 columns is n - 1.
        for j, (f_in, (stab, rho_corr), inc, m_out, m2_out, s, wall, cell) in enumerate((
                (bc.f_left, bc.walls[0], slice(h, None), q.m_v_neg, q.m_v2_neg, -1.0, 0, 0),
                (bc.f_right, bc.walls[1], slice(0, h), q.m_v_pos, q.m_v2_pos, 1.0, -1, n - 1))):
            # The density and the inflow part of the flux times eps: theta
            # weighs the corrected density and its inflow -m_out rho against
            # the stabilized inflow and its density.
            theta = thetas[j]
            rho = (1.0 - theta) * (-stab / m_out) + theta * rho_corr
            inflow = (1.0 - theta) * stab + theta * (-m_out * rho_corr)
            rho_half.append(rho)
            # ugks_id keeps only the interface-density part of the D-fluxes
            # explicit; at the walls that is a constant.
            d_wall = s * (2.0 * d.item(wall) / dx) * m2_out * rho if implicit else 0.0
            # The terms of the wall's macroscopic flux after the upwind one,
            # added in this order (inflow, C, E, explicit D): they cancel to
            # O(1) from O(1/eps), so the order fixes the bits.
            wall_terms.append((inflow / eps, c.item(wall) * m_out * rho,
                               e.item(wall) * m_out * g_if.item(wall), d_wall))
            r0 = c.item(wall) * rho
            if eg is not None:
                r0 += eg.item(wall)
            # s r0 - f_in/(s eps) is exactly f_in/eps - r0 on the left and
            # r0 - f_in/eps on the right, the signs of zeros included.
            np.multiply(q.nodes[inc], s * r0 - f_in[inc] / (s * eps), out=node_cols[inc, 4 + j])
            block[9 + j, cell] = idf_dx[cell]
        self.rho_half = rho_l, rho_r = tuple(rho_half)
        (in_l, c_l, e_l, d_l), (in_r, c_r, e_r, d_r) = wall_terms

        # The (nodes, cells) arrays are one allocation: as separate blocks at
        # 2000 cells, each plan touched fresh pages and took 2.7 times as
        # long to build.  Blocks 0-1 are the stencil pair, 2 the step's
        # scratch; a sourced or MC plan's 3 is its upwind state and a
        # sourced plan's 4 is lambda g; with MC, the last six are the
        # slope's two factors, the slopes and the limiter's differences.
        # The block starts on a 64-byte boundary, and so does each (k, n)
        # block inside it when k * n is a multiple of 8, as with 16 nodes.
        sourced = source is not None
        big = _aligned_empty((3 + (sourced or second_order) + sourced + 6 * second_order, k, n))
        self.stencil = s_d, s_o = _stencil_pair(tables.upwind_cols, a[None, :], idf_dx,
                                                self.inv_dt * idf, out=big[:2])
        self.scratch = scratch = big[2]
        # The downwind move of the stencil: flat views of the scratch and,
        # below, of the output, one cell over within each velocity half.
        cut, size = h * n, k * n
        t_pos, t_neg = scratch.reshape(-1)[cut:-1], scratch.reshape(-1)[1:cut]
        # The finite guard's vectors of nodes + 1 and of cells ones.
        row_dot, cell_ones = _ones(k + 1).dot, _ones(n)
        if sourced or second_order:
            self.up_state = up = big[3]
        if sourced:
            # A scalar lambda rides in the product's matrix
            # (lambda/eps^2)(M + theta I), an array multiplies after it.
            lam, kappa = e / a, a / e - self.inv_dt
            if (lam == lam[0]).all() and (kappa == kappa[0]).all() and (idf == idf[0]).all():
                self.source_fold = lam, kappa = float(lam[0]), float(kappa[0] * idf[0])
                lam_cells, kappa = None, np.array(kappa)
            else:
                kappa = _exit_values(kappa, h, np.empty((k, n)))
                kappa *= idf
                self.source_fold = lam_cells, kappa = _exit_values(lam, h, np.empty((k, n))), kappa
                lam = 1.0
            scaled = (lam / eps**2) * source
            self.scaled_source = lam_g = big[4]
        if second_order:
            # The reconstruction moves each upwind value dx/2 toward its exit
            # interface, and B v^2 df_up joins A v f_up there: the flux is
            # A v (f + lambda_s df)_up with lambda_s = sgn(v) dx/2 + v B/A.
            # The stencil's diagonal then carries (1/dt) lambda_s df times
            # the relaxation factor, which ``mc_diag`` df takes back out.
            # Both factors are full (nodes, cells) arrays: a multiply that
            # broadcasts a row allocates a buffer of the state's size.
            mc = big[-6:]
            self.mc_lambda = mc_lambda = _exit_values(b / a, h, mc[0])
            mc_lambda *= q.nodes[:, None]
            mc_lambda[h:] += 0.5 * dx
            mc_lambda[:h] -= 0.5 * dx
            self.mc_diag = mc_diag = np.multiply(mc_lambda, self.inv_dt * idf, out=mc[1])
            self.slope = mc[2]
            self.mc_work = mc[3:].reshape(3, -1)[:, :size - 1]
            limit = mc_limiter(dx, self.slope, self.mc_work)

        if implicit:
            if q.m_v2_pos != q.m_v2_neg:
                raise InvalidArgumentError("ugks_id needs a mirrored quadrature: its v^2 half-moments differ")
            self.bands = _implicit_bands(d, q.m_v2_pos, dx, dt, mat.alpha_cell)
            _, diag, upper = self.bands
            from scipy.linalg.lapack import dpttrf, dpttrs
            *factors, info = dpttrf(diag, upper[:-1])
            if info != 0:
                raise SolverFailureError(f"implicit density matrix not positive definite (dpttrf info={info})")
            self.lu = lu = (dpttrs, *factors)
        else:
            m_v2_halves = tables.m_v2_halves

        # The kernel's scalar operands are 0-d arrays, which numpy takes
        # about 200 ns faster than Python floats.
        inv_dt, inv_dx = np.array(self.inv_dt), np.array(inv_dx)
        add, subtract, multiply, matmul, dot = np.add, np.subtract, np.multiply, np.matmul, np.dot
        contiguous, isfinite, out_shape = np.ascontiguousarray, math.isfinite, (k + 1, n)

        def views(out):
            # An output block (nodes + 1, cells), its f and rho rows and the
            # flat views of the stencil's downwind add into f.
            out_flat = out.reshape(-1)
            return out, out[:k], out[k], out_flat[cut + 1:size], out_flat[:cut - 1]

        def kernel(f, rho, steps):
            fn = contiguous(f.T)
            if steps > 1:
                # Steps 1 .. steps - 1 write the two halves of one block in
                # turn, each reading the other; only the last writes a block
                # of its own, which the call returns.
                pair = [views(block) for block in _aligned_empty((2, k + 1, n))]
            for j in range(1, steps + 1):
                out, f_new, rho_new, f_pos, f_neg = pair[j & 1] if j < steps else views(_aligned_empty(out_shape))
                up_state = fn
                if sourced:
                    # lambda g as penalized_source makes it: F - rho, then one product.
                    scratch[...] = rho
                    subtract(fn, scratch, scratch)
                    matmul(scaled, scratch, lam_g)
                    if lam_cells is not None:
                        multiply(lam_g, lam_cells, lam_g)
                    up_state = add(fn, lam_g, up)
                if second_order:
                    df = limit(fn)
                    up_state = add(up_state, multiply(mc_lambda, df, scratch), up)
                    multiply(df, mc_diag, df)
                if up_state is fn:
                    matmul(half_rows, fn, per_cell)
                else:
                    matmul(flux_rows, up_state, flux_cell)
                    matmul(dens_rows, fn, dens_cell)
                add(pos, neg, moment_sum)
                rho_if[0] = rho_l
                rho_if[-1] = rho_r
                multiply(coef_rows, moments, iface_rows)
                # The wall terms of Phi after the upwind one, in this order: they
                # cancel to O(1) from O(1/eps), so the order fixes the bits.
                phi[0] = phi.item(0) + in_l + c_l + e_l + d_l
                phi[-1] = phi.item(-1) + in_r + c_r + e_r + d_r
                if eg is not None:
                    add(c_row, eg, c_row)
                # ugks_id's D-terms couple the time-(n+1) densities and go to the
                # solve; like C rho_if, their interface-density part averages to
                # zero.  The D-slope rows: rho_if[1:] - rho times the v > 0 factor,
                # rho_if[:-1] - rho times the negated v < 0 one.
                if not implicit:
                    subtract(rho_if_pair, rho, slopes)
                    multiply(slopes, d_slope, slopes)
                    # Row 4 is free until the difference: it holds Phi's last term.
                    add(phi, dot(m_v2_halves, d_rows, phi_term), phi)
                subtract(here, right, diff)

                multiply(rho, inv_dt, rho_new)
                multiply(div_phi, inv_dx, div_phi)
                add(rho_new, div_phi, rho_new)
                if g_cell is not None:
                    add(rho_new, g_cell, rho_new)
                if implicit:
                    solve_banded(lu, rho_new)
                    subtract(rho_if_pair, rho_new, slopes)
                    multiply(slopes, d_slope, slopes)
                    subtract(here_d, right_d, diff_d)
                else:
                    multiply(rho_new, inv_den_rho, rho_new)

                multiply(relax, rho_new, relax_row)
                if g_cell is not None:
                    add(relax_row, g_cell, relax_row)
                multiply(scaled_rows, row_scale, scaled_rows)
                matmul(node_cols, cell_rows, f_new)
                # The stencil: S_d times the upwind state, plus S_o times it moved
                # one cell downwind, a shifted add of the scratch's flat views on
                # each half's flattened rows: right in the v > 0 rows, left in the
                # v < 0; S_o is zero in the column that would wrap into the next row.
                multiply(s_d, up_state, scratch)
                add(f_new, scratch, f_new)
                multiply(s_o, up_state, scratch)
                add(f_pos, t_pos, f_pos)
                add(f_neg, t_neg, f_neg)
                if sourced:
                    multiply(kappa, lam_g, scratch)
                    add(f_new, scratch, f_new)
                if second_order:
                    subtract(f_new, df, f_new)
                # The row sums of f and rho and then their sum, a BLAS gemv and dot
                # with ones: a NaN or an infinity anywhere, or a sum that overflows,
                # makes it non-finite.  A flat dot with (nodes + 1) * cells ones is
                # cheaper alone, but made the 2000-cell ugks_id step 4% slower.
                if not isfinite(row_dot(out.dot(cell_ones))):
                    raise SolverFailureError("non-finite values after step", j)
                fn, rho = f_new, rho_new
            # Views made after the block is flagged are read-only too.
            out.setflags(write=False)
            return out[:k].T, out[k]

        self._kernel = kernel


def _exit_values(row: np.ndarray, split: int, out: np.ndarray) -> np.ndarray:
    """``out``, a node-major (nodes, cells) array, filled with the
    per-interface ``row`` at the interface through which each cell's value
    of each velocity half leaves: interface i + 1 for v > 0 (the nodes from
    ``split`` on), i for v < 0."""
    out[split:] = row[1:]
    out[:split] = row[:-1]
    return out


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-contiguous float array of ``shape`` that starts on
    a 64-byte boundary, a cache line: over-allocated by 7 doubles and cut
    to the boundary.  Every state-size array that a step writes comes from
    it, since a numpy store into a (16, 2000) output that starts off a
    boundary takes about twice as long (AVX-512).  It costs 2.3-2.6 us
    against about 0.27 us for ``np.empty``, most of it in reading the
    address, so a plan calls it once, for the one block that holds all of its
    (nodes, cells) buffers, and a call of its kernel once or twice, for
    its output block and its two-half block; the array interface, unlike
    ``.ctypes``, imports nothing."""
    size = math.prod(shape)
    buf = np.empty(size + 7)
    start = -buf.__array_interface__["data"][0] % 64 // buf.itemsize
    return buf[start:start + size].reshape(shape)


@lru_cache(maxsize=16)
def _ones(size: int) -> np.ndarray:
    """A read-only vector of ``size`` ones, shared by every plan that
    needs one of that size for its finite guard."""
    out = np.ones(size)
    out.setflags(write=False)
    return out


class _NodeTables:
    """Plan constants that depend only on the quadrature, built once per
    quadrature by :func:`_node_tables`.

    ``moments``: the half rows (:func:`_half_rows`) of (w v/2, w/2), the
    flux moment first, in the order of the plan's interface rows.
    ``cell_cols``: (v, v^2 1_{v>0}, v^2 1_{v<0}, 1, 0, 0), the columns of
    f^{n+1}'s product before the plan fills in the wall columns.  ``wv``:
    the weights of <v .>_h, which :class:`BoundarySpec` also uses.
    ``upwind_cols``: the signed node columns (:func:`_signed_cols`) of the
    stencil of F, node factor v.  ``m_v2_halves``: (<v^2 1_{v>0}>,
    <v^2 1_{v<0}>).
    """

    def __init__(self, q: VelocityQuadrature):
        h, v = q.split, q.nodes
        w_half = 0.5 * q.weights
        self.wv = w_half * v
        self.moments = _half_rows(np.array((self.wv, w_half)), h)
        self.cell_cols = np.zeros((q.n, 6))
        self.cell_cols[:, 0] = v
        self.cell_cols[h:, 1] = v[h:] * v[h:]
        self.cell_cols[:h, 2] = v[:h] * v[:h]
        self.cell_cols[:, 3] = 1.0
        self.upwind_cols = _signed_cols(v[:, None], h)
        self.m_v2_halves = np.array((q.m_v2_pos, q.m_v2_neg))
        for arr in vars(self).values():
            arr.setflags(write=False)


@lru_cache(maxsize=16)
def _node_tables(q: VelocityQuadrature) -> _NodeTables:
    return _NodeTables(q)


def _half_rows(rows: np.ndarray, split: int) -> np.ndarray:
    """``rows`` (m, nodes) stacked over itself with the v < 0 columns of the
    top copy and the v > 0 columns of the bottom copy zeroed: one product
    with F then gives per cell the moments of each velocity half."""
    m = rows.shape[0]
    out = np.zeros((2 * m, rows.shape[1]))
    out[:m, split:] = rows[:, split:]
    out[m:, :split] = rows[:, :split]
    return out


def _moment_scratch(m: int, n: int):
    """Buffers of the upwind moments of m moments on n cells: a zeroed
    flat buffer that holds the 2m per-half rows with a stride of n + 1
    after one leading zero, and the (m, n + 1) result.  Interface j adds
    the v > 0 row at cell j - 1 to the v < 0 row at cell j, which this
    layout puts at one fixed flat offset for every row and interface."""
    w = n + 1
    buf = np.zeros(1 + 3 * m * w)
    out = buf[1 + 2 * m * w:]
    return (buf[1:1 + 2 * m * w].reshape(2 * m, w)[:, :n], buf[:m * w], buf[m * w + 1:2 * m * w + 1],
            out, out.reshape(m, w))


def _signed_cols(node_cols: np.ndarray, split: int) -> np.ndarray:
    """Left factors of :func:`_stencil_pair` for per-node factors
    ``node_cols`` (nodes, m): for S_d the factors negated on v > 0, which
    leave a cell through its right interface, in columns 0..m-1, the v < 0
    factors in columns m..2m-1, and 1 for the diagonal term; for S_o the
    same factors with the opposite signs."""
    h = split
    k, m = node_cols.shape
    cols = np.zeros((2, k, 2 * m + 1))
    np.negative(node_cols[h:], out=cols[0, h:, :m])
    cols[0, :h, m:2 * m] = node_cols[:h]
    cols[0, :, -1] = 1.0
    np.negative(cols[0, :, :-1], out=cols[1, :, :-1])
    return cols


def _stencil_pair(cols: np.ndarray, iface_rows: np.ndarray, scale: np.ndarray, diag,
                  out=None) -> np.ndarray:
    """The stencil pair (S_d, S_o), stacked, of the per-node flux kappa X_up
    and the term ``diag`` X of each cell.  kappa is the node factors behind
    ``cols`` (:func:`_signed_cols`) times ``iface_rows`` (m, cells + 1); the
    flux through the faces of cell i is scaled by ``scale[i]`` (the
    relaxation factor over dx), and ``diag`` is a per-cell row or 0.  Cell i
    gets S_d[:, i] X[:, i] plus, from its upwind neighbour u,
    S_o[:, u] X[:, u].  One batched product writes both."""
    m = iface_rows.shape[0]
    rows = np.zeros((2, 2 * m + 1, scale.size))
    # v > 0 leaves cell i through its right interface and enters cell i+1
    # there; v < 0 leaves through the left one and enters cell i-1.
    right, left = rows[0, :m], rows[0, m:2 * m]
    np.multiply(iface_rows[:, 1:], scale, out=right)
    np.multiply(iface_rows[:, :-1], scale, out=left)
    rows[0, -1] = diag
    rows[1, :m, :-1] = left[:, 1:]
    rows[1, m:2 * m, 1:] = right[:, :-1]
    return np.matmul(cols, rows, out=out)


def apply(plan: StepPlan, f: np.ndarray, rho: np.ndarray, n: int = 1):
    """Advance (f, rho) by ``n`` steps of the plan's dt; returns (f_new, rho_new).

    ``f`` has shape (cells, nodes) in any memory order; the step reads it
    through the node-major ``f.T``, copied only when that is not contiguous,
    and gives the same bits for either order.  The step overwrites the
    plan's scratch buffers.  ``f_new`` and ``rho_new`` are read-only views
    of one new (nodes + 1, cells) array that no plan keeps and that starts
    on a 64-byte boundary (:func:`_aligned_empty`): its first rows
    are the node-major f^{n+1}, so ``f_new`` is F-ordered, and its last row
    is rho^{n+1}.  A plan built with a ``source`` adds the penalized
    leftover g = (M + theta I)(F - rho)/eps^2, a per-cell, per-node source
    with zero velocity mean, to its scalar source: the step makes lambda g,
    with lambda = ``plan.source_fold[0]`` folded into its one product, the
    upwind stencil and the flux moments act on the one state
    F + lambda g, the density moments on F, and kappa (lambda g) adds g's
    cell-local rest.  The MC slope df joins that state the same way, as
    ``plan.mc_lambda`` df; it is zero in the wall cells, so the wall
    interfaces' moments keep the bits of the first-order step.  A
    non-finite result raises ``SolverFailureError``: the guard sums f and
    rho by a BLAS gemv and dot with vectors of ones.

    After the shape check, the ``n`` steps are one call of the plan's
    kernel, which the plan bound when it was built.  The kernel runs one
    loop ``n`` times: steps before the last write the two halves of one
    (2, nodes + 1, cells) array that lives for the call, in turn, and give
    the bits of ``n`` calls with ``n = 1``.  The finite guard runs after
    every step, and the error of a failed step j carries j as its
    ``step``.  An ``n`` that is not an integer (``operator.index``) or
    that is below 1 raises ``InvalidArgumentError`` before any step.
    """
    if f.shape != plan.shape or rho.shape != plan.shape[:1]:
        raise InvalidArgumentError(f"state shape {f.shape} does not match the plan's {plan.shape}")
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidArgumentError(f"the step count must be an integer, got n={n!r}") from None
    if n < 1:
        raise InvalidArgumentError(f"a call takes at least one step, got n={n}")
    return plan._kernel(f, rho, n)


def solve_banded(lu, rhs: np.ndarray) -> np.ndarray:
    """Solve the implicit density system for one right-hand side.

    ``lu`` is a plan's ``lu``: the ``dpttrs`` routine that the plan bound
    when it factored, then the ``dpttrf`` factors (d, e) of its symmetric
    positive-definite bands, A = L diag(d) L^T with unit lower bidiagonal L
    of subdiagonal e.  ``rhs``, a contiguous row, is overwritten with the
    solution and returned.  This is the same elimination as LAPACK ``ptsv``
    on the bands, without factoring them again each step.
    ``benchmarks/tracer.py`` times the solve by wrapping this module-level
    name, so keep it.
    """
    pttrs, d, e = lu
    pttrs(d, e, rhs, overwrite_b=True)
    return rhs


def _implicit_bands(d_if: np.ndarray, m_v2_half: float, dx: float, dt: float,
                    alpha_c: np.ndarray):
    """Tridiagonal bands (lower, diag, upper) of the implicit density solve.

    With c_j = 2 D_j / dx^2 <= 0 and m the v^2 half-moment of either sign
    (equal on a mirrored quadrature), row i reads
    ``lower[i] rho_{i-1} + diag[i] rho_i + upper[i] rho_{i+1} = rhs_i`` with
    diag[i] = 1/dt + alpha_i - (c_i + c_{i+1}) m and lower[i + 1] =
    upper[i] = c_{i+1} m: symmetric, and diagonally dominant by 1/dt.
    """
    n = alpha_c.size
    c = d_if * (2.0 / dx**2)
    diag = 1.0 / dt + alpha_c - c[1:] * m_v2_half - c[:-1] * m_v2_half
    lower = np.zeros(n)
    upper = np.zeros(n)
    upper[:-1] = lower[1:] = c[1:-1] * m_v2_half
    return lower, diag, upper


def step(state: KineticState, plan: StepPlan, n: int = 1) -> KineticState:
    """Advance the state by ``n`` steps of ``plan``, its dt, scheme,
    material, mesh, quadrature and inflow, in one :func:`apply`.  The time
    takes ``n`` successive additions of dt, the bits of ``n`` calls with
    ``n = 1``.  Repeated steps of one size share a plan."""
    f, rho = apply(plan, state.f, state.rho, n)
    t, dt = state.t, plan.dt
    for _ in range(n):
        t += dt
    return KineticState._stepped(f, rho, t)


def moment_defect(state: KineticState, q: VelocityQuadrature) -> float:
    """max_i |rho_i - <f_i>_h| / (1 + |rho_i|) for the stored state."""
    rho_f = average(q, state.f)
    return float(np.max(np.abs(state.rho - rho_f) / (1.0 + np.abs(state.rho))))

