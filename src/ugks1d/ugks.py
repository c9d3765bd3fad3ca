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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .coeffs import blend_parameter, coefficient_arrays
from .errors import InvalidArgumentError, InvalidDataError, SolverFailureError
from .grid import MaterialField, SpatialMesh, VelocityQuadrature, average, mc_slopes, wall_density

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
    stabilized, corrected, and blended boundary densities.
    """

    f_left: np.ndarray
    f_right: np.ndarray
    mode: str = "stabilized"

    def __post_init__(self) -> None:
        if self.mode not in BC_MODES:
            raise InvalidArgumentError(f"unknown boundary mode {self.mode!r}")
        self.f_left.setflags(write=False)
        self.f_right.setflags(write=False)

    @classmethod
    def from_functions(cls, f_left, f_right, q: VelocityQuadrature,
                       mode: str = "stabilized") -> "BoundarySpec":
        v = q.nodes
        fl = np.array([float(f_left(vk)) for vk in v]) if callable(f_left) else np.full(q.n, float(f_left))
        fr = np.array([float(f_right(vk)) for vk in v]) if callable(f_right) else np.full(q.n, float(f_right))
        h = q.split
        if (fl[h:] < 0).any() or (fr[:h] < 0).any():
            raise InvalidDataError("inflow samples must be nonnegative on their incoming half-range")
        return cls(f_left=fl, f_right=fr, mode=mode)


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection: scaling parameter, CFL policy, reconstruction order
    and diffusion (slope) time level, which a :class:`StepPlan` fixes;
    ``cfl`` enters only :func:`cfl_timestep`.  The collision model is not
    part of it: :func:`step` is the isotropic one, ``penalized_step`` the
    general."""

    eps: float
    cfl: float = 0.9
    reconstruction: str = "first_order"
    diffusion_mode: str = "explicit_slopes"

    def __post_init__(self) -> None:
        if not self.eps > 0:
            raise InvalidArgumentError("eps must be positive")
        if not 0 < self.cfl <= 1:
            raise InvalidArgumentError("cfl must lie in (0, 1]")
        if self.reconstruction not in ("first_order", "mc_limited"):
            raise InvalidArgumentError(f"unknown reconstruction {self.reconstruction!r}")
        if self.diffusion_mode not in ("explicit_slopes", "implicit_slopes"):
            raise InvalidArgumentError(f"unknown diffusion mode {self.diffusion_mode!r}")


def _wall(q: VelocityQuadrature, wv: np.ndarray, mode: str, f_in: np.ndarray, inc: slice,
          m_out: float, theta: Optional[float]):
    """Boundary density rho_{1/2} of one wall in ``mode`` and the inflow
    part of its macroscopic flux times eps, from the inflow ``f_in`` on the
    wall's incoming nodes ``inc`` and its outgoing half-moment ``m_out`` of
    v; ``wv`` holds the weights of <v .>_h.  The corrected density is
    :func:`grid.wall_density`, the half-range weighted density that the
    diffusion oracle takes as its Dirichlet value; ``theta`` weighs it in a
    ``blended`` wall."""
    stab_inflow = float(f_in[inc].dot(wv[inc]))
    rho_stab = -stab_inflow / m_out
    if mode == "stabilized":
        return rho_stab, stab_inflow
    rho_corr = wall_density(q, f_in, inc)
    corr_inflow = -m_out * rho_corr
    if mode == "corrected":
        return rho_corr, corr_inflow
    return ((1.0 - theta) * rho_stab + theta * rho_corr,
            (1.0 - theta) * stab_inflow + theta * corr_inflow)


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
    """Everything in one step of size dt that does not depend on the state.

    The update is linear, so for a fixed dt the interface coefficients, the
    boundary densities with their inflow fluxes, the reciprocals of dt and of
    both relaxation denominators, and the implicit bands with their LDL^T
    factors are constants.  A plan computes them once; build one per
    distinct dt and advance with :func:`apply`, :func:`step` or
    ``penalized_step``: besides the state, the plan is a step's whole input,
    its dt, scheme (``eps`` kept for the penalized source), material, mesh,
    quadrature and inflow.  ``coeffs`` takes the ``coefficient_arrays``
    tuple when the caller has already evaluated it.  For
    ``implicit_slopes``, ``bands`` is (lower, diag, upper) and ``lu`` is
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
    (``source_fold``), and the MC slope df, whose reconstruction shift
    sgn(v) dx/2 and B-term B v^2 df_up it carries, as ``mc_lambda`` df with
    sgn(v) dx/2 + v B/A; neither has a stencil pair or moment product of
    its own.  Everything else, the interface-density, D-slope,
    scalar-source and relaxation terms, is one product
    ``node_cols @ cell_rows`` of a (nodes, 6) constant with a (6, cells)
    block per step; its last two columns put the wall inflow in place of
    the interface terms at the walls.  One per-wall path, run once for
    each wall, builds a wall's density ``rho_half``, the terms of its
    macroscopic flux ``wall_terms``, its column of ``node_cols`` and the
    row that selects its cell: the right wall is the left one under
    v -> -v.  No per-node array spans the cells + 1 interfaces: the
    macroscopic flux Phi is O(cells) work on per-half moments of F, kept
    with the other interface rows in one padded row block, so one flat
    difference gives the density update's divergence and the product's
    interface differences at once.

    The plan owns its constants (``stencil``, ``node_cols``, ``row_scale``,
    ``d_slope``, ``coef_rows``, ``mc_lambda`` and the wall terms; the moment
    rows are a read-only table shared by every plan on one quadrature, and
    ``ones``, the finite guard's vectors of nodes + 1 and of cells ones,
    are shared by every plan of their sizes;
    ``source_fold`` is built on a plan's first sourced step) and its
    scratch: ``iface``, the row block behind ``phi`` and ``cell_rows``,
    ``scratch`` and ``stencil_scratch``, its flat shifted views for the
    stencil's downwind add (:func:`_stencil_scratch`), the MC buffers
    ``slope`` and ``mc_work`` and, built on first use, ``up_state`` and
    ``scaled_source``, which every step overwrites, so a plan must not be
    applied from two threads at once.  Nothing a step returns aliases
    them: each step writes f^{n+1} and rho^{n+1} into one new array that
    the caller owns.  The (nodes, cells) buffers of the plan start on a
    64-byte boundary (:func:`_aligned_empty`): ``up_state``,
    ``scaled_source`` and the block that holds the stencil pair,
    ``scratch`` and the four MC arrays, inside which each buffer starts
    on a boundary when nodes x cells is a multiple of 8.  At 16 x 2000 a
    numpy store into an output that does not takes about twice as long.
    The step's output block is a plain ``np.empty``, since aligning it costs about 2.4 us a step, more
    than it saves below a few hundred cells, and gained nothing at 200 or
    2000; the O(cells) row block and the moment buffers gained nothing
    measurable from it either.
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
        inv_dx = 1.0 / dx
        self.dt, self.dx, self.eps = dt, dx, eps
        self.shape, self.split = (n, k), h
        self.implicit = cfg.diffusion_mode == "implicit_slopes"
        self.second_order = cfg.reconstruction == "mc_limited"
        self.a, self.e = a, e
        self.g_cell = mat.g_cell if np.count_nonzero(mat.g_cell) else None
        g_if = mat.g_iface
        self.eg = e * g_if if np.count_nonzero(g_if) else None
        self.inv_dt = 1.0 / dt
        self.inv_den_rho = 1.0 / (self.inv_dt + mat.alpha_cell)
        self.relax = mat.sigma_cell / eps**2
        self.inv_den_f = idf = 1.0 / (self.inv_dt + self.relax + mat.alpha_cell)
        tables = _node_tables(q)
        self.moments = tables.moments

        self.iface = _moment_scratch(2, n)
        moments = self.iface[-1]
        self.rho_if = moments[1]
        # (rho_if[1:], rho_if[:-1]) as one view of the flat result, in which
        # rho_if starts at n + 1: the row stride is one element back.
        size = moments.itemsize
        self.rho_if_pair = np.ndarray((2, n), buffer=self.iface[3], offset=(n + 2) * size,
                                      strides=(-size, size))
        # Times the moments, (A <v f_up>_h, C rho_if) in one multiply.
        self.coef_rows = np.array((a, c))

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
        self.phi = block[0]
        self.iface_rows = block[:2]
        self.d_rows = block[2:4]
        self.slopes = flat[2 * w + 1:4 * w - 1].reshape(2, n)
        # The v < 0 row's factor is negated: its difference is taken the
        # other way round, rho_if[:-1] - rho.
        self.d_slope = np.empty((2, n))
        np.multiply(2.0 / dx, d[1:], out=self.d_slope[0])
        np.multiply(-2.0 / dx, d[:-1], out=self.d_slope[1])
        here, right, diff = flat[:4 * w - 1], flat[1:4 * w], flat[4 * w:8 * w - 1]
        self.row_diff = ((here, right, diff),)
        if self.implicit:
            cut = 2 * w
            self.row_diff = ((here[:cut - 1], right[:cut - 1], diff[:cut - 1]),
                             (here[cut:], right[cut:], diff[cut:]))
        self.phi_term, self.div_phi = block[4], block[4, :n]
        self.relax_row = block[8, :n]
        self.scaled_rows = flat[5 * w:9 * w]
        self.cell_rows = block[5:, :n]
        self.inv_dx = inv_dx
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
        self.row_scale = row_scale.reshape(-1)
        self.node_cols = tables.cell_cols.copy()
        thetas = (None, None)
        if bc.mode == "blended":
            thetas = blend_parameter(np.array((float(nu[0]), float(nu[-1]))), dt).tolist()
        rho_half, wall_terms = [], []
        # One path builds both walls.  The right wall is the left one under
        # v -> -v: incoming nodes v < 0, outgoing half-moments of v > 0 and
        # outward sign s = +1.  Its interface is -1, but its cell in the
        # block's cells + 1 columns is n - 1.
        for j, (f_in, inc, m_out, m2_out, s, wall, cell) in enumerate((
                (bc.f_left, slice(h, None), q.m_v_neg, q.m_v2_neg, -1.0, 0, 0),
                (bc.f_right, slice(0, h), q.m_v_pos, q.m_v2_pos, 1.0, -1, n - 1))):
            rho, inflow = _wall(q, tables.wv, bc.mode, f_in, inc, m_out, thetas[j])
            rho_half.append(rho)
            # ugks_id keeps only the interface-density part of the D-fluxes
            # explicit; at the walls that is a constant.
            d_wall = s * (2.0 * d.item(wall) / dx) * m2_out * rho if self.implicit else 0.0
            # The terms of the wall's macroscopic flux after the upwind one,
            # added in this order (inflow, C, E, explicit D): they cancel to
            # O(1) from O(1/eps), so the order fixes the bits.
            wall_terms.append((wall, inflow / eps, c.item(wall) * m_out * rho,
                               e.item(wall) * m_out * g_if.item(wall), d_wall))
            r0 = c.item(wall) * rho
            if self.eg is not None:
                r0 += self.eg.item(wall)
            # s r0 - f_in/(s eps) is exactly f_in/eps - r0 on the left and
            # r0 - f_in/eps on the right, the signs of zeros included.
            np.multiply(q.nodes[inc], s * r0 - f_in[inc] / (s * eps), out=self.node_cols[inc, 4 + j])
            block[9 + j, cell] = idf_dx[cell]
        self.rho_half, self.wall_terms = tuple(rho_half), tuple(wall_terms)

        # The (nodes, cells) arrays are one allocation: as separate blocks at
        # 2000 cells, each plan touched fresh pages and took 2.7 times as
        # long to build.  Blocks 0-1 are the stencil pair, 2 the step's
        # scratch; with MC, 3-4 the slope's two factors, 5 the slopes and
        # 6-8 the limiter's differences.  The block starts on a 64-byte
        # boundary, and so does each (k, n) block inside it when k * n is a
        # multiple of 8, as with 16 nodes.
        big = _aligned_empty((9 if self.second_order else 3, k, n))
        self.stencil = _stencil_pair(tables.upwind_cols, a[None, :], idf_dx, self.inv_dt * idf,
                                     out=big[:2])
        self.scratch = big[2]
        self.stencil_scratch = _stencil_scratch(self.scratch, h)
        self.ones = (_ones(k + 1), _ones(n))
        if self.second_order:
            # The reconstruction moves each upwind value dx/2 toward its exit
            # interface, and B v^2 df_up joins A v f_up there: the flux is
            # A v (f + lambda_s df)_up with lambda_s = sgn(v) dx/2 + v B/A.
            # The stencil's diagonal then carries (1/dt) lambda_s df times
            # the relaxation factor, which ``mc_diag`` df takes back out.
            # Both factors are full (nodes, cells) arrays: a multiply that
            # broadcasts a row allocates a buffer of the state's size.
            self.mc_lambda = lam = self._exit_values(b / a, out=big[3])
            lam *= q.nodes[:, None]
            lam[h:] += 0.5 * dx
            lam[:h] -= 0.5 * dx
            self.mc_diag = np.multiply(lam, self.inv_dt * idf, out=big[4])
            self.slope = big[5]
            self.mc_work = big[6:].reshape(3, -1)[:, :k * n - 1]

        if self.implicit:
            if q.m_v2_pos != q.m_v2_neg:
                raise InvalidArgumentError("ugks_id needs a mirrored quadrature: its v^2 half-moments differ")
            self.bands = _implicit_bands(d, q.m_v2_pos, dx, dt, mat.alpha_cell)
            _, diag, upper = self.bands
            from scipy.linalg.lapack import dpttrf, dpttrs
            *factors, info = dpttrf(diag, upper[:-1])
            if info != 0:
                raise SolverFailureError(f"implicit density matrix not positive definite (dpttrf info={info})")
            self.lu = (dpttrs, *factors)
        else:
            self.m_v2_halves = tables.m_v2_halves

    def _exit_values(self, row: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Node-major (nodes, cells) array of the per-interface ``row`` at
        the interface through which each cell's value of each velocity half
        leaves: interface i + 1 for v > 0, i for v < 0."""
        h = self.split
        if out is None:
            out = np.empty(self.shape[::-1])
        out[h:] = row[1:]
        out[:h] = row[:-1]
        return out

    @cached_property
    def up_state(self) -> np.ndarray:
        """Scratch for the upwind state of a sourced or MC step, built on a
        plan's first such step."""
        return _aligned_empty(self.shape[::-1])

    @cached_property
    def scaled_source(self) -> np.ndarray:
        """Scratch for the source lambda g of a sourced step
        (``penalized_source``), built on a plan's first such step."""
        return _aligned_empty(self.shape[::-1])

    @cached_property
    def source_fold(self):
        """(lambda, kappa) that fold a per-node source g into the step.

        lambda is E/A of the interface through which each cell's value of
        each velocity half leaves.  The diagonal of ``stencil`` acting on
        F + lambda g carries lambda/dt of g's cell-local term; kappa =
        (A/E - 1/dt) times the relaxation factor adds the rest to
        lambda g.  Node-major (nodes, cells) arrays, or scalars where they
        are uniform, as on ``PenalizedOperator.material``.
        """
        lam, kappa = (self._exit_values(row) for row in (self.e / self.a, self.a / self.e - self.inv_dt))
        kappa *= self.inv_den_f
        if np.ptp(lam) == 0 and np.ptp(kappa) == 0:
            return float(lam[0, 0]), float(kappa[0, 0])
        return lam, kappa


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-contiguous float array of ``shape`` that starts on
    a 64-byte boundary, a cache line: over-allocated by 7 doubles and cut
    to the boundary.  A plan's state-size scratch and constants use it,
    since a numpy store into a (16, 2000) output that starts off a boundary
    takes about twice as long (AVX-512).  Reading the address costs
    about 1.5 us, so a plan calls this when it builds a buffer, once; the
    array interface, unlike ``.ctypes``, imports nothing."""
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
    the weights of <v .>_h.
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
    """Buffers of :func:`_upwind_moments` for m moments on n cells: a
    zeroed flat buffer that holds the 2m per-half rows with a stride of
    n + 1 after one leading zero, and the (m, n + 1) result.  Interface j
    adds the v > 0 row at cell j - 1 to the v < 0 row at cell j, which this
    layout puts at one fixed flat offset for every row and interface."""
    w = n + 1
    buf = np.zeros(1 + 3 * m * w)
    out = buf[1 + 2 * m * w:]
    return (buf[1:1 + 2 * m * w].reshape(2 * m, w)[:, :n], buf[:m * w], buf[m * w + 1:2 * m * w + 1],
            out, out.reshape(m, w))


def _upwind_moments(half_rows: np.ndarray, x: np.ndarray, scratch,
                    flux_x: Optional[np.ndarray] = None) -> np.ndarray:
    """Per interface, moments of the node-major ``x`` at its upwind cell:
    the v > 0 half of interface j comes from cell j-1, the v < 0 half from
    cell j, and the inflow half of each wall interface is zero.
    ``half_rows`` comes from :func:`_half_rows` and ``scratch`` from
    :func:`_moment_scratch`; returns the (m, cells + 1) result.  With
    ``flux_x``, the moments are a plan's (flux, density) pair, and the flux
    moment is taken of ``flux_x`` instead."""
    per_cell, pos, neg, out, result = scratch
    if flux_x is None:
        np.matmul(half_rows, x, per_cell)
    else:
        np.matmul(half_rows[0::2], flux_x, per_cell[0::2])
        np.matmul(half_rows[1::2], x, per_cell[1::2])
    np.add(pos, neg, out)
    return result


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


def _stencil_scratch(tmp: np.ndarray, split: int):
    """Buffers of :func:`_add_stencil` on a C-contiguous (nodes, cells)
    temporary ``tmp`` whose v < 0 rows are the first ``split``: ``tmp``,
    the flat views of it that the shifted add reads for the v > 0 and the
    v < 0 rows, and the flat offset of the v > 0 rows."""
    t = tmp.reshape(-1)
    cut = split * tmp.shape[1]
    return tmp, t[cut:-1], t[1:cut], cut


def _add_stencil(out: np.ndarray, stencil, x: np.ndarray, scratch) -> None:
    """out += S_d x, plus S_o x moved one cell downwind: right in the v > 0
    rows, left in the v < 0 rows.  The move is a shifted add on each half's
    flattened rows; S_o is zero in the column that would wrap into the next
    row.  ``scratch`` comes from :func:`_stencil_scratch`."""
    s_d, s_o = stencil
    tmp, t_pos, t_neg, cut = scratch
    np.multiply(s_d, x, tmp)
    np.add(out, tmp, out)
    np.multiply(s_o, x, tmp)
    o = out.reshape(-1)
    pos, neg = o[cut + 1:], o[:cut - 1]
    np.add(pos, t_pos, pos)
    np.add(neg, t_neg, neg)


def apply(plan: StepPlan, f: np.ndarray, rho: np.ndarray,
          scaled_source: Optional[np.ndarray] = None):
    """Advance (f, rho) by one step of the plan's dt; returns (f_new, rho_new).

    ``f`` has shape (cells, nodes) in any memory order; the step reads it
    through the node-major ``f.T``, copied only when that is not contiguous,
    and gives the same bits for either order.  The step overwrites the
    plan's scratch buffers.  ``f_new`` and ``rho_new`` are views of one new
    (nodes + 1, cells) array that belongs to the caller: its first rows are
    the node-major f^{n+1}, so ``f_new`` is F-ordered, and its last row is
    rho^{n+1}.  ``scaled_source`` is lambda g, with lambda =
    ``plan.source_fold[0]``, for a per-cell, per-node source g with zero
    velocity mean (the penalized leftover), added to the plan's scalar
    source; the caller folds lambda into the last pass that makes g.  The
    upwind stencil and the flux moments then act on the one state
    F + lambda g, the density moments on F, and kappa (lambda g) adds g's
    cell-local rest.  The MC slope df joins that state the same way, as
    ``plan.mc_lambda`` df; it is zero in the wall cells, so the wall
    interfaces' moments keep the bits of the first-order step.  A
    non-finite result raises ``SolverFailureError``: the guard sums f and
    rho by a BLAS gemv and dot with the plan's vectors of ones.

    At a few hundred cells a numpy call costs more in dispatch than in
    arithmetic, so every ``add``, ``subtract``, ``multiply`` and ``matmul``
    of the step takes its output positionally, 35-100 ns less than
    ``out=``; ``minimum`` and ``maximum`` keep ``out=``, since numpy 2.4
    deprecates a positional output there and its warning path made
    ``mc_slopes`` 1.9 times as slow at 25 cells.
    """
    p = plan
    if f.shape != p.shape or rho.shape != p.shape[:1]:
        raise InvalidArgumentError(f"state shape {f.shape} does not match the plan's {p.shape}")
    n, k = p.shape
    fn = np.ascontiguousarray(f.T)
    up_state = fn
    if scaled_source is not None:
        lam_g = np.ascontiguousarray(scaled_source.T)
        up_state = np.add(fn, lam_g, p.up_state)
    if p.second_order:
        df = mc_slopes(fn, p.dx, out=p.slope, work=p.mc_work)
        up_state = np.add(up_state, np.multiply(p.mc_lambda, df, p.scratch), p.up_state)
        df *= p.mc_diag
    moments = _upwind_moments(p.moments, fn, p.iface, flux_x=None if up_state is fn else up_state)
    p.rho_if[0], p.rho_if[-1] = p.rho_half
    np.multiply(p.coef_rows, moments, p.iface_rows)
    phi = p.phi
    for wall, inflow, c_term, e_term, d_term in p.wall_terms:
        phi[wall] = float(phi[wall]) + inflow + c_term + e_term + d_term
    if p.eg is not None:
        p.iface_rows[1] += p.eg
    # ugks_id's D-terms couple the time-(n+1) densities and go to the solve;
    # like C rho_if, their interface-density part averages to zero.
    if not p.implicit:
        # Row 4 is free until the difference: it holds Phi's last term.
        _d_slope_rows(p, rho)
        phi += np.matmul(p.m_v2_halves, p.d_rows, p.phi_term)
    here, right, diff = p.row_diff[0]
    np.subtract(here, right, diff)

    out = np.empty((k + 1, n))
    f_new, rho_new = out[:k], out[k]
    np.multiply(rho, p.inv_dt, rho_new)
    div_phi = p.div_phi
    div_phi *= p.inv_dx
    rho_new += div_phi
    if p.g_cell is not None:
        rho_new += p.g_cell
    if p.implicit:
        solve_banded(p.lu, rho_new)
        _d_slope_rows(p, rho_new)
        here, right, diff = p.row_diff[1]
        np.subtract(here, right, diff)
    else:
        rho_new *= p.inv_den_rho

    relax_row = p.relax_row
    np.multiply(p.relax, rho_new, relax_row)
    if p.g_cell is not None:
        relax_row += p.g_cell
    p.scaled_rows *= p.row_scale
    np.matmul(p.node_cols, p.cell_rows, f_new)
    _add_stencil(f_new, p.stencil, up_state, p.stencil_scratch)
    if scaled_source is not None:
        np.multiply(p.source_fold[1], lam_g, p.scratch)
        f_new += p.scratch
    if p.second_order:
        f_new -= df
    # The row sums of f and rho and then their sum, a BLAS gemv and dot
    # with ones: a NaN or an infinity anywhere, or a sum that overflows,
    # makes it non-finite.  A flat dot with (nodes + 1) * cells ones is
    # cheaper alone, but made the 2000-cell ugks_id step 4% slower.
    row_ones, cell_ones = p.ones
    if not math.isfinite(row_ones.dot(out.dot(cell_ones))):
        raise SolverFailureError("non-finite values after step")
    return f_new.T, rho_new


def _d_slope_rows(p: StepPlan, rho: np.ndarray) -> None:
    """The D-slope interface rows of ``rho``: rho_if[1:] - rho times the
    v > 0 factor, rho_if[:-1] - rho times the negated v < 0 one."""
    np.subtract(p.rho_if_pair, rho, p.slopes)
    p.slopes *= p.d_slope


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


def step(state: KineticState, plan: StepPlan) -> KineticState:
    """Advance the state by one step of ``plan`` (isotropic collision
    operator): its dt, scheme, material, mesh, quadrature and inflow.
    Repeated steps of one size share a plan."""
    f_new, rho_new = apply(plan, state.f, state.rho)
    return KineticState(f=f_new, rho=rho_new, t=state.t + plan.dt)


def moment_defect(state: KineticState, q: VelocityQuadrature) -> float:
    """max_i |rho_i - <f_i>_h| / (1 + |rho_i|) for the stored state."""
    rho_f = average(q, state.f)
    return float(np.max(np.abs(state.rho - rho_f) / (1.0 + np.abs(state.rho))))

