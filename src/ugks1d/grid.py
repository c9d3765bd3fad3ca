"""Velocity quadrature, spatial mesh, material-coefficient sampling, the MC
slope limiter and the half-range boundary weight.

The discrete velocity average is ``<phi>_h = (1/2) sum_k w_k phi(v_k)`` so the
weights of any quadrature built here sum to 2 and the constant function has
average 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, InvalidDataError

__all__ = [
    "VelocityQuadrature",
    "SpatialMesh",
    "MaterialField",
    "build_gauss_legendre",
    "build_double_gauss",
    "average",
    "wall_density",
    "mc_limiter",
    "sample_material",
]


@dataclass(frozen=True, eq=False)
class VelocityQuadrature:
    """Discrete ordinate nodes/weights on [-1, 1] with precomputed half-moments.

    Nodes are strictly ascending, so the negative nodes are ``nodes[:split]``
    and the positive ones ``nodes[split:]``; ``positive`` is the matching mask.
    Half-moments are the discrete values of <v 1_{v<0}>, <v 1_{v>0}>,
    <v^2 1_{v<0}>, <v^2 1_{v>0}> and <v^2> under this quadrature; the scheme
    uses these rather than the exact integrals to avoid accuracy loss for
    small scaling parameters.  A quadrature equals only itself and hashes by
    identity, so tables derived from it can be cached per quadrature.
    """

    nodes: np.ndarray
    weights: np.ndarray
    positive: np.ndarray = field(init=False)
    split: int = field(init=False)
    m_v_neg: float = field(init=False)
    m_v_pos: float = field(init=False)
    m_v2_neg: float = field(init=False)
    m_v2_pos: float = field(init=False)
    m_v2: float = field(init=False)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise InvalidArgumentError("nodes and weights must be 1-D arrays of equal length")
        if np.any(nodes == 0.0):
            raise InvalidArgumentError("quadrature must not place a node at v = 0")
        if np.any(np.diff(nodes) <= 0):
            raise InvalidArgumentError("quadrature nodes must be strictly ascending")
        pos = nodes > 0
        neg = ~pos
        for arr in (nodes, weights, pos):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "split", int(np.count_nonzero(neg)))
        half = 0.5 * weights
        # Both halves are summed outward from v = 0, so a mirrored rule's
        # half-moments mirror exactly.
        half_neg, nodes_neg = half[neg][::-1], nodes[neg][::-1]
        object.__setattr__(self, "m_v_neg", float(np.sum(half_neg * nodes_neg)))
        object.__setattr__(self, "m_v_pos", float(np.sum(half[pos] * nodes[pos])))
        object.__setattr__(self, "m_v2_neg", float(np.sum(half_neg * nodes_neg ** 2)))
        object.__setattr__(self, "m_v2_pos", float(np.sum(half[pos] * nodes[pos] ** 2)))
        object.__setattr__(self, "m_v2", float(np.sum(half * nodes**2)))

    @property
    def n(self) -> int:
        return self.nodes.size


def _validate_order(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise InvalidArgumentError(f"quadrature order must be an integer, got {n!r}")
    if n % 2 != 0 or n < 2 or n > 512:
        raise InvalidArgumentError(f"quadrature order must be even and in [2, 512], got {n}")


def build_gauss_legendre(n: int) -> VelocityQuadrature:
    """Gauss-Legendre quadrature of even order ``n`` on [-1, 1].

    The even order guarantees no node at v = 0, where upwinding would be
    ambiguous.  Weights sum to 2.  A quadrature is immutable, so each order is
    built once and shared.
    """
    _validate_order(n)
    return _gauss_legendre(int(n))


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> VelocityQuadrature:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return VelocityQuadrature(nodes, weights)


def build_double_gauss(n: int) -> VelocityQuadrature:
    """Half-range (double) Gauss quadrature: n/2 Gauss-Legendre nodes on each
    of [-1, 0] and [0, 1].

    Unlike the full-range rule, this one integrates polynomials exactly on
    each half-range separately, which matters for boundary half-moments of
    odd functions.  Built once per order and shared, like the full-range rule.
    """
    _validate_order(n)
    return _double_gauss(int(n))


@lru_cache(maxsize=16)
def _double_gauss(n: int) -> VelocityQuadrature:
    x, w = np.polynomial.legendre.leggauss(n // 2)
    vpos = 0.5 * (x + 1.0)
    wpos = 0.5 * w
    nodes = np.concatenate((-vpos[::-1], vpos))
    weights = np.concatenate((wpos[::-1], wpos))
    return VelocityQuadrature(nodes, weights)


@lru_cache(maxsize=16)
def _half_range_weights(q: VelocityQuadrature) -> np.ndarray:
    """w W(|v|) at the nodes of ``q`` for the Chandrasekhar-type half-range
    weight W(v) = v + (3/2) v^2, scaled so that sum_{v>0} w W = 1 on this
    quadrature, so isotropic inflow maps to itself to rounding."""
    v = np.abs(q.nodes)
    w_norm = v + 1.5 * v**2
    w_norm = w_norm / float(np.sum(q.weights[q.split:] * w_norm[q.split:]))
    out = q.weights * w_norm
    out.setflags(write=False)
    return out


def wall_density(q: VelocityQuadrature, f_in: np.ndarray, inc: slice) -> float:
    """Wall density ``2 <W f_in 1_inc>_h`` of inflow ``f_in`` sampled at the
    nodes of ``q``, over its incoming half ``inc`` (``slice(split, None)``
    at the left wall, ``slice(0, split)`` at the right): the corrected
    boundary density of the UGKS and the Dirichlet value of its diffusion
    limit."""
    return float((_half_range_weights(q)[inc] * f_in[inc]).sum())


# The MC limiter's theta, which scales the one-sided differences: 1 gives
# minmod, 2 the monotonized central limiter.
MC_THETA = 1.5


def mc_limiter(dx: float, out: np.ndarray, work: np.ndarray):
    """``limit(x)``, which writes the MC-limited slope of ``x``, a
    C-contiguous array of ``out``'s shape, along its last axis into ``out``
    and returns it: the three-argument minmod of the central and the two
    ``MC_THETA``-scaled one-sided differences, zero on sign disagreement
    and in the first and last cells.  ``work``, of shape (3, out.size - 1),
    holds the differences.  Every view of the two is sliced here, once.

    The work runs on ``x`` flattened: every pass is then one contiguous
    sweep, and the differences that cross from one row into the next land
    in first and last cells, which are zeroed.  One difference array d,
    scaled by theta/dx in place, gives both one-sided differences as d[:-1]
    and d[1:].
    """
    d, a, lower = work[0], work[1, :-1], work[2, :-1]
    b, c = d[:-1], d[1:]
    upper = out.reshape(-1)[1:-1]
    ends = out[..., ::max(out.shape[-1] - 1, 1)]   # the first and last cells
    two_dx, theta, dx, zero = np.array(2.0 * dx), np.array(MC_THETA), np.array(dx), np.array(0.0)
    subtract, multiply, divide, minimum, maximum = np.subtract, np.multiply, np.divide, np.minimum, np.maximum

    def limit(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1)
        subtract(flat[1:], flat[:-1], d)
        subtract(flat[2:], flat[:-2], a)
        divide(a, two_dx, a)
        # d * 2 theta, with one division by 2 dx after the minmod, rounds subnormals differently
        multiply(d, theta, d)
        divide(d, dx, d)
        # minmod of a, b and c: a clipped to [min(max(b, c), 0), max(min(b, c), 0)].
        # The interval is [0, min(b, c)] when b, c > 0, [max(b, c), 0] when
        # b, c < 0 and {0} otherwise; clipping only selects, so no bit changes.
        # numpy 2.4 deprecates a positional output of minimum and maximum.
        minimum(b, c, out=upper)
        maximum(b, c, out=lower)
        minimum(lower, zero, out=lower)
        maximum(upper, zero, out=upper)
        minimum(a, upper, out=upper)
        maximum(upper, lower, out=upper)
        ends.fill(0.0)
        return out
    return limit


def average(q: VelocityQuadrature, samples: np.ndarray) -> float:
    """Discrete velocity average ``(1/2) sum_k w_k samples_k``.

    For a 2-D input of shape (m, n_nodes) the average is taken along the last
    axis and an array of length m is returned.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1] != q.n:
        raise InvalidArgumentError(
            f"sample length {samples.shape[-1]} does not match node count {q.n}"
        )
    out = samples @ (0.5 * q.weights)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform cell-centered mesh on [x_min, x_max] with at least two cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if self.n_cells < 2:
            raise InvalidArgumentError(f"n_cells must be >= 2, got {self.n_cells}")
        if not self.x_max > self.x_min:
            raise InvalidArgumentError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class MaterialField:
    """Per-cell and per-interface samples of sigma, alpha and the source G.

    Interface values are arithmetic means of the adjacent cell values; the
    two boundary interfaces copy the adjacent cell value.
    """

    sigma_cell: np.ndarray
    alpha_cell: np.ndarray
    g_cell: np.ndarray
    sigma_iface: np.ndarray
    alpha_iface: np.ndarray
    g_iface: np.ndarray

    def __post_init__(self) -> None:
        n = self.sigma_cell.size
        for name in ("alpha_cell", "g_cell"):
            if getattr(self, name).size != n:
                raise InvalidArgumentError(f"{name} must have {n} entries")
        for name in ("sigma_iface", "alpha_iface", "g_iface"):
            if getattr(self, name).size != n + 1:
                raise InvalidArgumentError(f"{name} must have {n + 1} entries")
        for arr in (self.sigma_cell, self.alpha_cell, self.g_cell,
                    self.sigma_iface, self.alpha_iface, self.g_iface):
            arr.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return self.sigma_cell.size


def _sample(fn: Callable[[float], float] | float, out: np.ndarray, mesh: SpatialMesh) -> None:
    """Write ``fn`` at the cell centres of ``mesh`` into ``out``: a constant
    fills it; a callable is called once on the centres and, if that fails or
    gives another shape, once per centre."""
    if np.isscalar(fn) or isinstance(fn, (int, float)):
        out.fill(float(fn))
        return
    x = mesh.centers
    try:
        vals = np.asarray(fn(x), dtype=float)
        if vals.shape == x.shape:
            out[:] = vals
            return
    except (TypeError, ValueError):
        pass
    out[:] = [float(fn(xi)) for xi in x]


def sample_material(
    sigma: Callable[[float], float] | float,
    alpha: Callable[[float], float] | float,
    source: Callable[[float], float] | float,
    mesh: SpatialMesh,
) -> MaterialField:
    """Sample sigma(x), alpha(x), G(x) at cell centers and build interface values.

    Cell values are midpoint samples; interface values are arithmetic means of
    the adjacent cells (boundary interfaces copy the adjacent cell).  The
    three fields are rows of one (3, n) cell array and one (3, n + 1)
    interface array, validated and averaged together.
    """
    n = mesh.n_cells
    cell = np.empty((3, n))
    for row, fn in zip(cell, (sigma, alpha, source)):
        _sample(fn, row, mesh)
    sigma_neg, alpha_neg = (cell[:2] < 0).any(axis=1)
    if sigma_neg:
        raise InvalidDataError("sigma(x) sampled negative")
    if alpha_neg:
        raise InvalidDataError("alpha(x) sampled negative")
    if not np.isfinite(cell).all():
        raise InvalidDataError("material sample is not finite")
    iface = np.empty((3, n + 1))
    mid = np.add(cell[:, :-1], cell[:, 1:], out=iface[:, 1:-1])
    mid *= 0.5
    # Columns 0 and n of the interfaces copy columns 0 and n - 1 of the cells.
    iface[:, ::n] = cell[:, ::n - 1]
    return MaterialField(*cell, *iface)
