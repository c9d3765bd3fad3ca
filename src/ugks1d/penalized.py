"""Penalized stepping for general linear collision operators.

A bounded symmetric kernel k(v, v') defines ``L f = int k (f' - f) dv'``.
Rewriting ``L = (L - theta R) + theta R`` with R the isotropic relaxation
operator turns the stiff part into plain relaxation; the weight
``theta = -<v^2>/<v L^{-1} v>`` is the unique choice reproducing the kernel's
diffusion coefficient, and the leftover ``g = (L - theta R) f / eps^2`` rides
along as a zero-mean, velocity-dependent source.  L annihilates constants,
so L f = L (f - rho) and g = (L + theta I)(f - rho)/eps^2: ``penalized_source``
takes the difference first, exactly 0 at equilibrium, and then one product
with (lambda/eps^2)(M + theta I), M the matrix of L.  The source needs no
flux of its own: each cell's value of one velocity half leaves through one
interface, where the upwind fluxes A v f_up + E v g_up are A v (f + lambda
g)_up with lambda = E/A, so a step transports the one state f + lambda g
and adds the cell-local rest of g (``StepPlan.source_fold``).  A plan built
with ``source=op.shifted`` makes lambda g in its step as ``penalized_source``
does standing alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, InvalidKernelError
from .grid import MaterialField, VelocityQuadrature, average
from .ugks import KineticState, StepPlan, step

__all__ = [
    "ScatteringKernel",
    "PenalizedOperator",
    "assemble_operator",
    "pseudo_inverse_v",
    "penalization_theta",
    "penalized_step",
]


@dataclass(frozen=True)
class ScatteringKernel:
    """Kernel k(v_j, v_k) sampled on quadrature node pairs.

    Requires positive entries and symmetry (self-adjointness of the
    resulting operator underpins the stability proposition).  Its bounds
    ``k_min`` and ``k_max`` are those of the table.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        t = self.table
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InvalidKernelError("kernel table must be square")
        # np.allclose(t, t.T, rtol=1e-12, atol=1e-14), without its wrappers.
        with np.errstate(invalid="ignore"):
            tt = t.T
            close = (np.abs(t - tt) <= 1e-14 + 1e-12 * np.abs(tt)) & np.isfinite(tt) | (t == tt)
        if not close.all():
            raise InvalidKernelError("kernel table must be symmetric")
        if not self.k_min > 0:
            raise InvalidKernelError("kernel entries must be positive")
        t.setflags(write=False)

    @property
    def k_min(self) -> float:
        return float(self.table.min())

    @property
    def k_max(self) -> float:
        return float(self.table.max())

    @classmethod
    def isotropic(cls, c: float, q: VelocityQuadrature) -> "ScatteringKernel":
        """Constant kernel k = c/2, equivalent to the relaxation operator c R."""
        if not c > 0:
            raise InvalidKernelError("isotropic kernel constant must be positive")
        return cls(table=np.full((q.n, q.n), 0.5 * c))

    @classmethod
    def from_table(cls, table: np.ndarray, q: VelocityQuadrature) -> "ScatteringKernel":
        table = np.array(table, dtype=float)
        if table.shape != (q.n, q.n):
            raise InvalidKernelError(
                f"kernel table shape {table.shape} does not match quadrature size {q.n}")
        return cls(table=table)


def assemble_operator(kernel: ScatteringKernel, q: VelocityQuadrature) -> np.ndarray:
    """Discrete collision matrix: (L f)_j = sum_k w_k k_jk f_k - f_j sum_k w_k k_jk.

    The kernel integral runs over the full interval, so the quadrature weights
    enter without the 1/2 of the averaging bracket.
    """
    if kernel.table.shape != (q.n, q.n):
        raise InvalidArgumentError("kernel table does not match the quadrature")
    out = kernel.table * q.weights[None, :]
    out.flat[::q.n + 1] -= out.sum(axis=1)
    return out


def pseudo_inverse_v(op: np.ndarray, q: VelocityQuadrature) -> np.ndarray:
    """Solve L psi = v on the zero-mean subspace (psi = L^{-1} v).

    Uses the augmented saddle formulation: append the mean constraint with a
    multiplier and solve the dense system directly.  The node count is small,
    so dense elimination is appropriate.
    """
    n = q.n
    v = q.nodes
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = op
    aug[:n, n] = 1.0
    aug[n, :n] = 0.5 * q.weights
    rhs = np.concatenate((v, [0.0]))
    try:
        sol = np.linalg.solve(aug, rhs)
    except np.linalg.LinAlgError as exc:
        raise InvalidKernelError(f"pseudo-inverse solve failed: {exc}") from exc
    psi = sol[:n]
    psi = psi - average(q, psi)
    vmax = float(np.abs(v).max())
    if float(np.abs(op @ psi - v).max()) > 1e-10 * vmax:
        raise InvalidKernelError("pseudo-inverse residual too large; kernel likely violates k_min > 0")
    if abs(average(q, psi)) > 1e-12:
        raise InvalidKernelError("pseudo-inverse mean constraint violated")
    return psi


def penalization_theta(op: np.ndarray, q: VelocityQuadrature) -> float:
    """theta = -<v^2>_h / <v L^{-1} v>_h; positive for any admissible kernel."""
    theta = -q.m_v2 / average(q, q.nodes * pseudo_inverse_v(op, q))
    if not theta > 0:
        raise InvalidKernelError(f"penalization weight must be positive, got {theta}")
    return float(theta)


@dataclass(frozen=True)
class PenalizedOperator:
    """Precomputed collision matrix M, penalization weight theta and
    ``shifted`` = M + theta I, the matrix of the penalized source on
    F - rho (:func:`penalized_source`) and the ``source`` of the operator's
    step plans.  Both matrices are read-only."""

    matrix: np.ndarray
    theta: float
    shifted: np.ndarray

    @classmethod
    def build(cls, kernel: ScatteringKernel, q: VelocityQuadrature) -> "PenalizedOperator":
        op = assemble_operator(kernel, q)
        theta = penalization_theta(op, q)
        shifted = op.copy()
        shifted.flat[::q.n + 1] += theta
        op.setflags(write=False)
        shifted.setflags(write=False)
        return cls(matrix=op, theta=theta, shifted=shifted)

    def material(self, mat: MaterialField) -> MaterialField:
        """The relaxation part as a material: sigma = theta, with the
        absorption alpha and the isotropic source G of ``mat``."""
        n = mat.n_cells
        return replace(mat, sigma_cell=np.full(n, self.theta), sigma_iface=np.full(n + 1, self.theta))


def penalized_source(f: np.ndarray, rho: np.ndarray, op: PenalizedOperator, eps: float,
                     lam=1.0, out: Optional[np.ndarray] = None,
                     work: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-cell, per-node source lam g, g = (M F - theta (rho - F))/eps^2
    with F = f.T; g has zero velocity mean.

    M annihilates constants, so g = (M + theta I)(F - rho)/eps^2, and that
    is how it is computed: D = F - rho first, exactly 0 at equilibrium,
    then one product with (lam/eps^2)(M + theta I).  The first form's two
    O(1/eps^2) terms are never formed: the assembled M's rows sum to about
    1e-16, not 0, which M F would scale by rho/eps^2.

    ``lam`` is a scalar, which rides in the product's matrix, or a
    node-major (nodes, cells) array, which multiplies after it, as a
    plan's ``source_fold[0]`` does.  ``work`` receives D, filled by a copy
    of rho and a subtraction that do not broadcast a row: numpy 2.4
    buffers the broadcast row of one subtraction ``np.subtract(F, rho,
    work)`` in a state-size array, and at 2000 cells that takes 1.8 times
    as long.  ``out`` receives the result, the transpose of what is
    returned.  Both are C-contiguous (nodes, cells) arrays, allocated when
    omitted.  A plan built with ``source=op.shifted`` makes lam g by
    these operations, in this order, on its own buffers.
    """
    if work is None:
        work = np.empty(f.shape[::-1])
    np.copyto(work, rho)
    np.subtract(f.T, work, work)
    if isinstance(lam, np.ndarray):
        src = np.matmul((1.0 / eps**2) * op.shifted, work, out)
        src *= lam
    else:
        src = np.matmul((lam / eps**2) * op.shifted, work, out)
    return src.T


def penalized_step(state: KineticState, op: PenalizedOperator, plan: StepPlan, n: int = 1) -> KineticState:
    """``n`` UGKS steps of ``plan`` with sigma -> theta and the penalization
    leftover, at the plan's eps, as a per-node source evaluated at the
    start of each step: :func:`ugks.step`, in one call of the plan's kernel.

    ``plan`` is a :class:`StepPlan` built on ``op.material(mat)``, which
    keeps the absorption and source of ``mat``, with ``source=op.shifted``,
    whose step makes the source; any other plan raises ``InvalidArgumentError``.
    """
    if plan.source is not op.shifted:
        raise InvalidArgumentError("penalized_step needs a plan built with source=op.shifted")
    return step(state, plan, n)
