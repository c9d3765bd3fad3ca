"""Penalized stepping for general linear collision operators.

A bounded symmetric kernel k(v, v') defines ``L f = int k (f' - f) dv'``.
Rewriting ``L = (L - theta R) + theta R`` with R the isotropic relaxation
operator turns the stiff part into plain relaxation; the weight
``theta = -<v^2>/<v L^{-1} v>`` is the unique choice reproducing the kernel's
diffusion coefficient, and the leftover ``(L - theta R) f / eps^2`` rides
along as a zero-mean, velocity-dependent source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, InvalidKernelError
from .grid import MaterialField, SpatialMesh, VelocityQuadrature, average
from .ugks import (BoundarySpec, KineticState, SchemeConfig, StepPlan, _check_dt, apply,
                   cfl_timestep)

__all__ = [
    "ScatteringKernel",
    "PenalizedOperator",
    "assemble_operator",
    "pseudo_inverse_v",
    "penalization_theta",
    "penalized_step",
    "homogeneous_stability_margin",
]


@dataclass(frozen=True)
class ScatteringKernel:
    """Kernel k(v_j, v_k) sampled on quadrature node pairs, with bounds.

    Requires 0 < k_min <= entries <= k_max and symmetry (self-adjointness of
    the resulting operator underpins the stability proposition).
    """

    table: np.ndarray
    k_min: float
    k_max: float

    def __post_init__(self) -> None:
        t = self.table
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InvalidKernelError("kernel table must be square")
        if not np.allclose(t, t.T, rtol=1e-12, atol=1e-14):
            raise InvalidKernelError("kernel table must be symmetric")
        if not (0 < self.k_min <= float(t.min()) + 1e-15):
            raise InvalidKernelError("kernel entries must satisfy 0 < k_min <= k(v, v')")
        if float(t.max()) > self.k_max * (1 + 1e-12):
            raise InvalidKernelError("kernel entries exceed the stated k_max")
        t.setflags(write=False)

    @classmethod
    def isotropic(cls, c: float, q: VelocityQuadrature) -> "ScatteringKernel":
        """Constant kernel k = c/2, equivalent to the relaxation operator c R."""
        if not c > 0:
            raise InvalidKernelError("isotropic kernel constant must be positive")
        val = 0.5 * c
        return cls(table=np.full((q.n, q.n), val), k_min=val, k_max=val)

    @classmethod
    def from_table(cls, table: np.ndarray, q: VelocityQuadrature) -> "ScatteringKernel":
        table = np.array(table, dtype=float)
        if table.shape != (q.n, q.n):
            raise InvalidKernelError(
                f"kernel table shape {table.shape} does not match quadrature size {q.n}")
        return cls(table=table, k_min=float(table.min()), k_max=float(table.max()))


def assemble_operator(kernel: ScatteringKernel, q: VelocityQuadrature) -> np.ndarray:
    """Discrete collision matrix: (L f)_j = sum_k w_k k_jk f_k - f_j sum_k w_k k_jk.

    The kernel integral runs over the full interval, so the quadrature weights
    enter without the 1/2 of the averaging bracket.
    """
    if kernel.table.shape != (q.n, q.n):
        raise InvalidArgumentError("kernel table does not match the quadrature")
    gain = kernel.table * q.weights[None, :]
    loss = gain.sum(axis=1)
    return gain - np.diag(loss)


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
    vmax = float(np.max(np.abs(v)))
    if float(np.max(np.abs(op @ psi - v))) > 1e-10 * vmax:
        raise InvalidKernelError("pseudo-inverse residual too large; kernel likely violates k_min > 0")
    if abs(average(q, psi)) > 1e-12:
        raise InvalidKernelError("pseudo-inverse mean constraint violated")
    return psi


def _penalization(op: np.ndarray, q: VelocityQuadrature):
    """(theta, L^{-1} v, <v L^{-1} v>_h) with theta = -<v^2>_h / <v L^{-1} v>_h."""
    psi = pseudo_inverse_v(op, q)
    v_psi = average(q, q.nodes * psi)
    theta = -q.m_v2 / v_psi
    if not theta > 0:
        raise InvalidKernelError(f"penalization weight must be positive, got {theta}")
    return float(theta), psi, v_psi


def penalization_theta(op: np.ndarray, q: VelocityQuadrature) -> float:
    """theta = -<v^2>_h / <v L^{-1} v>_h; positive for any admissible kernel."""
    return _penalization(op, q)[0]


@dataclass(frozen=True)
class PenalizedOperator:
    """Precomputed collision matrix, penalization weight, and L^{-1} v.

    ``kappa = <v^2>_h / theta = -<v L^{-1} v>_h`` is the diffusion coefficient
    of the small-eps limit.
    """

    matrix: np.ndarray
    theta: float
    l_inv_v: np.ndarray
    k_max: float
    kappa: float

    @classmethod
    def build(cls, kernel: ScatteringKernel, q: VelocityQuadrature) -> "PenalizedOperator":
        op = assemble_operator(kernel, q)
        theta, psi, v_psi = _penalization(op, q)
        op.setflags(write=False)
        psi.setflags(write=False)
        return cls(matrix=op, theta=theta, l_inv_v=psi, k_max=kernel.k_max, kappa=float(-v_psi))

    def material(self, mesh: SpatialMesh) -> MaterialField:
        """The relaxation part as a material: sigma = theta, alpha = G = 0."""
        n = mesh.n_cells
        return MaterialField(
            sigma_cell=np.full(n, self.theta), alpha_cell=np.zeros(n), g_cell=np.zeros(n),
            sigma_iface=np.full(n + 1, self.theta), alpha_iface=np.zeros(n + 1),
            g_iface=np.zeros(n + 1))


def homogeneous_stability_margin(k_max: float, theta: float, dt: float, eps: float) -> float:
    """eps^2 - dt (k_max - theta); nonnegative iff the space-homogeneous
    penalized iteration is absolutely stable.  For theta >= k_max the margin
    is positive for every dt, i.e. stability is uniform in eps."""
    if not (k_max > 0 and theta > 0 and dt > 0 and eps > 0):
        raise InvalidArgumentError("all inputs must be positive")
    return eps**2 - dt * (k_max - theta)


def penalized_source(f: np.ndarray, rho: np.ndarray, op: PenalizedOperator, eps: float) -> np.ndarray:
    """Per-cell, per-node source (L f - theta R f)/eps^2; zero velocity mean.

    The product runs on node-major data, which a stepped state already is, so
    that its rounding does not depend on the memory order of ``f``.
    """
    lf = (op.matrix @ np.ascontiguousarray(f.T)).T
    rf = rho[:, None] - f
    return (lf - op.theta * rf) / eps**2


def penalized_step(state: KineticState, eps: float, op: PenalizedOperator,
                   mesh: SpatialMesh, q: VelocityQuadrature, bc: BoundarySpec,
                   dt: Optional[float] = None, cfg: Optional[SchemeConfig] = None,
                   plan: Optional[StepPlan] = None) -> KineticState:
    """One UGKS step with sigma -> theta, alpha -> 0 and the penalization
    leftover as a per-node source evaluated at time n.

    ``plan`` is a :class:`StepPlan` built on ``op.material(mesh)``; without
    one, a plan is built for ``dt`` (default: the CFL policy with
    sigma_min = theta).
    """
    if plan is None:
        cfg = SchemeConfig(eps=eps) if cfg is None else replace(cfg, eps=eps)
        mat = op.material(mesh)
        plan = StepPlan(cfl_timestep(cfg, mat, mesh) if dt is None else dt, cfg, mat, mesh, q, bc)
    _check_dt(plan, dt)
    g_tilde = penalized_source(state.f, state.rho, op, eps)
    f_new, rho_new = apply(plan, state.f, state.rho, g_tilde)
    return KineticState(f=f_new, rho=rho_new, t=state.t + plan.dt)
