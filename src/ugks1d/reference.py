"""Reference (oracle) solvers.

* explicit upwind discretization of the kinetic equation, first and second
  order in space;
* explicit and implicit 3-point diffusion schemes with interface diffusion
  coefficients kappa = 1/(3 sigma), boundary cells differencing the Dirichlet
  value against the first cell over a full cell width.

Like the kinetic ``StepPlan``, each is a plan built once per step size,
:class:`UpwindPlan` and :class:`DiffusionPlan`, which a call advances by n
steps: :func:`upwind_step` and :func:`diffusion_run`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, SolverFailureError
from .grid import MaterialField, SpatialMesh, VelocityQuadrature, average, mc_limiter
from .ugks import KineticState, factor_banded, solve_banded

__all__ = ["upwind_timestep", "UpwindPlan", "upwind_step", "diffusion_timestep", "DiffusionPlan",
           "diffusion_step", "diffusion_run", "leg_steps"]


def upwind_timestep(eps: float, mat: MaterialField, mesh: SpatialMesh, cfl: float = 0.9) -> float:
    """Fully explicit stability bound: cfl * min(eps dx, eps^2/(sigma_max + eps^2 alpha_max))."""
    rate = float(np.max(mat.sigma_cell)) + eps**2 * float(np.max(mat.alpha_cell))
    transport = eps * mesh.dx
    if rate > 0:
        return cfl * min(transport, eps**2 / rate)
    return cfl * transport


class UpwindPlan:
    """A forward-Euler upwind step of size ``dt`` of the kinetic equation,
    built once per dt: it checks dt against the explicit stability bound,
    forms the constant factors and the wall fluxes, and binds the MC
    limiter (:func:`grid.mc_limiter`).  Advance with :func:`upwind_step`.

    Inflow ghost values come from f_left (v > 0) and f_right (v < 0).  The
    ``mc_limited`` variant upgrades the interface values to a characteristic-
    traced linear reconstruction, which is what the UGKS flux degenerates to
    for vanishing sigma and alpha.  Every step overwrites the plan's flux
    and slope buffers; nothing a call returns aliases them.
    """

    def __init__(self, dt: float, eps: float, mat: MaterialField, mesh: SpatialMesh, q: VelocityQuadrature,
                 f_left: np.ndarray, f_right: np.ndarray, reconstruction: str = "first_order"):
        bound = upwind_timestep(eps, mat, mesh, cfl=1.0)
        if dt > bound * (1.0 + 1e-12):
            raise InvalidArgumentError(f"dt={dt} exceeds the explicit stability bound {bound}")
        if reconstruction not in ("first_order", "mc_limited"):
            raise InvalidArgumentError(f"unknown reconstruction {reconstruction!r}")
        n, k, dx = mesh.n_cells, q.n, mesh.dx
        self.dt, self.q, self.shape = dt, q, (n, k)
        v = q.nodes
        pos, neg = slice(q.split, None), slice(0, q.split)
        v_pos, v_neg = v[pos] / eps, v[neg] / eps
        flux = np.empty((n + 1, k))
        flux[0, pos] = v_pos * f_left[pos]
        flux[-1, neg] = v_neg * f_right[neg]
        up_flux, dn_flux = flux[1:, pos], flux[:-1, neg]
        relax, alpha, g = mat.sigma_cell[:, None] / eps**2, mat.alpha_cell[:, None], mat.g_cell[:, None]
        half_w, dt_dx = 0.5 * q.weights, dt / dx
        mc = reconstruction == "mc_limited"
        if mc:
            shift = 0.5 * dx - v[None, :] * (0.5 * dt / eps)   # v>0 side
            shift_dn = -0.5 * dx - v[None, :] * (0.5 * dt / eps)
            limit = mc_limiter(dx, np.empty((k, n)), np.empty((3, k * n - 1)))

        def kernel(f, t, steps):
            for j in range(1, steps + 1):
                if mc:
                    df = limit(np.ascontiguousarray(f.T)).T
                    up_vals, dn_vals = f + shift * df, f + shift_dn * df
                else:
                    up_vals = dn_vals = f
                np.multiply(v_pos, up_vals[:, pos], out=up_flux)
                np.multiply(v_neg, dn_vals[:, neg], out=dn_flux)
                rho = f @ half_w   # grid.average
                f = f - dt_dx * (flux[1:] - flux[:-1]) + dt * (relax * (rho[:, None] - f) - alpha * f + g)
                if not np.all(np.isfinite(f)):
                    raise SolverFailureError("non-finite values in upwind step", j)
                t += dt
            return f, t

        self._kernel = kernel


def upwind_step(state: KineticState, plan: UpwindPlan, n: int = 1) -> KineticState:
    """Advance the state by ``n`` steps of ``plan`` in one call.  Each step
    reads f alone, its density the average of f, so the state's rho is not
    read, and the returned one is the average of the new f.  The time takes
    ``n`` successive additions of dt.  A step with any non-finite value
    raises ``SolverFailureError``, which carries its number within the call
    as its ``step``."""
    f, t = plan._kernel(state.f, state.t, n)
    return KineticState(f=f, rho=average(plan.q, f), t=t)


def diffusion_timestep(kappa_iface: np.ndarray, dx: float, cfl: float = 0.9) -> float:
    """Parabolic bound cfl * dx^2 / (2 max kappa) for the explicit scheme."""
    return cfl * dx**2 / (2.0 * float(np.max(kappa_iface)))


def _diffusion_flux(rho: np.ndarray, kappa_iface: np.ndarray, dx: float,
                    rho_l: float, rho_r: float) -> np.ndarray:
    flux = np.empty(rho.size + 1)
    flux[0] = kappa_iface[0] * (rho[0] - rho_l) / dx
    flux[1:-1] = kappa_iface[1:-1] * (rho[1:] - rho[:-1]) / dx
    flux[-1] = kappa_iface[-1] * (rho_r - rho[-1]) / dx
    return flux


class DiffusionPlan:
    """A step of size ``dt`` of the 3-point diffusion scheme on fixed
    interface coefficients ``kappa_iface``, absorption, source and
    Dirichlet values, built once per dt.  Advance with :func:`diffusion_run`.

    Interface coefficients multiply plain differences of neighbouring cell
    densities; the boundary flux differences the Dirichlet value against the
    first (last) cell over the full cell width, matching the small-eps limit
    of the kinetic scheme.  The absorption term is implicit in both modes.
    An explicit plan holds dt to the parabolic bound dx^2 / (2 max kappa),
    past which the scheme diverges: beyond it, building the plan raises
    ``InvalidArgumentError``.  An implicit plan factors its bands once
    (:func:`ugks.factor_banded`), so a step only substitutes through them.
    Built ``modal`` with uniform alpha, an explicit plan keeps in ``modal``
    the eigendecomposition of its update, by which it takes any number of
    steps at once in O(cells^2) work; every other plan's ``modal`` is None,
    and it steps by :func:`diffusion_step`.
    """

    def __init__(self, dt: float, kappa_iface: np.ndarray, alpha, source, dx: float, mode: str,
                 dirichlet: tuple[float, float], modal: bool = False):
        n = kappa_iface.size - 1
        self.dt, self.dx, self.kappa_iface, self.dirichlet, self.mode = dt, dx, kappa_iface, dirichlet, mode
        alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
        self.source = np.broadcast_to(np.asarray(source, dtype=float), (n,))
        self.shape, self.modal = (n,), None
        if mode == "explicit":
            bound = diffusion_timestep(kappa_iface, dx, cfl=1.0)
            if dt > bound * (1.0 + 1e-12):
                raise InvalidArgumentError(f"dt={dt} exceeds the parabolic bound {bound}")
            self.den = 1.0 / dt + alpha
        elif mode == "implicit":
            # Symmetric, and positive definite: diagonally dominant by 1/dt.
            self.c = c = kappa_iface / dx**2
            self.lu = factor_banded(1.0 / dt + alpha + c[1:] + c[:-1], -c[1:-1], "implicit diffusion matrix")
        else:
            raise InvalidArgumentError(f"unknown diffusion mode {mode!r}")
        if modal and mode == "explicit" and np.all(alpha == alpha[0]):
            # The step with implicit uniform absorption alpha0 is the affine
            # map rho -> (rho + dt (L rho + b + G)) / (1 + dt alpha0), with L
            # the symmetric tridiagonal diffusion operator, L = V diag(lam) V^T,
            # and b the Dirichlet injection.  Its n-th power is rho* +
            # V diag(base^n) V^T (rho - rho*), with base = (1 + dt lam) /
            # (1 + dt alpha0) and the fixed point rho*: (alpha0 I - L) rho* = b + G.
            from scipy.linalg import eigh_tridiagonal
            alpha0, rho_l, rho_r = float(alpha[0]), *dirichlet
            lam, vecs = eigh_tridiagonal(-(kappa_iface[:-1] + kappa_iface[1:]) / dx**2, kappa_iface[1:-1] / dx**2)
            b = np.zeros(n)
            b[0] = kappa_iface[0] * rho_l / dx**2
            b[-1] = kappa_iface[-1] * rho_r / dx**2
            rho_star = vecs @ ((vecs.T @ (b + self.source)) / (alpha0 - lam))
            self.modal = rho_star, vecs, 1.0 / (1.0 + dt * alpha0) * (1.0 + dt * lam)


def diffusion_step(rho: np.ndarray, plan: DiffusionPlan) -> np.ndarray:
    """One step of ``plan`` from the density ``rho``; returns the new density."""
    rho_l, rho_r = plan.dirichlet
    if plan.mode == "explicit":
        flux = _diffusion_flux(rho, plan.kappa_iface, plan.dx, rho_l, rho_r)
        return (rho / plan.dt + np.diff(flux) / plan.dx + plan.source) / plan.den
    c = plan.c
    rhs = rho / plan.dt + plan.source
    rhs[0] += c[0] * rho_l
    rhs[-1] += c[-1] * rho_r
    return solve_banded(plan.lu, rhs)


def diffusion_run(rho: np.ndarray, plan: DiffusionPlan, n: int = 1) -> np.ndarray:
    """Advance the density ``rho`` by ``n`` steps of ``plan`` in one call;
    returns the new density.  A modal plan takes the n steps at once, equal
    to the step-by-step iterates to rounding at any step count."""
    if plan.modal is not None:
        rho_star, vecs, base = plan.modal
        return rho_star + vecs @ (base**n * (vecs.T @ (rho - rho_star)))
    for _ in range(n):
        rho = diffusion_step(rho, plan)
    return rho


_MAX_LEG_STEPS = 10**9


def leg_steps(t: float, t_end: float, dt: float) -> tuple[int, float]:
    """The leg-end rule: the steps from time ``t`` to ``t_end``, as
    ``(n, last)``, n full steps of ``dt`` and then one shortened step of
    ``last`` (0.0 if there is none).

    Step k starts at ``t + k dt``.  It is a full step if it starts before
    ``t_end - 1e-13 * max(1, t_end)`` with a whole dt left to ``t_end``;
    after the n full steps, a start still before that bound takes a last
    step of ``(t_end - t) - n dt``, which lands on ``t_end`` to rounding.
    A dt that is not positive raises ``InvalidArgumentError``: its leg
    would never end.  So does a leg of more than 1e9 steps, far more than
    any real run takes (the 2000-cell ex2 oracle takes about 3e6): a dt
    that small would not finish, or would overflow the step count.
    """
    if not dt > 0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    span = (t_end - t) / dt
    if span > _MAX_LEG_STEPS:
        raise InvalidArgumentError(f"dt={dt} needs more than {_MAX_LEG_STEPS:.0e} steps "
                                   f"from t={t:g} to t={t_end:g}")
    stop = t_end - 1e-13 * max(1.0, t_end)
    # both tests are monotone in k, so the full steps are a prefix: correct the estimate to its end
    n = max(int(span), 0)
    while n > 0 and not (t + (n - 1) * dt < stop and t_end - (t + (n - 1) * dt) >= dt):
        n -= 1
    while t + n * dt < stop and t_end - (t + n * dt) >= dt:
        n += 1
    return n, (t_end - t) - n * dt if t + n * dt < stop else 0.0
