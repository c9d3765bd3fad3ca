"""Reference (oracle) solvers.

* explicit upwind discretization of the kinetic equation, first and second
  order in space;
* explicit and implicit 3-point diffusion schemes with interface diffusion
  coefficients kappa = 1/(3 sigma), boundary cells differencing the Dirichlet
  value against the first cell over a full cell width.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, SolverFailureError
from .grid import MaterialField, SpatialMesh, VelocityQuadrature, average, mc_slopes

__all__ = [
    "upwind_timestep",
    "upwind_step",
    "diffusion_timestep",
    "diffusion_step",
    "diffusion_run",
    "leg_steps",
]


def upwind_timestep(eps: float, mat: MaterialField, mesh: SpatialMesh, cfl: float = 0.9) -> float:
    """Fully explicit stability bound: cfl * min(eps dx, eps^2/(sigma_max + eps^2 alpha_max))."""
    rate = float(np.max(mat.sigma_cell)) + eps**2 * float(np.max(mat.alpha_cell))
    transport = eps * mesh.dx
    if rate > 0:
        return cfl * min(transport, eps**2 / rate)
    return cfl * transport


def upwind_step(f: np.ndarray, eps: float, mat: MaterialField, mesh: SpatialMesh,
                q: VelocityQuadrature, f_left: np.ndarray, f_right: np.ndarray,
                dt: float, reconstruction: str = "first_order") -> np.ndarray:
    """One forward-Euler upwind step of the kinetic equation.

    Inflow ghost values come from f_left (v > 0) and f_right (v < 0).  The
    ``mc_limited`` variant upgrades the interface values to a characteristic-
    traced linear reconstruction, which is what the UGKS flux degenerates to
    for vanishing sigma and alpha.
    """
    dx = mesh.dx
    bound = upwind_timestep(eps, mat, mesh, cfl=1.0)
    if dt > bound * (1.0 + 1e-12):
        raise InvalidArgumentError(f"dt={dt} exceeds the explicit stability bound {bound}")
    v = q.nodes
    pos, neg = slice(q.split, None), slice(0, q.split)
    n = f.shape[0]

    if reconstruction == "mc_limited":
        df = mc_slopes(f.T, dx).T
        shift = 0.5 * dx - v[None, :] * (0.5 * dt / eps)   # v>0 side
        shift_dn = -0.5 * dx - v[None, :] * (0.5 * dt / eps)
        up_vals = f + shift * df
        dn_vals = f + shift_dn * df
    elif reconstruction == "first_order":
        up_vals = f
        dn_vals = f
    else:
        raise InvalidArgumentError(f"unknown reconstruction {reconstruction!r}")

    flux = np.empty((n + 1, q.n))
    flux[1:, pos] = (v[pos] / eps) * up_vals[:, pos]
    flux[0, pos] = (v[pos] / eps) * f_left[pos]
    flux[:-1, neg] = (v[neg] / eps) * dn_vals[:, neg]
    flux[-1, neg] = (v[neg] / eps) * f_right[neg]

    rho = average(q, f)
    relax = (mat.sigma_cell[:, None] / eps**2) * (rho[:, None] - f)
    f_new = f - (dt / dx) * (flux[1:] - flux[:-1]) + dt * (relax - mat.alpha_cell[:, None] * f + mat.g_cell[:, None])
    if not np.all(np.isfinite(f_new)):
        raise SolverFailureError("non-finite values in upwind step")
    return f_new


def diffusion_timestep(kappa_iface: np.ndarray, dx: float, cfl: float = 0.9) -> float:
    """Parabolic bound cfl * dx^2 / (2 max kappa) for the explicit scheme."""
    return cfl * dx**2 / (2.0 * float(np.max(kappa_iface)))


def _check_parabolic_bound(kappa_iface: np.ndarray, dx: float, dt: float) -> None:
    """Raise ``InvalidArgumentError`` if an explicit step of ``dt`` exceeds
    the parabolic bound dx^2 / (2 max kappa), past which it diverges."""
    bound = diffusion_timestep(kappa_iface, dx, cfl=1.0)
    if dt > bound * (1.0 + 1e-12):
        raise InvalidArgumentError(f"dt={dt} exceeds the parabolic bound {bound}")


def _diffusion_flux(rho: np.ndarray, kappa_iface: np.ndarray, dx: float,
                    rho_l: float, rho_r: float) -> np.ndarray:
    flux = np.empty(rho.size + 1)
    flux[0] = kappa_iface[0] * (rho[0] - rho_l) / dx
    flux[1:-1] = kappa_iface[1:-1] * (rho[1:] - rho[:-1]) / dx
    flux[-1] = kappa_iface[-1] * (rho_r - rho[-1]) / dx
    return flux


def diffusion_step(rho: np.ndarray, kappa_iface: np.ndarray, alpha, source, dx: float,
                   dt: float, mode: str, dirichlet: tuple[float, float]) -> np.ndarray:
    """One step of the 3-point diffusion scheme.

    Interface coefficients multiply plain differences of neighbouring cell
    densities; the boundary flux differences the Dirichlet value against the
    first (last) cell over the full cell width, matching the small-eps limit
    of the kinetic scheme.  The absorption term is implicit in both modes.
    """
    rho = np.asarray(rho, dtype=float)
    n = rho.size
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
    source = np.broadcast_to(np.asarray(source, dtype=float), (n,))
    rho_l, rho_r = dirichlet
    if mode == "explicit":
        _check_parabolic_bound(kappa_iface, dx, dt)
        flux = _diffusion_flux(rho, kappa_iface, dx, rho_l, rho_r)
        return (rho / dt + np.diff(flux) / dx + source) / (1.0 / dt + alpha)
    if mode == "implicit":
        # Symmetric, and positive definite: diagonally dominant by 1/dt.
        c = kappa_iface / dx**2
        diag = 1.0 / dt + alpha + c[1:] + c[:-1]
        rhs = rho / dt + source
        rhs[0] += c[0] * rho_l
        rhs[-1] += c[-1] * rho_r
        # SciPy's linear algebra is imported where a system is solved, so
        # runs that solve none never load it.
        from scipy.linalg.lapack import dptsv
        *_, x, info = dptsv(diag, -c[1:-1], rhs, overwrite_d=True, overwrite_b=True)
        if info != 0:
            raise SolverFailureError(f"implicit diffusion matrix not positive definite (dptsv info={info})")
        return x
    raise InvalidArgumentError(f"unknown diffusion mode {mode!r}")


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


def diffusion_run(rho0: np.ndarray, kappa_iface: np.ndarray, alpha, source, dx: float,
                  t: float, t_end: float, mode: str, dirichlet: tuple[float, float],
                  dt: float) -> tuple[np.ndarray, int]:
    """Integrate the diffusion scheme from time ``t`` to ``t_end``; returns
    the final density and the number of steps.

    The steps are those of :func:`leg_steps`.  In the explicit mode with
    uniform alpha, :func:`_explicit_modal` takes the n full steps at once;
    either way the explicit full steps are held to the parabolic bound,
    which :func:`diffusion_step` checks for each step it takes.
    """
    rho = np.asarray(rho0, dtype=float).copy()
    n, last = leg_steps(t, t_end, dt)
    if mode == "explicit" and n:
        _check_parabolic_bound(kappa_iface, dx, dt)
    alpha0 = float(np.max(alpha))
    if mode == "explicit" and np.all(np.asarray(alpha) == alpha0):
        rho = _explicit_modal(rho, kappa_iface, alpha0, source, dx, dt, n, dirichlet)
    else:
        for _ in range(n):
            rho = diffusion_step(rho, kappa_iface, alpha, source, dx, dt, mode, dirichlet)
    if last:
        return diffusion_step(rho, kappa_iface, alpha, source, dx, last, mode, dirichlet), n + 1
    return rho, n


def _explicit_modal(rho0: np.ndarray, kappa_iface: np.ndarray, alpha0: float,
                    source, dx: float, dt: float, nsteps: int,
                    dirichlet: tuple[float, float]) -> np.ndarray:
    """Exact n-step map of the explicit scheme via eigendecomposition: the
    ``nsteps`` full steps of one :func:`diffusion_run` leg in O(n^2) work,
    equal to the step-by-step iterates to rounding at any step count.

    The explicit update with implicit uniform absorption is the affine map
    rho -> (rho + dt (L rho + b + G)) / (1 + dt alpha0) with L the symmetric
    tridiagonal diffusion operator and b the Dirichlet injection; iterating it
    n times reduces to powers of the eigenvalues of L.
    """
    if nsteps == 0:
        return rho0.copy()
    n = rho0.size
    rho_l, rho_r = dirichlet
    diag = -(kappa_iface[:-1] + kappa_iface[1:]) / dx**2
    off = kappa_iface[1:-1] / dx**2
    b = np.zeros(n)
    b[0] = kappa_iface[0] * rho_l / dx**2
    b[-1] = kappa_iface[-1] * rho_r / dx**2
    rhs = b + source
    from scipy.linalg import eigh_tridiagonal
    lam, vecs = eigh_tridiagonal(diag, off)
    scale = 1.0 / (1.0 + dt * alpha0)
    # fixed point of the affine map: (I - M) rho* = scale*dt*rhs with
    # M = scale*(I + dt L); equivalently (alpha0 I - L) rho* = rhs.
    denom = alpha0 - lam
    coeffs_rhs = vecs.T @ rhs
    rho_star = vecs @ (coeffs_rhs / denom)
    mult = (scale * (1.0 + dt * lam)) ** nsteps
    c0 = vecs.T @ (rho0 - rho_star)
    return rho_star + vecs @ (mult * c0)

