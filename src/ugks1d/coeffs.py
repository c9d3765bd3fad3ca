"""Numerically stable evaluation of the interface flux coefficients.

The update coefficients A, B, C, D, E at an interface depend on the collision
frequency ``nu = sigma/eps^2 + alpha`` only through ``x = nu*dt`` and a family
of relative exponential functions:

    p(x)  = (1 - exp(-x)) / x
    g(x)  = 1 - p(x)                      ~ x/2
    g2(x) = g(x) / x                      ~ 1/2
    r(x)  = (x(1+exp(-x)) - 2(1-exp(-x))) / x^2   ~ x/6
    w2(x) = ((1+x)exp(-x) - 1) / x^2      ~ -1/2

All are evaluated through a Maclaurin series below ``X_SWITCH`` and via
``expm1`` above it, so that every coefficient is finite and accurate for all
admissible inputs including sigma = alpha = 0 (x = 0).

The coefficients themselves:

    A = p(x)/eps
    C = (sigma/(sigma + eps^2 alpha)) * g(x) / eps
    D = -sigma * x * r(x) / (sigma + eps^2 alpha)^2
    E = dt * g2(x) / eps
    B = dt * w2(x) / eps^2         (second-order reconstruction term)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["coefficient_arrays", "blend_parameter", "X_SWITCH"]

# Below the switch the direct expm1 forms of r and w2 lose ~6*ulp/x^2 relative
# accuracy; at 0.1 both branches agree to ~1e-13 while the 12-term series is
# exact to rounding.
X_SWITCH = 0.1
_N_TERMS = 13

_C_P = np.array([(-1.0) ** j / math.factorial(j + 1) for j in range(_N_TERMS)])
_C_G = np.array([0.0] + [(-1.0) ** (j + 1) / math.factorial(j + 1) for j in range(1, _N_TERMS)])
_C_G2 = np.array([(-1.0) ** j / math.factorial(j + 2) for j in range(_N_TERMS)])
_C_R = np.array([0.0] + [(-1.0) ** (j + 1) * j / math.factorial(j + 2) for j in range(1, _N_TERMS)])
_C_W2 = np.array([(-1.0) ** j * j / math.factorial(j + 1) for j in range(1, _N_TERMS)])
# Row j holds the x^j coefficient of (p, g, g2, r, w2). The w2 series has one
# term fewer; its zero top coefficient leaves Horner's recurrence unchanged.
_SERIES = np.stack([_C_P, _C_G, _C_G2, _C_R, np.append(_C_W2, 0.0)], axis=1)


def _relative_exponentials(x: np.ndarray):
    """Return (p, g, g2, r, w2) evaluated elementwise on x >= 0.

    Each entry is evaluated by one branch only: the five series in a single
    Horner pass below ``X_SWITCH``, the expm1 forms above it.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty((5, flat.size))
    small = flat < X_SWITCH
    if small.any():
        xs = flat[small]
        y = np.repeat(_SERIES[-1][:, None], xs.size, axis=1)
        for ck in _SERIES[-2::-1, :, None]:
            y *= xs
            y += ck
        out[:, small] = y
    large = ~small
    if large.any():
        xl = flat[large]
        em = np.expm1(-xl)
        xl2 = xl**2
        out[0, large] = -em / xl
        out[1, large] = (xl + em) / xl
        out[2, large] = (xl + em) / xl2
        out[3, large] = (2.0 * (xl + em) + xl * em) / xl2
        out[4, large] = (xl + em + xl * em) / xl2
    return tuple(row.reshape(x.shape) for row in out)


def coefficient_arrays(dt: float, eps: float, sigma, alpha):
    """Vectorized coefficient evaluation; returns (a, b, c, d, e, nu) arrays."""
    sigma = np.asarray(sigma, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    nu = sigma / eps**2 + alpha
    x = nu * dt
    p, g, g2, r, w2 = _relative_exponentials(x)
    scale = sigma + eps**2 * alpha  # = eps^2 * nu
    safe = np.where(scale > 0, scale, 1.0)
    s = np.where(sigma > 0, sigma / safe, 0.0)
    a = p / eps
    c = s * g / eps
    d = np.where(sigma > 0, -sigma * x * r / safe**2, 0.0)
    e = dt * g2 / eps
    b = dt * w2 / eps**2
    return a, b, c, d, e, nu


def blend_parameter(nu, dt: float):
    """Boundary blending weight ``theta(nu) = 1 - exp(-nu dt)`` in [0, 1)."""
    if not dt > 0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    nu_arr = np.asarray(nu, dtype=float)
    if np.any(nu_arr < 0):
        raise InvalidArgumentError("nu must be nonnegative")
    out = -np.expm1(-nu_arr * dt)
    return float(out) if np.ndim(nu) == 0 else out
