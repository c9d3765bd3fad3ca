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


def _relative_exponentials(x) -> np.ndarray:
    """(p, g, g2, r, w2) of x >= 0 as the rows of one (5,) + x.shape array.

    Each entry is evaluated by one branch only: the five series in a single
    Horner pass below ``X_SWITCH``, the expm1 forms above it.  A branch runs
    on the whole of x when every entry falls in it, and on the gathered
    entries otherwise.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((5,) + x.shape)
    flat, table = x.reshape(-1), out.reshape(5, -1)
    small = flat < X_SWITCH
    n_small = np.count_nonzero(small)
    if n_small == flat.size:
        _series(flat, table)
    elif n_small == 0:
        _expm1_forms(flat, table)
    else:
        table[:, small] = _series(flat[small], np.empty((5, n_small)))
        large = ~small
        table[:, large] = _expm1_forms(flat[large], np.empty((5, flat.size - n_small)))
    return out


def _series(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The five Maclaurin series at x < ``X_SWITCH`` into the rows of ``out``.

    x is copied onto every row first: a multiply that broadcasts a row
    costs about twice one that does not, at a plan's sizes.
    """
    rows = np.empty(out.shape)
    rows[...] = x
    out[...] = _SERIES[-1][:, None]
    for ck in _SERIES[-2::-1, :, None]:
        out *= rows
        out += ck
    return out


def _expm1_forms(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The five expm1 forms at x >= ``X_SWITCH`` into the rows of ``out``.

    With em = expm1(-x), t = x + em and u = x em: p = -em/x, g = t/x,
    g2 = t/x^2, r = (2t + u)/x^2 and w2 = (t + u)/x^2.  The numerators fill
    the rows first, so two divisions finish all five.
    """
    em = np.expm1(-x)
    p, g, g2, r, w2 = out
    np.negative(em, out=p)
    np.add(x, em, out=g)
    np.multiply(x, em, out=w2)
    np.multiply(g, 2.0, out=r)
    r += w2
    w2 += g
    np.copyto(g2, g)
    out[:2] /= x
    out[2:] /= x * x
    return out


def coefficient_arrays(dt: float, eps: float, sigma, alpha):
    """Vectorized coefficient evaluation; returns (a, b, c, d, e, nu) arrays.

    The relative exponentials p, g, g2, r, w2 are the rows of one block, in
    which p, g, g2 and w2 become a, c, e and b in place.
    """
    sigma = np.asarray(sigma, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    nu = sigma / eps**2 + alpha
    x = nu * dt
    block = _relative_exponentials(x)
    scale = sigma + eps**2 * alpha  # = eps^2 * nu
    safe = np.where(scale > 0, scale, 1.0)
    pos = sigma > 0
    # sigma/(sigma + eps^2 alpha) for C, then D; both stay 0 where sigma = 0.
    d = np.zeros(x.shape)
    np.divide(sigma, safe, out=d, where=pos)
    block[1] *= d
    block[2] *= dt
    block[4] *= dt
    block[:3] /= eps
    block[4] /= eps**2
    num = np.negative(sigma) * x
    num *= block[3]
    np.divide(num, safe * safe, out=d, where=pos)
    return block[0, ...], block[4, ...], block[1, ...], d, block[2, ...], nu


def blend_parameter(nu, dt: float):
    """Boundary blending weight ``theta(nu) = 1 - exp(-nu dt)`` in [0, 1)."""
    if not dt > 0:
        raise InvalidArgumentError(f"dt must be positive, got {dt}")
    nu_arr = np.asarray(nu, dtype=float)
    if (nu_arr < 0).any():
        raise InvalidArgumentError("nu must be nonnegative")
    out = -np.expm1(-nu_arr * dt)
    return float(out) if np.ndim(nu) == 0 else out
