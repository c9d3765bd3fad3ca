"""Profile comparison and convergence measurement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError, InvalidArgumentError
from .experiments import run

__all__ = ["restrict_profile", "profile_distance", "compare_profiles", "compare", "convergence_study",
           "ConvergenceResult"]

NORMS = ("l1", "l2", "linf")


def restrict_profile(x_fine: np.ndarray, rho_fine: np.ndarray, n_coarse: int,
                     x_min: float, x_max: float) -> np.ndarray:
    """Piecewise-constant restriction of a fine cell-average profile onto a
    coarser uniform mesh (exact overlap-weighted averaging)."""
    n_fine = x_fine.size
    if n_coarse > n_fine:
        raise InvalidArgumentError("restriction target must be the coarser mesh")
    dx_f = (x_max - x_min) / n_fine
    dx_c = (x_max - x_min) / n_coarse
    if n_fine % n_coarse == 0:
        ratio = n_fine // n_coarse
        return rho_fine.reshape(n_coarse, ratio).mean(axis=1)
    edges_f = x_min + np.arange(n_fine + 1) * dx_f
    out = np.empty(n_coarse)
    for i in range(n_coarse):
        a = x_min + i * dx_c
        b = a + dx_c
        overlap = np.minimum(edges_f[1:], b) - np.maximum(edges_f[:-1], a)
        overlap = np.clip(overlap, 0.0, None)
        out[i] = float(overlap @ rho_fine) / dx_c
    return out


def profile_distance(diff: np.ndarray, dx: float, norm: str) -> float:
    norm = norm.lower()
    if norm == "l1":
        return float(np.sum(np.abs(diff)) * dx)
    if norm == "l2":
        return float(math.sqrt(np.sum(diff**2) * dx))
    if norm == "linf":
        return float(np.max(np.abs(diff)))
    raise InvalidArgumentError(f"unknown norm {norm!r}; expected one of {NORMS}")


def compare_profiles(a, b, norm: str = "linf"):
    """Distance between two cell-average profiles ``a = (x, rho)`` and ``b``.

    The finer profile is restricted piecewise-constantly onto the coarser
    mesh, over the domain implied by ``a``'s cell centres.  Returns
    (distance, relative_distance); the relative distance divides by the norm
    of the restricted ``b`` (zero-safe).
    """
    (xa, ra), (xb, rb) = a, b
    n_c = min(xa.size, xb.size)
    x_min = xa[0] - 0.5 * (xa[1] - xa[0])
    x_max = xa[-1] + 0.5 * (xa[1] - xa[0])
    dx_c = (x_max - x_min) / n_c
    if xa.size > n_c:
        ra = restrict_profile(xa, ra, n_c, x_min, x_max)
    if xb.size > n_c:
        rb = restrict_profile(xb, rb, n_c, x_min, x_max)
    dist = profile_distance(ra - rb, dx_c, norm)
    ref = profile_distance(rb, dx_c, norm)
    return dist, dist / ref if ref > 0 else math.inf if dist > 0 else 0.0


def compare(a, b, norm: str = "linf"):
    """Per-time distances between two run results.

    Returns a list of :func:`compare_profiles` (distance, relative_distance)
    pairs, one per output time.
    """
    ta, tb = np.asarray(a.times), np.asarray(b.times)
    if ta.shape != tb.shape or not np.allclose(ta, tb, rtol=0.0, atol=1e-12):
        raise ComparisonError(f"output times differ: {a.times} vs {b.times}")
    return [compare_profiles((a.x, pa), (b.x, pb), norm) for pa, pb in zip(a.rho, b.rho)]


@dataclass(frozen=True)
class ConvergenceResult:
    cell_counts: tuple
    dx: tuple
    errors: tuple
    observed_order: float
    degenerate: bool


def convergence_study(spec, cell_counts, norm: str = "linf",
                      reference_cells: int | None = None) -> ConvergenceResult:
    """Observed order of accuracy against a fine-mesh reference.

    Runs ``spec`` at each cell count plus a reference resolution (4x the
    largest by default), restricts the reference onto each mesh, and fits the
    least-squares slope of log error versus log dx at the final output time.
    Errors at rounding level are reported as degenerate (order NaN).
    """
    counts = [int(c) for c in cell_counts]
    if len(counts) < 3:
        raise InvalidArgumentError("need at least 3 cell counts")
    ratios = [counts[i + 1] / counts[i] for i in range(len(counts) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 for r in ratios) or ratios[0] <= 1:
        raise InvalidArgumentError("cell counts must form an increasing geometric progression")
    if reference_cells is None:
        reference_cells = counts[-1] * 4
    ref = run(spec, cells=reference_cells)
    x_min = spec.x_min
    x_max = spec.x_max
    errors = []
    dxs = []
    scale = None
    for c in counts:
        res = run(spec, cells=c)
        ref_c = restrict_profile(ref.x, ref.rho[-1], c, x_min, x_max)
        dx = (x_max - x_min) / c
        errors.append(profile_distance(res.rho[-1] - ref_c, dx, norm))
        dxs.append(dx)
        if scale is None:
            scale = max(1.0, profile_distance(ref_c, dx, norm))
    if max(errors) <= 1e-12 * scale:
        return ConvergenceResult(tuple(counts), tuple(dxs), tuple(errors), math.nan, True)
    slope = np.polyfit(np.log(dxs), np.log(np.maximum(errors, 1e-300)), 1)[0]
    return ConvergenceResult(tuple(counts), tuple(dxs), tuple(errors), float(slope), False)
