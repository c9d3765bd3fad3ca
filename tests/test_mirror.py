"""Mirror symmetry of the walls: a run and its mirror image x -> 1 - x
agree, reversed in x (and f in v), at every output time.  The mirror image
swaps the inflow f_left(v) with f_right(-v) and reflects sigma, alpha, the
source and the initial density, so each wall's terms of one run are the
other wall's terms of the other run."""

from dataclasses import replace

import numpy as np
import pytest

from ugks1d.experiments import builtin_spec, run
from ugks1d.grid import build_gauss_legendre

Q16 = build_gauss_legendre(16)
SCHEMES = {
    "stabilized": dict(bc_mode="stabilized"),
    "corrected": dict(bc_mode="corrected"),
    "blended": dict(bc_mode="blended"),
    "mc_limited": dict(reconstruction="mc_limited"),
    "ugks_id": dict(scheme="ugks_id"),
    "ugks_id/mc_limited": dict(scheme="ugks_id", reconstruction="mc_limited"),
}
# Only at eps = 1: a penalized run at small eps amplifies rounding by about
# 1e7, and the explicit upwind step is bound by eps^2 / sigma.  The kernel
# k(v, v') = (1 + v v'/2)/2 is its own mirror image.
KINETIC_SCHEMES = {
    "upwind": dict(scheme="upwind"),
    "penalized": dict(collision="penalized", kernel_table=0.5 + 0.25 * np.outer(Q16.nodes, Q16.nodes)),
}


def mirrored(spec):
    """``spec`` under x -> x_min + x_max - x."""
    def reflect(fn):
        return (lambda x: fn(spec.x_min + spec.x_max - x)) if callable(fn) else fn

    def turn(fn):
        return (lambda v: fn(-v)) if callable(fn) else fn

    return replace(spec, sigma=reflect(spec.sigma), alpha=reflect(spec.alpha),
                   source=reflect(spec.source), initial=reflect(spec.initial),
                   f_left=turn(spec.f_right), f_right=turn(spec.f_left))


# Each case at its first resolution: 25 cells, 40 for ex3 and ex4.  At 25
# cells a cell centre of ex4 sits on its sigma break at x = 0.1, and the
# mirrored sample falls on the other side of it.  ex3 with anisotropic
# inflow at both walls, where sigma differs, gives each blended wall its
# own weight.
@pytest.mark.parametrize("case, inflow", [
    ("ex1", {}), ("ex2", {}), ("ex3", {}), ("ex4", {}), ("ex5", {}), ("ex6", {}), ("ex7", {}),
    ("ex3", dict(f_left=lambda v: v, f_right=lambda v: v * v)),
], ids=["ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7", "ex3-anisotropic-inflow"])
def test_a_run_and_its_mirror_image_agree(case, inflow):
    schemes = dict(SCHEMES, **(KINETIC_SCHEMES if case in ("ex1", "ex7") else {}))
    for name, kw in schemes.items():
        spec = builtin_spec(case, **inflow, **kw)
        res, mirror = run(spec, store_f=True), run(mirrored(spec), store_f=True)
        for t, rho, rho_m, f, f_m in zip(spec.times, res.rho, mirror.rho, res.f, mirror.f):
            scale = max(1.0, float(np.abs(rho).max()))
            assert np.abs(rho - rho_m[::-1]).max() <= 1e-13 * scale, (name, t)
            assert np.abs(f - f_m[::-1, ::-1]).max() <= 1e-13 * scale, (name, t)
