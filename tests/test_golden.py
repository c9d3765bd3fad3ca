"""Golden density profiles: every built-in example at its first resolution,
under each explicit boundary mode, MUSCL-MC reconstruction, the implicit
diffusion variant and the penalized stepper with an anisotropic kernel.

The reference file holds, per run, the final profile, the step count and the
run's rounding sensitivity: the largest relative change of the final profile
when the inflow data is scaled by 1 + 2^-52.  A profile must match within
1e-13 relative.  Runs that diverge (the penalized stepper at eps <= 1e-2,
whose profiles leave the data range [0, 1] by orders of magnitude) amplify
any change in the order of floating-point sums; they must match within ten
times their sensitivity where that is larger.  To record the file again from
the current code (only for a deliberate change of the numbers, which the
commit must say):

    PYTHONPATH=src python tests/test_golden.py --record [KEY ...]

Named keys (such as ``ex3/penalized``) are recorded again alone, and every
other entry of the file is kept as it is.
"""

from dataclasses import replace
from pathlib import Path
import sys

import numpy as np
import pytest

from ugks1d.experiments import builtin_ids, builtin_spec, run
from ugks1d.grid import build_gauss_legendre

DATA = Path(__file__).parent / "data" / "golden_profiles.npz"
RTOL = 1e-13

_Q16 = build_gauss_legendre(16)
# k(v, v') = (1 + v v'/2)/2 on the default 16-node rule.
ANISO_TABLE = 0.5 + 0.25 * np.outer(_Q16.nodes, _Q16.nodes)

VARIANTS = {
    "stabilized": dict(bc_mode="stabilized"),
    "corrected": dict(bc_mode="corrected"),
    "blended": dict(bc_mode="blended"),
    "mc_limited": dict(reconstruction="mc_limited"),
    "ugks_id": dict(scheme="ugks_id"),
    "penalized": dict(collision="penalized", kernel_table=ANISO_TABLE),
}

CASES = [f"{ex}/{name}" for ex in builtin_ids() for name in VARIANTS]


def final_profile(key: str, inflow_scale: float = 1.0):
    ex, name = key.split("/")
    spec = builtin_spec(ex, **VARIANTS[name])
    if inflow_scale != 1.0:
        spec = replace(spec, f_left=_scaled(spec.f_left, inflow_scale),
                       f_right=_scaled(spec.f_right, inflow_scale))
    res = run(spec)
    return res.rho[-1], res.n_steps


def _scaled(fn, s):
    return (lambda v: fn(v) * s) if callable(fn) else fn * s


def rel_diff(rho, ref) -> float:
    return float(np.max(np.abs(rho - ref))) / max(1.0, float(np.max(np.abs(ref))))


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA) as data:
        return {k: data[k] for k in data.files}


@pytest.mark.parametrize("key", CASES)
def test_golden_profile(golden, key):
    rho, n_steps = final_profile(key)
    ref = golden[key + "/rho"]
    assert n_steps == int(golden[key + "/steps"])
    assert rho.shape == ref.shape
    assert np.all(np.isfinite(rho))
    tol = RTOL
    if np.max(np.abs(ref)) > 1.0:    # diverged: no built-in's data exceeds 1
        tol = max(RTOL, 10.0 * float(golden[key + "/sensitivity"]))
    assert rel_diff(rho, ref) <= tol


if __name__ == "__main__" and sys.argv[1:2] == ["--record"]:
    keys = sys.argv[2:] or CASES
    out = {}
    if sys.argv[2:]:
        with np.load(DATA) as data:
            out = {k: data[k] for k in data.files}
    for key in keys:
        if key not in CASES:
            sys.exit(f"unknown golden key {key!r}")
        rho, n_steps = final_profile(key)
        out[key + "/rho"] = rho
        out[key + "/steps"] = np.array(n_steps)
        out[key + "/sensitivity"] = np.array(rel_diff(final_profile(key, 1.0 + 2.0**-52)[0], rho))
    DATA.parent.mkdir(exist_ok=True)
    np.savez_compressed(DATA, **out)
    print(f"wrote {len(keys)} profiles to {DATA}")
