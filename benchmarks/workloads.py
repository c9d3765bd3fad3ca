"""Workloads and the correctness gate of the ugks1d benchmark.

Each workload is built so that one layer does most of the work; README.md in
this directory says which and why. Every case has G = alpha = 0, so its
density must stay between the smallest and the largest inflow or initial
value (the maximum principle of the data).
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

import ugks1d.experiments as experiments
from ugks1d.analysis import compare
from ugks1d.errors import UGKSError
from ugks1d.experiments import ExperimentSpec, RunResult, builtin_spec, read_csv, run, write_csv
from ugks1d.grid import SpatialMesh, build_gauss_legendre
from ugks1d.penalized import PenalizedOperator, ScatteringKernel

from tracer import STEP_SPANS, TARGETS, patched

Q16 = build_gauss_legendre(16)
# k(v, v') = (1 + v v'/2)/2 on the default 16-node rule; theta = 5/6.
ANISO_TABLE = 0.5 + 0.25 * np.outer(Q16.nodes, Q16.nodes)
ANISO_THETA = PenalizedOperator.build(ScatteringKernel.from_table(ANISO_TABLE, Q16), Q16).theta

SWEEP_EPS = (1.0, 0.3, 0.1, 0.03, 1e-2, 1e-4, 1e-8)
SWEEP_VARIANTS = {
    "ugks/stabilized": dict(bc_mode="stabilized"),
    "ugks/corrected": dict(bc_mode="corrected"),
    "ugks/blended": dict(bc_mode="blended"),
    "ugks/mc_limited": dict(reconstruction="mc_limited"),
    "ugks_id": dict(scheme="ugks_id"),
    "penalized": dict(collision="penalized", kernel_table=ANISO_TABLE),
}
# The explicit upwind step is bounded by eps^2/sigma; below 0.1 it is too slow.
SWEEP_UPWIND_EPS = (1.0, 0.3, 0.1)

# Runs of the eps sweep that the gate flags at the commit that added this
# benchmark. They are kept out of the timed passes, so that no timed run fails
# and no diverging run is timed, and are run once after them instead:
# ``correct`` is false if one of them stops failing. Once a fix lands, move the
# run back into the timed sweep by deleting it here. See README.md for causes.
KNOWN_SEED_FAILURES = frozenset({
    "ugks_id eps=0.3",
    "penalized eps=0.01",
    "penalized eps=0.0001",
    "penalized eps=1e-08",
    "upwind eps=0.1",
})


def _values(fn, points) -> np.ndarray:
    if callable(fn):
        return np.array([float(fn(p)) for p in points])
    return np.array([float(fn)])


def data_bounds(spec: ExperimentSpec, cells: int) -> tuple[float, float]:
    """[min, max] of the inflow and initial data, which bound the density
    when there is no source and no absorption."""
    if callable(spec.source) or callable(spec.alpha) or spec.source != 0 or spec.alpha != 0:
        raise ValueError(f"{spec.id}: the maximum-principle gate needs G = alpha = 0")
    q = build_gauss_legendre(spec.quadrature)
    mesh = SpatialMesh(spec.x_min, spec.x_max, cells)
    vals = np.concatenate([_values(spec.f_left, q.nodes[q.positive]),
                           _values(spec.f_right, q.nodes[~q.positive]),
                           _values(spec.initial, mesh.centers)])
    return float(vals.min()), float(vals.max())


@dataclass(frozen=True)
class Case:
    """One ``run()`` call of a workload, with its maximum-principle bounds."""

    key: str
    spec: ExperimentSpec
    cells: int

    @property
    def bounds(self) -> tuple[float, float]:
        return data_bounds(self.spec, self.cells)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    oracle: Case            # run outside the timed region for err_rel
    err_key: str            # the case whose final profile err_rel measures
    err_gate: float         # largest err_rel that still counts as correct
    io: bool = False        # store f, write/read CSVs and compare every case
    known_failures: tuple = ()   # cases run once, untimed, that must fail the gate


def _sweep_cases(seed: int) -> list[Case]:
    base = dict(sigma=1.0, f_left=lambda v: v, f_right=0.0, times=(0.1, 0.5, 2.0))
    cases = []
    for eps in SWEEP_EPS:
        for name, kw in SWEEP_VARIANTS.items():
            cases.append(Case(f"{name} eps={eps:g}", builtin_spec("ex5", eps=eps, **base, **kw), 25))
        if eps in SWEEP_UPWIND_EPS:
            cases.append(Case(f"upwind eps={eps:g}", builtin_spec("ex5", eps=eps, scheme="upwind", **base), 25))
    for solver in ("explicit", "implicit"):
        cases.append(Case(f"diffusion/{solver}",
                          builtin_spec("ex5", scheme="diffusion", diffusion_solver=solver, **base), 25))
    random.Random(seed).shuffle(cases)
    return cases


def build(name: str, seed: int) -> Workload:
    """The named workload. Only eps-sweep-25 uses the seed: it shuffles the
    order of its runs. The long workloads have fixed inputs."""
    if name == "eps-sweep-25":
        cases = [c for c in _sweep_cases(seed) if c.key not in KNOWN_SEED_FAILURES]
        known = tuple(c for c in _sweep_cases(seed) if c.key in KNOWN_SEED_FAILURES)
        oracle = next(c for c in cases if c.key == "diffusion/explicit")
        return Workload(name, tuple(cases), oracle, "ugks/corrected eps=1e-08", 0.02, io=True,
                        known_failures=known)
    if name == "bl-explicit-200":
        # err_gate is the bound of acceptance criterion 9 for this pairing.
        # t=0.1 rather than 0.4 keeps one pass near 1 s, so a run holds many.
        return Workload(name, (Case("ugks/corrected ex6", builtin_spec("ex6", bc_mode="corrected", times=(0.1,)), 200),),
                        Case("diffusion ex6", builtin_spec("ex6", scheme="diffusion", times=(0.1,)), 2000),
                        "ugks/corrected ex6", 0.02)
    if name == "diffusive-id-2000":
        # t=1 keeps one pass near 3.5 s, so a 22 s run holds several passes.
        return Workload(name, (Case("ugks_id ex2", builtin_spec("ex2", scheme="ugks_id", times=(1.0,)), 2000),),
                        Case("diffusion ex2", builtin_spec("ex2", scheme="diffusion", times=(1.0,)), 2000),
                        "ugks_id ex2", 0.02)
    if name == "penalized-aniso-200":
        spec = builtin_spec("ex2", eps=1e-2, times=(0.2,), collision="penalized", kernel_table=ANISO_TABLE)
        oracle = builtin_spec("ex2", scheme="diffusion", sigma=ANISO_THETA, times=(0.2,))
        # 0.017 at the seed commit; the gate only catches a stepper that left
        # the diffusion limit of the penalized kernel.
        return Workload(name, (Case("penalized ex2", spec, 200),), Case("diffusion sigma=theta", oracle, 2000),
                        "penalized ex2", 0.05)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- one pass

@dataclass(frozen=True)
class Outcome:
    """What one case produced: a result, or why it has none."""

    result: Optional[RunResult]
    problem: Optional[str] = None


def _no_span(name, work=0):
    return contextlib.nullcontext(lambda n: None)


def _stem(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "_", key)


def _round_trip(res: RunResult, stem: str, out_dir: Path, span) -> Outcome:
    """Write one CSV per output time, read each back, and keep the profiles
    read back; a file that does not reproduce its profile is a failure. The
    diffusion oracles store no distribution, so their files hold rho only."""
    profiles = []
    for t, rho, f in zip(res.times, res.rho, res.f or [None] * len(res.rho)):
        path = out_dir / experiments.result_filename(stem, t)
        with span("experiments.csv_write") as set_work:
            write_csv(path, res.x, rho, f)
            set_work(path.stat().st_size)
        with span("experiments.csv_read"):
            x_back, rho_back = read_csv(path)
        if not (np.array_equal(x_back, res.x) and np.array_equal(rho_back, rho)):
            return Outcome(res, f"CSV round trip changed the profile at t={t:g}")
        profiles.append(rho_back)
    return Outcome(replace(res, rho=profiles))


def execute(workload: Workload, out_dir: Path, span=None, time_scale: float = 1.0):
    """Run every case once, in order; returns ``({key: Outcome}, {key: s})``,
    the second giving each case's wall time: its run, CSV round trip and
    comparison.

    ``span(name)``, if given, is entered around each call into the library
    that the benchmark makes itself. ``time_scale`` shortens every output
    time, for the warm-up pass.
    """
    span = span or _no_span
    outcomes, seconds = {}, {}
    for case in workload.cases:
        spec = case.spec
        if time_scale != 1.0:
            spec = replace(spec, times=tuple(t * time_scale for t in spec.times))
        t0 = time.perf_counter()
        try:
            with span("experiments.run"):
                res = run(spec, cells=case.cells, store_f=workload.io)
        except UGKSError as exc:
            outcomes[case.key] = Outcome(None, f"raised {type(exc).__name__}: {exc}")
        else:
            outcomes[case.key] = _round_trip(res, _stem(case.key), out_dir, span) if workload.io else Outcome(res)
        seconds[case.key] = time.perf_counter() - t0
    if workload.io:
        oracle = outcomes[workload.oracle.key].result
        for key, out in outcomes.items():
            if out.result is not None and oracle is not None:
                t0 = time.perf_counter()
                with span("analysis.compare"):
                    compare(out.result, oracle, "linf")
                seconds[key] += time.perf_counter() - t0
    return outcomes, seconds


# ---------------------------------------------------------------- correctness

def gate(profiles, lo: float, hi: float) -> Optional[str]:
    """Why the density profiles break the gate, or None if they pass: every
    value finite and within the data bounds [lo, hi], up to rounding."""
    for rho in profiles:
        if not np.all(np.isfinite(rho)):
            return "non-finite density"
    slack = 1e-12 * max(hi - lo, abs(hi), 1.0)
    rmin = min(float(np.min(r)) for r in profiles)
    rmax = max(float(np.max(r)) for r in profiles)
    if rmin < lo - slack or rmax > hi + slack:
        return f"maximum principle: rho in [{rmin:.3g}, {rmax:.3g}] outside [{lo:.3g}, {hi:.3g}]"
    return None


def digest(res: RunResult) -> str:
    """Bit-exact fingerprint of a run's step count and output."""
    h = hashlib.sha256(str(res.n_steps).encode())
    for arr in list(res.rho) + list(res.f or ()):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


class Ledger:
    """Failures counted over every pass of a workload; none is dropped.

    A run fails if it raised, broke the gate, or differs by even one bit from
    the first pass of the same inputs.
    """

    def __init__(self, workload: Workload):
        self.bounds = {c.key: c.bounds for c in workload.cases}
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def record(self, outcomes: dict) -> None:
        for key, out in outcomes.items():
            self.attempted += 1
            problem = out.problem
            if out.result is not None:
                problem = problem or gate(out.result.rho, *self.bounds[key])
                d = digest(out.result)
                if self.first.setdefault(key, d) != d:
                    problem = problem or "output differs from the first pass"
            if problem:
                self.failed += 1
                self.reasons.setdefault(key, problem)


def check_known_failures(workload: Workload) -> dict:
    """Run each known failure once; returns {key: why it fails the gate},
    with None for a run that now passes."""
    out = {}
    for case in workload.known_failures:
        try:
            res = run(case.spec, cells=case.cells)
        except UGKSError as exc:
            out[case.key] = f"raised {type(exc).__name__}: {exc}"
            continue
        out[case.key] = gate(res.rho, *case.bounds)
    return out


# ---------------------------------------------------------------- set-up time

class _FirstStep(Exception):
    """Raised by the set-up probe in place of a run's first solver step."""


def setup_round(workload: Workload, repeats: int) -> dict:
    """``repeats`` set-up times per case, keyed by case: the time from
    ``run()`` entry to its first solver step call.

    The step-like names of ``ugks1d.experiments`` are swapped for a probe
    that raises, so each repeat stops exactly where stepping would begin.
    """
    marks = []

    def probe(*args, **kwargs):
        marks.append(time.perf_counter())
        raise _FirstStep

    names = [attr for mod, attr, span in TARGETS if mod == "ugks1d.experiments" and span in STEP_SPANS]
    samples = {}
    with patched([(experiments, attr, probe) for attr in names]):
        for case in workload.cases:
            for _ in range(repeats):
                marks.clear()
                t0 = time.perf_counter()
                try:
                    run(case.spec, cells=case.cells, store_f=workload.io)
                except _FirstStep:
                    pass
                samples.setdefault(case.key, []).append((marks[0] if marks else time.perf_counter()) - t0)
    return samples
