"""Tests of the benchmark itself: span accounting, the correctness gate, and
determinism of the sweep across seeds.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import shutil
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tracer import Tracer, self_times, setup_ns, summarize
from ugks1d.experiments import builtin_spec, run
from workloads import (KNOWN_SEED_FAILURES, Q16, Case, Ledger, Outcome, Workload, build,
                       check_known_failures, digest, execute)

OUT = Path(__file__).resolve().parent.parent / ".bench_out" / "tests"


@pytest.fixture
def out_dir(request):
    path = OUT / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_self_time_of_nested_calls(monkeypatch):
    layer = types.ModuleType("fake_layer")

    def inner():
        return 1

    def outer():
        return layer.inner() + layer.inner()

    layer.inner, layer.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    ticks = iter([0, 10, 13, 15, 19, 30])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.instrument([("fake_layer", "outer", "outer"), ("fake_layer", "inner", "inner")]):
        assert layer.outer() == 2
    assert layer.outer is outer and layer.inner is inner
    assert tracer.spans == [("outer", 0, 30, -1, 0), ("inner", 10, 13, 0, 0), ("inner", 15, 19, 0, 0)]
    assert self_times(tracer.spans) == [23, 3, 4]
    s = summarize(tracer.spans)
    assert (s["outer"]["self_ns"], s["inner"]["calls"], s["inner"]["total_ns"]) == (23, 2, 7)


def test_setup_ends_at_first_step_child():
    spans = [("experiments.run", 100, 200, -1, 0), ("grid.sample_material", 105, 110, 0, 0),
             ("coeffs", 112, 115, 0, 0), ("ugks.step", 120, 130, 0, 0), ("ugks.step", 130, 140, 0, 0)]
    assert setup_ns(spans) == [20]


def test_wrappers_are_restored_after_an_exception():
    import ugks1d.experiments as experiments

    original = experiments.step
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.instrument():
            assert experiments.step is not original
            raise RuntimeError
    assert experiments.step is original


def test_gate_flags_injected_profiles():
    case = Case("ex6 25", builtin_spec("ex6", times=(0.01,)), 25)
    wl = Workload("tiny", (case,), case, case.key, 1.0)
    res = run(case.spec, cells=case.cells)
    assert case.bounds == (0.0, float(Q16.nodes.max()))   # f_L = v, zero interior

    def reason(value):
        """Record the clean run, then the same run with rho[3] = value."""
        ledger = Ledger(wl)
        ledger.record({case.key: Outcome(res)})
        rho = res.rho[-1].copy()
        rho[3] = value
        ledger.record({case.key: Outcome(replace(res, rho=[rho]))})
        assert (ledger.attempted, ledger.failed) == (2, 1)
        return ledger.reasons[case.key]

    assert reason(np.nan) == "non-finite density"
    assert reason(2.0).startswith("maximum principle")
    assert reason(-1e-3).startswith("maximum principle")
    assert reason(np.nextafter(res.rho[-1][3], 1.0)) == "output differs from the first pass"


def test_seeds_shuffle_the_sweep_but_not_its_results(out_dir):
    by_seed = {}
    for seed in (1, 2):
        wl = build("eps-sweep-25", seed)
        ledger = Ledger(wl)
        outcomes, _ = execute(wl, out_dir)
        ledger.record(outcomes)
        by_seed[seed] = ([c.key for c in wl.cases],
                         {k: digest(o.result) for k, o in outcomes.items() if o.result is not None},
                         set(ledger.reasons))
    (order1, digests1, failed1), (order2, digests2, failed2) = by_seed[1], by_seed[2]
    assert order1 != order2 and sorted(order1) == sorted(order2)
    assert len(order1) == 42
    assert len(digests1) == 42 and digests1 == digests2
    assert failed1 == failed2 == set()


def test_known_failures_are_untimed_and_all_fail():
    wl = build("eps-sweep-25", 1)
    assert {c.key for c in wl.known_failures} == KNOWN_SEED_FAILURES
    assert not KNOWN_SEED_FAILURES & {c.key for c in wl.cases}
    reasons = check_known_failures(wl)
    assert set(reasons) == KNOWN_SEED_FAILURES
    assert all(why and why.startswith("maximum principle") for why in reasons.values())
