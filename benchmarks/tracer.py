"""Outside-in span tracer for the ugks1d benchmark.

The tracer never edits the library. It swaps module-level names that the
layers call through (``ugks1d.experiments.step`` and friends) for timing
wrappers, and puts the originals back when the ``instrument`` block ends.
Spans are kept in memory as ``(name, start_ns, end_ns, parent, work)`` and
written out once, after the run.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import time
from collections import defaultdict

# (module, attribute, span name). A name the module lacks raises, so a later
# rename cannot silently zero a layer's counters.
TARGETS = (
    ("ugks1d.experiments", "step", "ugks.step"),
    ("ugks1d.experiments", "penalized_step", "penalized.step"),
    ("ugks1d.experiments", "upwind_step", "reference.upwind_step"),
    ("ugks1d.experiments", "diffusion_run", "reference.diffusion_run"),
    ("ugks1d.experiments", "coefficient_arrays", "coeffs"),
    ("ugks1d.experiments", "sample_material", "grid.sample_material"),
    ("ugks1d.ugks", "solve_banded", "ugks.solve"),
    ("ugks1d.ugks", "coefficient_arrays", "coeffs"),
    ("ugks1d.penalized", "penalized_source", "penalized.source"),
)

# Span names that mark a run's first solver step; set-up ends there.
STEP_SPANS = ("ugks.step", "penalized.step", "reference.upwind_step", "reference.diffusion_run")


def _state_size(state, *args, **kwargs) -> int:
    """Cell-node count of the state passed to ``step``."""
    return state.f.size


WORK = {"ugks.step": _state_size}


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each ``(module, attr, value)`` and
    restore every original on exit, also when the block raises."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """In-memory spans with parent links; ``clock`` returns nanoseconds.

    Spans live in parallel lists of plain numbers rather than one object per
    span: tens of thousands of small containers would make the cyclic garbage
    collector, not the wrappers, the main cost of tracing.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []      # -1 for a root span
        self.works: list[int] = []
        self._stack: list[int] = [-1]

    @property
    def spans(self) -> list[tuple]:
        """``(name, start_ns, end_ns, parent, work)`` per span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.works))

    def _open(self, name: str, work: int) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.works.append(work)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, work: int = 0):
        """Time the block, which may set its work count through the yielded
        function once it knows it."""
        idx = self._open(name, work)

        def set_work(n: int) -> None:
            self.works[idx] = n

        try:
            yield set_work
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        size = WORK.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name, size(*args, **kwargs) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def instrument(self, targets=TARGETS):
        """Context manager that routes every target through a span."""
        replacements = []
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            replacements.append((module, attr, self.wrap(getattr(module, attr), name)))
        return patched(replacements)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_ns", "end_ns", "parent", "work"))
            out.writerows(self.spans)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def summarize(spans) -> dict:
    """Per span name: calls, total ns, self ns and summed work."""
    out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0})
    for (name, start, end, _, work), own in zip(spans, self_times(spans)):
        s = out[name]
        s["calls"] += 1
        s["total_ns"] += end - start
        s["self_ns"] += own
        s["work"] += work
    return out


def setup_ns(spans, run_name: str = "experiments.run") -> list[int]:
    """For each ``run_name`` span, the time from its start to the start of
    its first step-like child span."""
    first = {}
    for name, start, _, parent, _ in spans:
        if (parent >= 0 and name in STEP_SPANS and parent not in first
                and spans[parent][0] == run_name):
            first[parent] = start - spans[parent][1]
    return list(first.values())
