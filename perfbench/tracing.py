"""Span recorder for the benchmark's traced runs.

Spans are taken from outside qflow: :func:`patched` swaps the names that
``qflow.allocators`` and ``qflow.experiments`` look up at call time for
timing wrappers, and restores them on exit. Nothing inside ``src/`` changes,
so an untraced run executes exactly the program's own code.

Each span holds a name, a start and end ``perf_counter`` reading, the index
of the enclosing span (-1 at the top) and the index of the allocator
decision it belongs to (-1 outside a decision). A decision is identified by
its workflow id and attempt number. Spans are kept in flat typed arrays so
that the hundreds of thousands of per-candidate spans of one unit stay a
few megabytes, and are written out once the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

SPAN_NAMES = ("run", "decide", "bounds", "enum", "score", "feasible", "write")
RUN, DECIDE, BOUNDS, ENUM, SCORE, FEASIBLE, WRITE = range(len(SPAN_NAMES))


class Tracer:
    """In-memory span store plus the matcher stream counters."""

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.decision = array("i")
        self.decisions: list[tuple[str, int]] = []
        self.streams = 0
        self.streams_exhausted = 0
        self.mappings = 0
        self.bytes_written = 0
        self._stack = [-1]
        self._current = -1

    def _append(self, name: int, t0: float, t1: float) -> int:
        self.name.append(name)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._stack[-1])
        self.decision.append(self._current)
        return len(self.name) - 1

    @contextmanager
    def span(self, name: int, decision: tuple[str, int] | None = None):
        """Open a span that may contain child spans."""
        previous = self._current
        if decision is not None:
            self.decisions.append(decision)
            self._current = len(self.decisions) - 1
        idx = self._append(name, time.perf_counter(), 0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._current = previous

    def leaf(self, name: int, fn):
        """Wrap ``fn`` so that every call records one childless span."""
        clock = time.perf_counter
        append = self._append

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            append(name, t0, clock())
            return result

        return wrapper

    def stream(self, fn):
        """Wrap a function returning an iterator so that each ``next()``
        records one enumeration span."""

        def wrapper(*args, **kwargs):
            self.streams += 1
            return self._timed_iter(fn(*args, **kwargs))

        return wrapper

    def _timed_iter(self, iterator):
        clock = time.perf_counter
        while True:
            t0 = clock()
            try:
                item = next(iterator)
            except StopIteration:
                self._append(ENUM, t0, clock())
                self.streams_exhausted += 1
                return
            self._append(ENUM, t0, clock())
            self.mappings += 1
            yield item

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time (duration minus
        the part covered by child spans) and span count."""
        n = len(self.name)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        count = dict.fromkeys(SPAN_NAMES, 0)
        for i in range(n):
            key = SPAN_NAMES[self.name[i]]
            total[key] += duration[i]
            own[key] += duration[i] - covered[i]
            count[key] += 1
        return total, own, count

    def write(self, path_stem: Path) -> None:
        """Write ``<stem>.json`` (names, decision ids, array layout) and
        ``<stem>.bin`` (the five arrays back to back, native byte order)."""
        path_stem.parent.mkdir(parents=True, exist_ok=True)
        columns = (self.name, self.start, self.end, self.parent, self.decision)
        with open(path_stem.with_suffix(".bin"), "wb") as fh:
            for column in columns:
                column.tofile(fh)
        header = {
            "span_names": SPAN_NAMES,
            "spans": len(self.name),
            "columns": [["name", "b"], ["start", "d"], ["end", "d"], ["parent", "i"], ["decision", "i"]],
            "byteorder": sys.byteorder,
            "decisions": self.decisions,
        }
        path_stem.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")


@contextmanager
def swapped(module, replacements: dict[str, object]):
    """Point ``module``'s names at ``replacements`` for the duration."""
    originals = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(module, name, value)


@contextmanager
def patched(tracer: Tracer):
    """Route the allocators' cost, bound, matcher and feasibility lookups and
    the experiment runner's ``write_outputs`` through ``tracer``."""
    allocators = sys.modules["qflow.allocators"]
    experiments = sys.modules["qflow.experiments"]
    write_outputs = experiments.write_outputs

    def traced_write(result, out_dir):
        with tracer.span(WRITE):
            paths = write_outputs(result, out_dir)
        tracer.bytes_written += sum(p.stat().st_size for p in paths.values())
        return paths

    traced = {
        "aggregate_cost": tracer.leaf(SCORE, allocators.aggregate_cost),
        "compute_bounds": tracer.leaf(BOUNDS, allocators.compute_bounds),
        "mapping_feasible": tracer.leaf(FEASIBLE, allocators.mapping_feasible),
        "workflow_monomorphisms": tracer.stream(allocators.workflow_monomorphisms),
    }
    with swapped(allocators, traced), swapped(experiments, {"write_outputs": traced_write}):
        yield
