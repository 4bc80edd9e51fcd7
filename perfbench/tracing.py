"""Unit clocks, spans, counters and the autodiff census for the benchmark.

Everything here wraps kgfuse from the outside: a hook replaces a module
attribute (the name a caller looks up at call time) with a wrapper and puts
the original back when the run ends.  No file under ``src/`` is edited.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter


class Hooks:
    """Module-attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` with ``make(original)``."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


_REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16) / 4.0


def reference_chunk() -> None:
    """A fixed mix of small numpy operations and Python tuple and set work,
    the same mix the autodiff core spends its time on; about 2 ms on 2 vCPU."""
    x = _REFERENCE_MATRIX
    seen = set()
    for i in range(300):
        x = np.tanh(x @ _REFERENCE_MATRIX) + 0.5 * x
        seen.add((i % 31, i % 7))


class UnitClock:
    """Durations of the workload's units of work, in seconds, each with the
    duration of the reference chunks run around it.

    A unit opens at :meth:`begin` and closes at the next :meth:`end`; a unit
    that raises is left open and counts as attempted but not completed.
    A reference chunk runs right after each unit, and :meth:`interleave`
    runs one inside a long unit, its time taken out of the unit's.  A unit's
    reference time is the mean of the chunks run just before, inside and
    just after it.  The host's speed changes every second or so; a unit and
    the chunks beside it see the same speed, so their ratio, the unit's cost
    in reference chunks, does not.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.references: list[float] = []
        self.reference_s = 0.0        # total time spent in reference chunks
        self.attempted = 0
        self._start: float | None = None
        self._before: float | None = None
        self._inside: list[float] = []

    def _reference(self) -> float:
        start = _clock()
        reference_chunk()
        elapsed = _clock() - start
        self.reference_s += elapsed
        return elapsed

    def begin(self) -> None:
        if self._before is None:
            self._before = self._reference()
        self.attempted += 1
        self._inside = []
        self._start = _clock()

    def interleave(self) -> None:
        if self._start is not None:
            self._inside.append(self._reference())

    def end(self) -> None:
        if self._start is None:
            return
        self.durations.append(_clock() - self._start - sum(self._inside))
        self._start = None
        after = self._reference()
        chunks = [self._before, *self._inside, after]
        self.references.append(sum(chunks) / len(chunks))
        self._before = after

    def costs(self) -> list[float]:
        """Each completed unit's duration in reference chunks."""
        return [d / r for d, r in zip(self.durations, self.references)]


class Tracer:
    """Spans and counters kept in memory until the run ends.

    A span is ``[name, start, end, parent, step]``: ``parent`` is the index
    of the enclosing span (-1 at top level) and ``step`` the unit of work it
    belongs to (0 before the first unit).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.step = 0
        self.sums: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.node_counts: Counter = Counter()
        self.vjp_seconds: dict[str, float] = defaultdict(float)
        self.backward_calls = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.step])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def add(self, name: str, value: float) -> None:
        """Record one observation of counter ``name`` (mean = sum / count)."""
        self.sums[name] += value
        self.counts[name] += 1

    def mean(self, name: str) -> float:
        count = self.counts.get(name, 0)
        return self.sums[name] / count if count else 0.0

    def span_table(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is single-threaded.
        """
        child_seconds = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_seconds[i]
        return table


def spanned(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(args, result)`` records counters."""

    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def census(loss, tracer: Tracer) -> None:
    """Count the autodiff nodes reachable from ``loss`` by ``Tensor.op`` and
    wrap each node's VJP in a timer keyed by that op.

    Only nodes that carry a VJP are counted: those are the nodes whose
    backward rule runs.  The graph has no public parent accessor, so the walk
    reads ``Tensor._parents``; it changes nothing but the ``_vjp`` slot of
    nodes that are about to be consumed by ``backward``.
    """
    seen: set[int] = set()
    stack = [loss]
    counts = tracer.node_counts
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            counts[node.op] += 1
            node._vjp = _timed_vjp(node._vjp, node.op, tracer.vjp_seconds)
        stack.extend(node._parents)
    tracer.backward_calls += 1


def _timed_vjp(vjp, op: str, seconds: dict[str, float]):
    def run(g):
        start = _clock()
        out = vjp(g)
        seconds[op] += _clock() - start
        return out

    return run
