"""Spans recorded from the benchmark's side of the library boundary.

Nothing inside ``robust_select`` is edited. The benchmark records a span
around each call it makes, and reaches the inner layers in two ways:

* the scenario is built with a ``TracingMatroid`` that delegates to the real
  matroid, so every independence query the solvers make is a span;
* ``traced_solvers`` swaps ``SurrogateOracle``, ``threshold_greedy`` and
  ``min_objective`` in the ``robust_select.solvers`` namespace, where the
  solvers look them up, for the duration of the traced run only.

Spans of the current op stay in memory and are reduced to per-layer totals
when the op ends: a span's self time is its duration minus the durations of
its direct children. Layer counters (passes, insertions, base-set hits) are
recorded at the same boundaries.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import workloads  # noqa: F401  (puts the checkout's library first on sys.path)
from robust_select import solvers
from robust_select.matroid import Matroid

class Tracer:
    """In-memory spans of one op at a time, plus per-layer counters."""

    def __init__(self) -> None:
        self._name: list[str] = []
        self._parent: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._stack = [-1]
        self.counts: Counter = Counter()

    def enter(self, name: str) -> int:
        sid = len(self._name)
        self._name.append(name)
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(sid)
        self._start.append(perf_counter_ns())
        return sid

    def exit(self, sid: int) -> None:
        self._end[sid] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(sid)

    def spans(self, op_id: int) -> list[dict]:
        """The current op's spans as records, all sharing ``op_id``."""
        return [
            {"op": op_id, "span": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
            for sid, (name, parent, start, end) in enumerate(
                zip(self._name, self._parent, self._start, self._end)
            )
        ]

    def end_op(self) -> tuple[dict[str, list[int]], Counter]:
        """Reduce the current op's spans to {name: [calls, self_ns, total_ns]},
        return them with the op's counters, and start a fresh op."""
        if len(self._stack) != 1:
            raise RuntimeError("op ended with spans still open")
        duration = [end - start for start, end in zip(self._start, self._end)]
        own = list(duration)
        for sid, parent in enumerate(self._parent):
            if parent >= 0:
                own[parent] -= duration[sid]
        layers: dict[str, list[int]] = {}
        for sid, name in enumerate(self._name):
            row = layers.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += own[sid]
            row[2] += duration[sid]
        counts = self.counts
        self._name, self._parent, self._start, self._end = [], [], [], []
        self.counts = Counter()
        return layers, counts


class TracingMatroid(Matroid):
    """Delegates every query to ``inner`` and records it as a span."""

    def __init__(self, inner: Matroid, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.n_actions = inner.n_actions

    def is_independent(self, subset) -> bool:
        return self.tracer.call("matroid.is_independent", self.inner.is_independent, subset)

    def can_extend(self, subset, element) -> bool:
        return self.tracer.call("matroid.can_extend", self.inner.can_extend, subset, element)

    def is_basis(self, subset) -> bool:
        return self.tracer.call("matroid.is_basis", self.inner.is_basis, subset)


def _traced_surrogate(tracer: Tracer, base: type) -> type:
    class TracedSurrogateOracle(base):
        """The library's surrogate oracle with spans around its public calls.
        The counter delta of a gain tells a pinned-base hit (N individual
        evaluations) from a miss (2N)."""

        def marginal_gain(self, subset, element):
            before = self.counter.individual_evals
            sid = tracer.enter("surrogate.marginal_gain")
            try:
                return super().marginal_gain(subset, element)
            finally:
                tracer.exit(sid)
                charged = self.counter.individual_evals - before
                counts = tracer.counts
                counts["surrogate.gains"] += 1
                counts["surrogate.individual_evals"] += charged
                if charged:
                    counts["surrogate.charged_gains"] += 1
                    if charged == self.scenario.n_agents:
                        counts["surrogate.base_hits"] += 1

        def evaluate(self, subset):
            before = self.counter.individual_evals
            sid = tracer.enter("surrogate.evaluate")
            try:
                return super().evaluate(subset)
            finally:
                tracer.exit(sid)
                tracer.counts["surrogate.individual_evals"] += self.counter.individual_evals - before

    return TracedSurrogateOracle


def _traced_threshold_greedy(tracer: Tracer, greedy):
    def threshold_greedy(oracle, matroid, delta, trace=None, stats=None):
        stats = {} if stats is None else stats
        gains_before = tracer.counts["surrogate.gains"]
        selected = tracer.call("solvers.threshold_greedy", greedy, oracle, matroid, delta, trace=trace, stats=stats)
        counts = tracer.counts
        counts["threshold_greedy.passes"] += stats["passes"]
        counts["threshold_greedy.insertions"] += len(selected)
        counts["threshold_greedy.gains"] += counts["surrogate.gains"] - gains_before
        return selected

    return threshold_greedy


@contextmanager
def traced_solvers(tracer: Tracer):
    """Swap traced stand-ins into ``robust_select.solvers`` and restore the
    originals on exit."""
    saved = {name: getattr(solvers, name) for name in ("SurrogateOracle", "threshold_greedy", "min_objective")}
    solvers.SurrogateOracle = _traced_surrogate(tracer, saved["SurrogateOracle"])
    solvers.threshold_greedy = _traced_threshold_greedy(tracer, saved["threshold_greedy"])
    solvers.min_objective = lambda *args, **kwargs: tracer.call("scenario.min_objective", saved["min_objective"], *args, **kwargs)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(solvers, name, value)
