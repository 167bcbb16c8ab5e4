"""Invocation tracing for the Fixpoint runtime.

Records what the runtime actually did - invocations, per-invocation wall
time, bytes mapped and created - without ever exposing a clock to user
codelets (determinism is preserved: traces are runtime-side only).

The trace feeds three consumers: tests (asserting invocation counts match
the paper's Table 2 formulas), the fig. 9 cost model (converting measured
operation counts into simulated latencies), and EXPERIMENTS.md.

Since the observability pass, :class:`Trace` is also a facade over
:mod:`repro.obs`: its registry reads every :meth:`record` as three
families -

* ``fixpoint_invocations_total{function,worker}`` (counter),
* ``fixpoint_invocation_bytes_total{function}`` (counter),
* ``fixpoint_invocation_wall_seconds{function}`` (histogram)

- so a node's invocations show up in the same cluster-wide export as its
wire and scheduling metrics.  A runtime constructed with an
:class:`~repro.obs.Obs` hands the trace that obs' registry; a bare one
hands it ``NULL_OBS.registry``, which reads nothing and binds no
histogram.  The two counters read the trace's own counts - invocations
per function and worker, bytes mapped per function - which are also the
queryable ground truth for the Table-2 count assertions, and all it
keeps: its state grows with the functions and workers seen, not with
the invocations.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.sync import TrackedLock
from ..obs.metrics import MetricsRegistry


class Trace:
    """Aggregated runtime activity; thread-safe.  ``registry`` reads the
    counts this trace answers from."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        #: (function, worker) -> invocations, and function -> bytes
        #: mapped, in first-seen order
        self._counts: Dict[Tuple[str, str], int] = {}
        self._mapped: Dict[str, int] = {}
        self._lock = TrackedLock("Trace._lock")
        registry.counter(
            "fixpoint_invocations_total",
            "Codelet invocations by function and worker",
        ).read(self._counts.copy, "function", "worker")
        registry.counter(
            "fixpoint_invocation_bytes_total",
            "Bytes mapped into codelets, by function",
        ).read(
            lambda: {f: n for f, n in self._mapped.copy().items() if n},
            "function",
        )
        self._wall = registry.histogram(
            "fixpoint_invocation_wall_seconds",
            "Per-invocation wall time, by function",
        )

    def record(
        self, function: str, wall_seconds: float, bytes_mapped: int, worker: str
    ) -> None:
        """One codelet invocation as observed by the runtime."""
        key = (function, worker)
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self._mapped[function] = (
                self._mapped.get(function, 0) + bytes_mapped
            )
        if self._wall is not None:
            self._wall.observe(wall_seconds, function=function)

    def invocation_count(self, function: Optional[str] = None) -> int:
        counts = self.by_function()
        if function is None:
            return sum(counts.values())
        return counts.get(function, 0)

    def total_bytes_mapped(self) -> int:
        with self._lock:
            return sum(self._mapped.values())

    def by_function(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        with self._lock:
            for (function, _worker), n in self._counts.items():
                counts[function] = counts.get(function, 0) + n
        return counts
