"""Invocation tracing for the Fixpoint runtime.

Records what the runtime actually did - invocations, per-invocation wall
time, bytes mapped and created - without ever exposing a clock to user
codelets (determinism is preserved: traces are runtime-side only).

The trace feeds three consumers: tests (asserting invocation counts match
the paper's Table 2 formulas), the fig. 9 cost model (converting measured
operation counts into simulated latencies), and EXPERIMENTS.md.

Since the observability pass, :class:`Trace` is also a facade over
:mod:`repro.obs`: every :meth:`record` lands in a
:class:`~repro.obs.metrics.MetricsRegistry` as three families -

* ``fixpoint_invocations_total{function,worker}`` (counter),
* ``fixpoint_invocation_bytes_total{function}`` (counter),
* ``fixpoint_invocation_wall_seconds{function}`` (histogram)

- so a node's invocations show up in the same cluster-wide export as its
wire and scheduling metrics.  By default each Trace owns a private
registry; a runtime constructed with an :class:`~repro.obs.Obs` shares
that obs' registry instead (``Trace(registry=obs.registry)``).  The
in-memory :class:`InvocationRecord` list remains the queryable ground
truth for the Table-2 count assertions - it is exact, ordered, and
independent of which registry (real or null) backs the metrics.
:meth:`clear` resets only the three families this trace emits, never a
shared registry wholesale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.sync import TrackedLock
from ..obs.metrics import MetricsRegistry


@dataclass
class InvocationRecord:
    """One codelet invocation as observed by the runtime."""

    function: str
    wall_seconds: float
    bytes_mapped: int
    worker: str


class Trace:
    """Aggregated runtime activity; thread-safe.

    ``registry=None`` (the default) gives the trace a private
    :class:`~repro.obs.metrics.MetricsRegistry`; passing one in makes
    the trace emit into it - the path :class:`~repro.fixpoint.Fixpoint`
    takes when constructed with an obs facade.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = (
            registry if registry is not None
            else MetricsRegistry(name="fixpoint.trace")
        )
        self.records: List[InvocationRecord] = []
        self._lock = TrackedLock("Trace._lock")
        self._invocations = self.registry.counter(
            "fixpoint_invocations_total",
            "Codelet invocations by function and worker",
        )
        self._bytes = self.registry.counter(
            "fixpoint_invocation_bytes_total",
            "Bytes mapped into codelets, by function",
        )
        self._wall = self.registry.histogram(
            "fixpoint_invocation_wall_seconds",
            "Per-invocation wall time, by function",
        )

    def record(self, record: InvocationRecord) -> None:
        with self._lock:
            self.records.append(record)
        self._invocations.inc(
            function=record.function, worker=record.worker
        )
        if record.bytes_mapped:
            self._bytes.inc(record.bytes_mapped, function=record.function)
        self._wall.observe(record.wall_seconds, function=record.function)

    def invocation_count(self, function: Optional[str] = None) -> int:
        with self._lock:
            if function is None:
                return len(self.records)
            return sum(1 for r in self.records if r.function == function)

    def total_bytes_mapped(self) -> int:
        with self._lock:
            return sum(r.bytes_mapped for r in self.records)

    def by_function(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {}
            for r in self.records:
                out[r.function] = out.get(r.function, 0) + 1
            return out

    def clear(self) -> None:
        with self._lock:
            self.records.clear()
        # Scoped: only the families this trace emits - a shared
        # registry's other instruments are not this trace's to wipe.
        self._invocations.reset()
        self._bytes.reset()
        self._wall.reset()


class Stopwatch:
    """Context manager measuring wall time for one invocation."""

    __slots__ = ("elapsed", "_start")

    def __init__(self):
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
