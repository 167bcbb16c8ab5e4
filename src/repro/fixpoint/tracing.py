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
trace's own per-function invocation and byte counts remain the
queryable ground truth for the Table-2 count assertions - exact, and
independent of which registry (real or null) backs the metrics - and
they are all it keeps: its state grows with the number of functions,
not of invocations.  :meth:`clear` resets only the three families this
trace emits, never a shared registry wholesale.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..analysis.sync import TrackedLock
from ..obs.metrics import MetricsRegistry


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
        #: function -> invocations / bytes mapped, in first-seen order
        self._counts: Dict[str, int] = {}
        self._mapped: Dict[str, int] = {}
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

    def record(
        self, function: str, wall_seconds: float, bytes_mapped: int, worker: str
    ) -> None:
        """One codelet invocation as observed by the runtime."""
        with self._lock:
            self._counts[function] = self._counts.get(function, 0) + 1
            self._mapped[function] = (
                self._mapped.get(function, 0) + bytes_mapped
            )
        self._invocations.inc(function=function, worker=worker)
        if bytes_mapped:
            self._bytes.inc(bytes_mapped, function=function)
        self._wall.observe(wall_seconds, function=function)

    def invocation_count(self, function: Optional[str] = None) -> int:
        with self._lock:
            if function is None:
                return sum(self._counts.values())
            return self._counts.get(function, 0)

    def total_bytes_mapped(self) -> int:
        with self._lock:
            return sum(self._mapped.values())

    def by_function(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._mapped.clear()
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
