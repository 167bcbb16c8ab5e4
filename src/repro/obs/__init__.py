"""``repro.obs`` - cluster-wide observability for the reproduction.

One facade, :class:`Obs`, bundles the two instruments every subsystem
shares:

* a :class:`~repro.obs.metrics.MetricsRegistry` of labeled counters,
  gauges, and fixed-bucket histograms (pluggable clock: wall time for
  the executing runtime, ``sim.now`` for :class:`FixpointSim`, so
  simulated metrics are bit-identical under seeded replay);
* a :class:`~repro.obs.trace.Tracer` of causal spans whose 16-byte
  :class:`~repro.obs.trace.SpanContext` rides inside the delegation and
  gossip wire frames of :mod:`repro.fixpoint.net`, so one job's spans
  stitch across nodes (:func:`stitch`).

:meth:`Obs.export` is a JSON-ready dict; :meth:`Obs.summary` renders
the text dashboard the examples print.

``NULL_OBS`` is the disabled twin - same API, no work - both the
default for components that predate a caller opting in, and the control
the overhead benchmark prices real instrumentation against.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .metrics import Clock, MetricsError, MetricsRegistry, NullRegistry
from .trace import (
    CONTEXT_BYTES,
    NULL_CONTEXT,
    NullTracer,
    SpanContext,
    Tracer,
    render_trace,
    stitch,
)

#: Schema version stamped into every exported snapshot, so a reader of
#: a stored one knows what it is parsing.
SNAPSHOT_SCHEMA = 1


class Obs:
    """Registry + tracer under one name and one clock."""

    enabled = True

    def __init__(self, name: str = "obs", clock: Optional[Clock] = None):
        self.name = name
        self.clock: Clock = clock if clock is not None else time.perf_counter
        self.registry = MetricsRegistry(name=name, clock=self.clock)
        self.tracer = Tracer(node=name, clock=self.clock)

    # ------------------------------------------------------------------

    def export(self) -> Dict[str, object]:
        """Everything observed, as one deterministic JSON-ready dict."""
        spans = self.tracer.spans
        return {
            "schema": SNAPSHOT_SCHEMA,
            "name": self.name,
            "metrics": self.registry.export(),
            "spans": [span.as_dict() for span in spans],
            "traces": len({s.trace_id for s in spans}),
            "spans_dropped": self.tracer.dropped,
        }

    def summary(self) -> str:
        """The text dashboard: metrics, then every stitched trace."""
        lines = [self.registry.summary()]
        traces = self.tracer.traces()
        if traces:
            lines.append(f"== traces: {self.name} ({len(traces)}) ==")
            for trace_id in sorted(traces):
                lines.append(f"trace {trace_id:#x}")
                lines.append(render_trace(traces[trace_id]))
        return "\n".join(lines)

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()


class NullObs(Obs):
    """Observability off: every instrument is a shared no-op."""

    enabled = False

    def __init__(self, name: str = "null"):
        self.name = name
        self.clock = time.perf_counter
        self.registry = NullRegistry(name=name)
        self.tracer = NullTracer(node=name)

    def export(self) -> Dict[str, object]:
        return {
            "schema": SNAPSHOT_SCHEMA,
            "name": self.name,
            "metrics": self.registry.export(),
            "spans": [],
            "traces": 0,
            "spans_dropped": 0,
        }


#: The shared disabled instance - pass as ``obs=NULL_OBS`` to run a
#: component with zero observability overhead.
NULL_OBS = NullObs()


__all__ = [
    "CONTEXT_BYTES",
    "MetricsError",
    "MetricsRegistry",
    "NULL_CONTEXT",
    "NULL_OBS",
    "NullObs",
    "NullRegistry",
    "Obs",
    "SNAPSHOT_SCHEMA",
    "SpanContext",
    "Tracer",
    "render_trace",
    "stitch",
]
