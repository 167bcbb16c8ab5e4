"""Span-based causal tracing that survives crossing the wire.

"Why was this placement slow" is unanswerable from per-node logs once a
job hops a delegation: the caller's dispatch, the peer's serve, and the
caller's absorb happen on three threads on two nodes.  A :class:`Span`
records one timed step; its ``context`` is ``trace_id`` and ``span_id``
packed ``<QQ``, the 16 bytes that ride *inside* the wire frames of
:mod:`repro.fixpoint.net` - delegation request/reply and gossip
SYN/ACK/PUSH alike - so the remote side's spans join the caller's trace
and :func:`stitch` reassembles the causal chain afterwards::

    submit -> admit -> place -> dispatch -> serve (remote) -> absorb

Span identifiers are deterministic: each :class:`Tracer` salts a
sequence counter with a digest of its node name, so two nodes never
collide and a seeded replay mints identical ids - the same property the
rest of the substrate has.  There is no ambient thread-local "current
span": causality in this codebase crosses threads and nodes constantly,
so parenthood is always explicit (the bug class implicit context would
invite - a serve span parented to an unrelated local eval - cannot be
written).

The clock is pluggable exactly like the metrics registry's: wall for
the executing runtime, ``sim.now`` for the simulated platform.
"""

from __future__ import annotations

import hashlib
import struct
import time
from typing import Callable, Dict, List, Optional

from ..analysis.sync import TrackedLock

Clock = Callable[[], float]

_CTX = struct.Struct("<QQ")

#: Bytes a span context occupies inside a wire frame.
CONTEXT_BYTES = _CTX.size  # 16

#: "No trace": what a frame from an untraced (null-obs) node carries.
NULL_CONTEXT = bytes(CONTEXT_BYTES)

#: Spans a tracer retains; past it new spans are minted but not kept.
MAX_SPANS = 100_000


class Span:
    """One timed, attributed step of one trace on one node.

    Usable as a context manager (an exception marks it ``error``), or
    ended explicitly with :meth:`finish` - the wire paths do the latter
    because a span's end lives on a different thread than its start.
    """

    __slots__ = (
        "tracer", "name", "node", "trace_id", "span_id", "parent_id",
        "context", "start", "end", "attrs", "status", "error",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: int,
        start: float,
        attrs: Dict[str, object],
    ):
        self.tracer = tracer
        self.name = name
        self.node = tracer.node
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        #: What a frame carries: the two ids packed ``<QQ``.
        self.context = _CTX.pack(trace_id, span_id)
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.status = "ok"
        self.error: Optional[str] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def done(self) -> bool:
        return self.end is not None

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(
        self, status: str = "ok", error: Optional[str] = None
    ) -> "Span":
        """End the span (idempotent: the first finish wins)."""
        if self.end is None:
            self.end = self.tracer.clock()
            self.status = status
            self.error = error
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.finish(status="error", error=f"{exc_type.__name__}: {exc}")
        else:
            self.finish()

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "node": self.node,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, node={self.node!r}, "
            f"trace={self.trace_id:#x}, status={self.status!r})"
        )


def _node_salt(node: str) -> int:
    """A 32-bit salt from the node name: deterministic, collision-spread."""
    digest = hashlib.blake2b(node.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


class Tracer:
    """Mints and records spans for one node.

    Memory is bounded on long-lived nodes: past :data:`MAX_SPANS` new
    spans are still minted (identity must keep flowing onto the wire)
    but no longer retained, and :attr:`dropped` counts them - a bounded
    buffer that degrades visibly, never a silent unbounded list.
    """

    def __init__(self, node: str = "", clock: Clock = time.perf_counter):
        self.node = node
        self.clock = clock
        self.dropped = 0
        self._salt = _node_salt(node)
        self._seq = 0
        self._lock = TrackedLock("Tracer._lock")
        self._spans: List[Span] = []

    def start(
        self, name: str, parent: bytes = NULL_CONTEXT, **attrs: object
    ) -> Span:
        """Mint (and retain) a span.

        ``parent`` is a span context: another span's ``context``, or the
        16 bytes a frame carried - this is the call the wire paths make
        with the context they just decoded, which is all "distributed
        tracing" is.  The span joins the parent's trace; with
        ``NULL_CONTEXT`` (no parent, or a frame from an untraced peer)
        it starts a fresh trace as its root (``trace_id == span_id``).
        """
        with self._lock:
            self._seq += 1
            span_id = (self._salt << 32) | (self._seq & 0xFFFFFFFF)
            if parent == NULL_CONTEXT:
                trace_id, parent_id = span_id, 0
            else:
                trace_id, parent_id = _CTX.unpack(parent)
            span = Span(
                self, name, trace_id, span_id, parent_id,
                self.clock(), dict(attrs),
            )
            if len(self._spans) < MAX_SPANS:
                self._spans.append(span)
            else:
                self.dropped += 1
        return span

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)


class _NullSpan(Span):
    """The shared do-nothing span: carries NULL_CONTEXT onto the wire."""

    def __init__(self):  # noqa: D401 - bypass Span.__init__ entirely
        self.tracer = None  # type: ignore[assignment]
        self.name = "null"
        self.node = ""
        self.trace_id = 0
        self.span_id = 0
        self.parent_id = 0
        self.context = NULL_CONTEXT
        self.start = 0.0
        self.end = 0.0
        self.attrs = {}
        self.status = "ok"
        self.error = None

    def set(self, **attrs: object) -> "Span":
        return self

    def finish(self, status: str = "ok", error: Optional[str] = None) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Same API, no spans, no ids - frames carry :data:`NULL_CONTEXT`."""

    def start(
        self, name: str, parent: bytes = NULL_CONTEXT, **attrs: object
    ) -> Span:
        return _NULL_SPAN


def stitch(*tracers: Tracer) -> Dict[int, List[Span]]:
    """Reassemble traces from any number of tracers.

    This is the cross-node join: hand it every node's tracer and each
    returned group is one causal chain - caller dispatch, remote serve,
    absorb - no matter which node recorded which span.  Groups and
    members sort by start time (ties by span id, so stitching is
    deterministic even for zero-duration sim spans).
    """
    grouped: Dict[int, List[Span]] = {}
    for tracer in tracers:
        for span in tracer.spans:
            if span.trace_id == 0:
                continue
            grouped.setdefault(span.trace_id, []).append(span)
    for spans in grouped.values():
        spans.sort(key=lambda s: (s.start, s.span_id))
    return grouped


def render_trace(spans: List[Span]) -> str:
    """One stitched trace as an indented text tree (for examples/debug);
    durations in seconds."""
    children: Dict[int, List[Span]] = {}
    by_id = {span.span_id: span for span in spans}
    roots: List[Span] = []
    for span in spans:
        if span.parent_id and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        flag = "" if span.status == "ok" else f" [{span.status}: {span.error}]"
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        attrs = f" {attrs}" if attrs else ""
        lines.append(
            f"{'  ' * depth}{span.name} @{span.node} "
            f"{span.duration:.6f}s{attrs}{flag}"
        )
        for child in sorted(
            children.get(span.span_id, ()), key=lambda s: (s.start, s.span_id)
        ):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda s: (s.start, s.span_id)):
        walk(root, 0)
    return "\n".join(lines)
