"""Span-based causal tracing that survives crossing the wire.

"Why was this placement slow" is unanswerable from per-node logs once a
job hops a delegation: the caller's dispatch, the peer's serve, and the
caller's absorb happen on three threads on two nodes.  A :class:`Span`
records one timed step; a :class:`SpanContext` (``trace_id`` +
``span_id``, 16 bytes packed) rides *inside* the wire frames of
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
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.sync import TrackedLock

Clock = Callable[[], float]

_CTX = struct.Struct("<QQ")

#: Bytes a packed :class:`SpanContext` occupies inside a wire frame.
CONTEXT_BYTES = _CTX.size  # 16


class SpanContext:
    """The 16 bytes of identity a frame carries: (trace_id, span_id)."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def pack(self) -> bytes:
        return _CTX.pack(self.trace_id, self.span_id)

    @classmethod
    def unpack(cls, raw: bytes, offset: int = 0) -> Tuple["SpanContext", int]:
        trace_id, span_id = _CTX.unpack_from(raw, offset)
        return cls(trace_id, span_id), offset + _CTX.size

    def __bool__(self) -> bool:
        return self.trace_id != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpanContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"SpanContext({self.trace_id:#x}, {self.span_id:#x})"


#: "No trace": what a frame from an untraced (null-obs) node carries.
NULL_CONTEXT = SpanContext(0, 0)

Parent = Union["Span", SpanContext, None]


class Span:
    """One timed, attributed step of one trace on one node.

    Usable as a context manager (an exception marks it ``error``), or
    ended explicitly with :meth:`finish` - the wire paths do the latter
    because a span's end lives on a different thread than its start.
    """

    __slots__ = (
        "tracer", "name", "node", "trace_id", "span_id", "parent_id",
        "start", "end", "attrs", "status", "error",
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
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.status = "ok"
        self.error: Optional[str] = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

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

    ``max_spans`` bounds memory on long-lived nodes: past the cap new
    spans are still minted (identity must keep flowing onto the wire)
    but no longer retained, and :attr:`dropped` counts them - a bounded
    buffer that degrades visibly, never a silent unbounded list.
    """

    def __init__(
        self,
        node: str = "",
        clock: Clock = time.perf_counter,
        max_spans: int = 100_000,
    ):
        self.node = node
        self.clock = clock
        self.max_spans = max_spans
        self.dropped = 0
        self._salt = _node_salt(node)
        self._seq = 0
        self._lock = TrackedLock("Tracer._lock")
        self._spans: List[Span] = []

    def _next_id(self) -> int:
        # Called with the lock held.
        self._seq += 1
        return (self._salt << 32) | (self._seq & 0xFFFFFFFF)

    def start(self, name: str, parent: Parent = None, **attrs: object) -> Span:
        """Mint (and retain) a span.

        ``parent=None`` starts a fresh trace (the span is its root:
        ``trace_id == span_id``); a :class:`Span` or :class:`SpanContext`
        parent joins its trace - this is the call the wire paths make
        with the context they just unpacked, which is all "distributed
        tracing" is.  A false context (``NULL_CONTEXT``) behaves like no
        parent, so traffic from untraced peers degrades to local roots.
        """
        if isinstance(parent, Span):
            parent = parent.context
        if parent is not None and not parent:
            parent = None
        with self._lock:
            span_id = self._next_id()
            if parent is None:
                trace_id, parent_id = span_id, 0
            else:
                trace_id, parent_id = parent.trace_id, parent.span_id
            span = Span(
                self, name, trace_id, span_id, parent_id,
                self.clock(), dict(attrs),
            )
            if len(self._spans) < self.max_spans:
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

    def __init__(self, node: str = "null", clock: Clock = time.perf_counter):
        super().__init__(node, clock, max_spans=0)

    def start(self, name: str, parent: Parent = None, **attrs: object) -> Span:
        return _NULL_SPAN


def stitch(*sources: Union[Tracer, Iterable[Span]]) -> Dict[int, List[Span]]:
    """Reassemble traces from any number of tracers/span lists.

    This is the cross-node join: hand it every node's tracer and each
    returned group is one causal chain - caller dispatch, remote serve,
    absorb - no matter which node recorded which span.  Groups and
    members sort by start time (ties by span id, so stitching is
    deterministic even for zero-duration sim spans).
    """
    grouped: Dict[int, List[Span]] = {}
    for source in sources:
        spans = source.spans if isinstance(source, Tracer) else source
        for span in spans:
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
