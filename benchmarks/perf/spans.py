"""The traced run: spans recorded from outside the program.

Nothing under ``src/`` knows about this recorder.  It rebinds the public
entry points of each layer (module functions where the caller imported
them, methods on their classes) to wrappers that record a span - name,
start, end, parent, the id of the op in flight, thread - and restores
the originals on exit.  Spans stay in memory; :meth:`SpanRecorder.dump`
writes them when the run ends.  Spans inside the program are a later
issue; so is anything this cannot see (lock waits, thread start-up),
which lands in ``trace.residue_pct``.

Derived per traced section:

* ``self_seconds[layer]`` - span time minus the time of child spans on
  the same thread, summed per layer (a layer is the module the wrapped
  function lives in);
* coverage - the part of each op's wall interval that at least one
  span (on any thread) covers; the rest is the residue;
* counts taken at the same boundaries: frames sent, handles bundled.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import repro.dist.costmodel as costmodel
import repro.dist.scheduler as scheduler_module
import repro.fixpoint.net as net
from repro.baselines.base import Platform
from repro.core.storage import Repository
from repro.dist.gossip import GossipCoordinator
from repro.dist.objectview import ObjectView
from repro.dist.scheduler import DataflowScheduler
from repro.fixpoint.net import Channel, FixpointNode
from repro.fixpoint.runtime import Fixpoint

#: (owner, attribute, layer).  Module attributes are patched where the
#: *caller* looks them up (``net`` imported its codecs by name).
TARGETS: List[Tuple[object, str, str]] = [
    (Repository, "handles", "core.storage"),
    (Repository, "put_blob", "core.storage"),
    (Repository, "put_tree", "core.storage"),
    (Repository, "get", "core.storage"),
    (net, "transitive_footprint", "core.minrepo"),
    (net, "encode_bundle", "core.serialize"),
    (net, "decode_bundle", "core.serialize"),
    (Fixpoint, "holdings", "fixpoint.runtime"),
    (Fixpoint, "eval", "fixpoint.runtime"),
    (Fixpoint, "spawn", "fixpoint.runtime"),
    (Channel, "send", "fixpoint.net"),
    (Channel, "arrival", "fixpoint.net"),
    (FixpointNode, "quote_best", "fixpoint.net"),
    (FixpointNode, "delegate_async", "fixpoint.net"),
    (FixpointNode, "scatter", "fixpoint.net"),
    (FixpointNode, "gossip_with", "fixpoint.net"),
    (ObjectView, "digest", "dist.objectview"),
    (ObjectView, "delta_since", "dist.objectview"),
    (ObjectView, "merge_delta", "dist.objectview"),
    (ObjectView, "price_moves", "dist.objectview"),
    (ObjectView, "bytes_missing_many", "dist.objectview"),
    (ObjectView, "learn", "dist.objectview"),
    (costmodel, "price_moves", "dist.costmodel"),
    (net, "choose", "dist.costmodel"),
    (scheduler_module, "choose", "dist.costmodel"),
    (DataflowScheduler, "place", "dist.scheduler"),
    (net, "pack_digest", "dist.gossip"),
    (net, "unpack_digest", "dist.gossip"),
    (net, "pack_delta", "dist.gossip"),
    (net, "unpack_delta", "dist.gossip"),
    (GossipCoordinator, "round", "dist.gossip"),
    (net, "pack_members", "dist.membership"),
    (net, "unpack_members", "dist.membership"),
    (Platform, "run", "dist.engine"),
]

LAYERS = sorted({layer for _owner, _attr, layer in TARGETS})


class SpanRecorder:
    """Records spans while installed; one instance per traced section."""

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        #: (id, parent id or -1, name, start, end, op id, thread name)
        self.spans: List[tuple] = []
        self.dropped = 0
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.frames = 0
        self.handles_bundled = 0
        self.ops = 0
        self.op_seconds = 0.0
        self.covered_seconds = 0.0
        self._op = -1
        self._op_open = False
        self._roots: List[Tuple[float, float]] = []
        self._next = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- ops -----------------------------------------------------------

    def begin_op(self) -> None:
        self._op += 1
        self._roots = []
        self._op_open = True
        self._op_start = time.perf_counter()

    def end_op(self, counted: bool = True) -> None:
        end = time.perf_counter()
        self._op_open = False
        if not counted:  # an injected fault, not an op
            return
        self.ops += 1
        self.op_seconds += end - self._op_start
        covered, frontier = 0.0, self._op_start
        for start, stop in sorted(self._roots):
            start, stop = max(start, frontier), min(stop, end)
            if stop > start:
                covered += stop - start
                frontier = stop
        self.covered_seconds += covered

    # -- spans ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        recorder = self
        local = self._local
        count_frames = name == "Channel.send"
        count_handles = name == "net.encode_bundle"
        listed = name == "Repository.handles"

        def traced(*args, **kwargs):
            if not recorder._op_open:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with recorder._lock:
                ident = recorder._next
                recorder._next += 1
            bundled = 0
            if count_handles:
                args = (args[0], list(args[1]), *args[2:])
                bundled = len(args[1])
            # [id, start, child seconds]
            frame = [ident, time.perf_counter(), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if listed:
                    # A generator's work happens at iteration: do it
                    # inside the span.
                    result = iter(list(result))
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                with recorder._lock:
                    recorder.self_seconds[layer] += duration - frame[2]
                    recorder.frames += count_frames
                    recorder.handles_bundled += bundled
                if stack:
                    stack[-1][2] += duration
                else:
                    recorder._roots.append((frame[1], end))
                if len(recorder.spans) < recorder.keep:
                    recorder.spans.append(
                        (
                            ident, parent, name, frame[1], end,
                            recorder._op, threading.current_thread().name,
                        )
                    )
                else:
                    recorder.dropped += 1

        return traced

    def __enter__(self) -> "SpanRecorder":
        for owner, attr, layer in TARGETS:
            original = owner.__dict__[attr]
            label = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
            setattr(owner, attr, self._wrap(original, f"{label}.{attr}", layer))
            self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        ops = max(1, self.ops)
        out = {
            f"trace.self_ms.{layer}": 1e3 * self.self_seconds.get(layer, 0.0) / ops
            for layer in LAYERS
        }
        out["trace.residue_pct"] = (
            100.0 * (1.0 - self.covered_seconds / self.op_seconds)
            if self.op_seconds
            else 0.0
        )
        out["fixpoint.net.frames_per_op"] = self.frames / ops
        out["fixpoint.net.handles_shipped_per_op"] = self.handles_bundled / ops
        return out

    def dump(self, path, workload: str) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        payload = {
            "workload": workload,
            "ops": self.ops,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "fields": ["id", "parent", "name", "start_s", "end_s", "op", "thread"],
            "spans": [
                [i, p, n, round(s - origin, 7), round(e - origin, 7), op, t]
                for i, p, n, s, e, op, t in self.spans
            ],
            "summary": self.summary(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
