"""A real (executing) multi-node Fixpoint: delegation by shipped values.

The simulated engine (:mod:`repro.dist`) studies *performance*; this
module is the *functional* distributed runtime: several in-process
Fixpoint nodes connected by message channels, delegating evaluation by
sending Fix values in the packed wire format (paper section 4.2.1):

* on connect, nodes run one digest/delta anti-entropy round - content
  keys *and per-handle wire sizes* - into a passive
  :class:`~repro.dist.objectview.ObjectView`, and can re-run it any
  time with :meth:`FixpointNode.gossip_with` (the GOSSIP frames below);
* ``delegate_async(encode)`` ships the Encode's minimum repository as
  one bundle (handles are self-describing - no scheduler round trip, no
  extra metadata), tagged with the sender's identity so the remote node
  can filter its reply through its view of the caller, and returns a
  :class:`Delegation` future immediately;
* the peer serves the request on its own worker pool
  (:meth:`~repro.fixpoint.runtime.Fixpoint.spawn`), and the reply - or
  an explicit error frame, when peer-side evaluation fails - crosses the
  wire back and is absorbed into the caller's repository on the serving
  thread; both views advance - on send *and* on receive.

Delegation is therefore **non-blocking end to end**: the per-peer
``outstanding`` count is raised at dispatch and lowered only once the
reply has been absorbed, so while work is in flight every
:meth:`FixpointNode.quote_best` sees live load.  That is what lets the
cost model's tiebreak (believed bytes first, then load, then name)
actually spread equal-priced work across peers - the property the
paper's placement policy presumes, and the same overlap of in-flight
remote work that Nexus-style I/O offloading wins come from.  Fan-out
helpers build on it: :meth:`FixpointNode.scatter` quotes and dispatches
a batch without waiting, :meth:`FixpointNode.eval_many` overlaps remote
delegations with local evaluation and gathers results in order.  The
blocking :meth:`FixpointNode.delegate` is dispatch-plus-wait.

Placement (:meth:`FixpointNode.delegate_best` /
:meth:`FixpointNode.eval_anywhere`) resolves through the same
:mod:`repro.dist.costmodel` the simulated
:class:`~repro.dist.scheduler.DataflowScheduler` uses: peers are priced
by the believed missing *bytes* of the footprint (not handle counts),
genuine ties spread by in-flight delegation load, then break by name.
Local evaluation is preferred whenever it is cheapest (a complete local
footprint prices at zero, and no remote quote can beat zero).

Channels are in-memory here (the transport is pluggable), but every byte
crossing them really is serialized and reparsed - the wire format is
load-bearing, not decorative - and the link is **wire-serialized**:
frames carry per-direction sequence numbers and are decoded in send
order, like a real stream transport.  That ordering is what makes the
dispatcher's optimistic "already on the wire" filtering sound under
concurrency.  A channel may carry a per-direction ``latency``; it is
paid on the *serving* thread, never the dispatching one, so in-flight
delegations overlap their wire time (pipelined, still ordered).

**Frames.**  Five frames cross a channel - a delegation *request* and
its *reply* (ok or error), and the gossip *SYN*, *ACK* and *PUSH*.  Each
has one ``pack_*``/``unpack_*`` pair below, and its layout is stated on
the ``pack_*`` docstring and nowhere else; :class:`FixpointNode` only
ever handles decoded values.  Every frame carries a 16-byte
:class:`~repro.obs.SpanContext`, which is how tracing crosses the wire:
the request carries the caller's *dispatch* span, the reply (ok or
error) the peer's *serve* span, and the caller's *absorb* span parents
to that - one dispatch -> serve -> absorb chain per delegation, across
nodes, reassembled by :func:`repro.obs.stitch`.  A gossip SYN/PUSH
ships the caller's *round* span and the ACK the peer's *serve* span.
An untraced node ships :data:`~repro.obs.NULL_CONTEXT` and its peers
degrade to local roots.

**Gossip.**  :meth:`FixpointNode.gossip_with` runs one push-pull
anti-entropy round over a live channel, sequenced like every other
frame.  What each side computes and merges, in which order and why, is
documented once, on :class:`repro.dist.gossip.Participant`; this module
is its wire driver (pack, cross the :class:`Channel`, unpack).  Entries
keep their origin stamps, so beliefs spread *transitively*: after beta
gossips with gamma and alpha gossips with beta, alpha knows what gamma
holds without ever having opened a channel to it - and because
placement candidates include every gossip-learned node resolvable
through the optional :class:`NodeDirectory`,
:meth:`FixpointNode.quote_best` prices those nodes and delegation dials
them on demand (:meth:`FixpointNode.connect` is itself just channel
setup plus one gossip round).  Converged peers exchange digests and
empty deltas - a handshake between nodes that already agree ships a few
dozen bytes, not their inventories.

**Membership.**  The SYN and ACK frames additionally piggyback each
side's :class:`~repro.dist.membership.MembershipView` map (heartbeat
counters stamped like inventory versions, merged with the same
idempotent join algebra), so liveness spreads on exactly the traffic
that spreads inventory.  :meth:`FixpointNode.gossip_sweep` is one
failure-detector round: gossip with every live peer, record a
suspicion for any that fail at the transport, age the detector one
tick.  A peer whose silence outlives suspect + confirm thresholds is
tombstoned, and the node reacts (:meth:`FixpointNode._on_peer_dead`,
fired outside every lock): the dead peer's beliefs are evicted from
the view, its channel is closed - waking frames parked in delivery
windows and callers blocked in :meth:`Channel.transit` with a
:class:`NetworkError` naming the dead endpoint - and its directory
entry is unregistered so gossip-learned names stop resolving to a
corpse.  In-flight :class:`Delegation` futures to the dead peer fail
fast through the same channel-close path, roll back their optimistic
view advance, and :meth:`FixpointNode.retry_elsewhere` re-quotes and
re-dispatches the work on the survivors.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.sync import (
    TrackedCondition,
    TrackedLock,
    TrackedRLock,
    note_blocking,
)
from ..core.errors import FixError, FrameReader, MissingObjectError
from ..core.handle import HANDLE_BYTES, Handle
from ..core.minrepo import Footprint, transitive_footprint
from ..core.serialize import decode_bundle, encode_bundle
from ..core.storage import Repository
from ..dist.costmodel import Quote, choose
from ..dist.gossip import (
    Participant,
    pack_delta,
    pack_digest,
    unpack_delta,
    unpack_digest,
)
from ..dist.membership import (
    Member,
    MembershipView,
    pack_members,
    unpack_members,
)
from ..dist.objectview import Delta, Digest, ObjectView
from ..obs import CONTEXT_BYTES, Obs, SpanContext
from .jobs import Job
from .runtime import Fixpoint

_SENDER_LEN = struct.Struct("<H")
_ERR_TYPE_LEN = struct.Struct("<H")
_ERR_MSG_LEN = struct.Struct("<I")

_STATUS_OK = b"\x00"
_STATUS_ERR = b"\x01"

_GOSSIP_SYN = b"\x10"
_GOSSIP_ACK = b"\x11"
_GOSSIP_PUSH = b"\x12"

#: Serializes topology mutation (channel registration on *both*
#: endpoints).  One process-wide lock, not per-node: connect touches two
#: nodes at once, and delegation now dials gossip-learned peers
#: implicitly, so two threads (or both ends) may race to link the same
#: pair - without this they each mint a Channel and the pair's frames
#: split across two sequence spaces, wedging delivery forever.  Held
#: only around the dict registration, never across wire traffic.
_TOPOLOGY_LOCK = TrackedLock("net._TOPOLOGY_LOCK")


class NetworkError(FixError):
    """Delegation failures (unknown peer, unresolvable dependencies)."""


class RemoteEvalError(NetworkError):
    """A peer-side evaluation failure, carried back as an error frame.

    The peer serves requests on its own threads, so its exception cannot
    raise through the caller's Python stack; it is serialized (exception
    type name plus message) and re-raised here when the caller reads the
    delegation's result.
    """

    def __init__(self, peer: str, error_type: str, message: str):
        super().__init__(
            f"delegation to {peer!r} failed remotely with "
            f"{error_type}: {message}"
        )
        self.peer = peer
        self.error_type = error_type
        self.remote_message = message


#: The one bounds check every ``unpack_*`` below reads through.
_frame = FrameReader(NetworkError)

Members = Sequence[Member]
#: What an error reply decodes to: (exception type name, message).
RemoteError = Tuple[str, str]


def _unpack_ctx(wire: bytes, offset: int) -> Tuple[SpanContext, int]:
    raw, offset = _frame.take(wire, offset, CONTEXT_BYTES, "span context")
    return SpanContext.unpack(raw)[0], offset


def _unpack_handle(wire: bytes, offset: int, what: str) -> Tuple[Handle, int]:
    raw, offset = _frame.take(wire, offset, HANDLE_BYTES, what)
    return Handle.unpack(raw), offset


def _unpack_tag(wire: bytes, tag: bytes, what: str) -> int:
    """Check a frame's leading tag byte; returns the offset past it."""
    got, offset = _frame.take(wire, 0, len(tag), what)
    if got != tag:
        raise NetworkError(f"bad {what} {got!r}")
    return offset


def _pack_header(sender: str, ctx: SpanContext) -> bytes:
    """``[u16 sender length][sender utf-8][16-byte span context]`` - how
    a request, a gossip SYN and a gossip PUSH each name their sender."""
    raw = sender.encode("utf-8")
    return _SENDER_LEN.pack(len(raw)) + raw + ctx.pack()


def _unpack_header(wire: bytes, offset: int) -> Tuple[str, SpanContext, int]:
    length, offset = _frame.unpack(_SENDER_LEN, wire, offset, "sender length")
    sender, offset = _frame.text(wire, offset, length, "sender")
    ctx, offset = _unpack_ctx(wire, offset)
    return sender, ctx, offset


def _pack_error(exc: BaseException) -> bytes:
    """``[u16 type length][type utf-8][u32 message length][message
    utf-8]`` - an exception, as the body of an error reply."""
    error_type = type(exc).__name__.encode("utf-8")
    message = str(exc).encode("utf-8")
    return (
        _ERR_TYPE_LEN.pack(len(error_type))
        + error_type
        + _ERR_MSG_LEN.pack(len(message))
        + message
    )


def _unpack_error(wire: bytes, offset: int = 0) -> RemoteError:
    length, offset = _frame.unpack(
        _ERR_TYPE_LEN, wire, offset, "error type length"
    )
    error_type, offset = _frame.text(wire, offset, length, "error type")
    length, offset = _frame.unpack(
        _ERR_MSG_LEN, wire, offset, "error message length"
    )
    message, _ = _frame.text(wire, offset, length, "error message")
    return error_type, message


def pack_request(
    sender: str, ctx: SpanContext, encode: Handle, bundle: bytes
) -> bytes:
    """``[header][32-byte encode handle][bundle]`` - evaluate ``encode``;
    the bundle is the part of its minimum repository the peer lacks."""
    return _pack_header(sender, ctx) + encode.pack() + bundle


def unpack_request(wire: bytes) -> Tuple[str, SpanContext, Handle, bytes]:
    sender, ctx, offset = _unpack_header(wire, 0)
    encode, offset = _unpack_handle(wire, offset, "encode handle")
    return sender, ctx, encode, wire[offset:]


def pack_reply(
    ctx: SpanContext,
    outcome: Union[Handle, BaseException],
    bundle: bytes = b"",
) -> bytes:
    """``[ctx][u8 0][32-byte result handle][bundle]`` for a result;
    ``[ctx][u8 1][error]`` for the exception the evaluation raised."""
    if isinstance(outcome, Handle):
        return ctx.pack() + _STATUS_OK + outcome.pack() + bundle
    return ctx.pack() + _STATUS_ERR + _pack_error(outcome)


def unpack_reply(
    wire: bytes,
) -> Tuple[SpanContext, Union[Handle, RemoteError], bytes]:
    ctx, offset = _unpack_ctx(wire, 0)
    status, offset = _frame.take(wire, offset, 1, "status")
    if status == _STATUS_ERR:
        return ctx, _unpack_error(wire, offset), b""
    if status != _STATUS_OK:
        raise NetworkError(f"bad response status byte {status!r}")
    result, offset = _unpack_handle(wire, offset, "result handle")
    return ctx, result, wire[offset:]


def pack_syn(
    sender: str, ctx: SpanContext, digest: Digest, members: Members
) -> bytes:
    """``[u8 0x10][header][digest][members]``"""
    body = pack_digest(digest) + pack_members(members)
    return _GOSSIP_SYN + _pack_header(sender, ctx) + body


def unpack_syn(wire: bytes) -> Tuple[str, SpanContext, Digest, Members]:
    offset = _unpack_tag(wire, _GOSSIP_SYN, "gossip syn tag")
    sender, ctx, offset = _unpack_header(wire, offset)
    digest, offset = unpack_digest(wire, offset)
    return sender, ctx, digest, unpack_members(wire, offset)[0]


def pack_ack(
    ctx: SpanContext, digest: Digest, delta: Delta, members: Members
) -> bytes:
    """``[u8 0x11][ctx][digest][delta][members]``"""
    body = pack_digest(digest) + pack_delta(delta) + pack_members(members)
    return _GOSSIP_ACK + ctx.pack() + body


def unpack_ack(wire: bytes) -> Tuple[SpanContext, Digest, Delta, Members]:
    offset = _unpack_tag(wire, _GOSSIP_ACK, "gossip ack tag")
    ctx, offset = _unpack_ctx(wire, offset)
    digest, offset = unpack_digest(wire, offset)
    delta, offset = unpack_delta(wire, offset)
    return ctx, digest, delta, unpack_members(wire, offset)[0]


def pack_push(sender: str, ctx: SpanContext, delta: Delta) -> bytes:
    """``[u8 0x12][header][delta]``"""
    return _GOSSIP_PUSH + _pack_header(sender, ctx) + pack_delta(delta)


def unpack_push(wire: bytes) -> Tuple[str, SpanContext, Delta]:
    offset = _unpack_tag(wire, _GOSSIP_PUSH, "gossip push tag")
    sender, ctx, offset = _unpack_header(wire, offset)
    return sender, ctx, unpack_delta(wire, offset)[0]


@dataclass(frozen=True)
class GossipTraffic:
    """What one :meth:`FixpointNode.gossip_with` round actually moved."""

    peer: str
    bytes_shipped: int
    entries_received: int
    entries_sent: int


class NodeDirectory:
    """Name -> node resolution: the membership side of gossip.

    Gossip teaches a node *names* of machines holding data; turning a
    name into a dialable endpoint is a directory lookup (the in-process
    stand-in for address resolution in a real transport).  Nodes built
    with ``directory=`` register themselves; placement then treats
    every resolvable gossip-learned name as a candidate, and delegation
    connects on demand.
    """

    def __init__(self):
        self._nodes: Dict[str, "FixpointNode"] = {}

    def register(self, node: "FixpointNode") -> None:
        self._nodes[node.name] = node

    def unregister(self, name: str) -> None:
        """Drop a (dead) node: gossip-learned names stop resolving to
        it, so placement stops dialing a corpse.  Idempotent - several
        survivors' detectors may confirm the same death."""
        self._nodes.pop(name, None)

    def get(self, name: str) -> Optional["FixpointNode"]:
        return self._nodes.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)


class _Arrival:
    """The wire-order delivery window for one frame.

    Entering waits until every earlier frame on the same direction has
    been delivered (decoded by the receiver); exiting marks this frame
    delivered and wakes successors.  :meth:`release` is idempotent, so
    a failure path that never entered the window can still free it
    without double-advancing the sequence.
    """

    __slots__ = ("channel", "direction", "seq")

    def __init__(self, channel: "Channel", direction: str, seq: int):
        self.channel = channel
        self.direction = direction
        self.seq = seq

    def __enter__(self) -> "_Arrival":
        self.channel._await_turn(self.direction, self.seq)
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def release(self) -> None:
        self.channel._release(self.direction, self.seq)


@dataclass
class Channel:
    """A byte-counting, **wire-serialized** in-memory link.

    Frames on one direction carry sequence numbers assigned at
    :meth:`send` and must be *delivered* (decoded by the receiver) in
    that order - :meth:`arrival` hands out the delivery window.  This
    mirrors a real ordered transport: two concurrent delegations may
    evaluate in any order, but the second request's bundle is never
    parsed before the first's, so a dispatcher that skipped re-shipping
    data "already on the wire" can rely on it having landed.

    ``latency`` (seconds, per direction) is paid via :meth:`transit` on
    the serving thread *before* the delivery window, so in-flight
    frames overlap their wire time (pipelining) while still landing in
    order.
    """

    a: "FixpointNode"
    b: "FixpointNode"
    bytes_ab: int = 0
    bytes_ba: int = 0
    latency: float = 0.0
    _cond: object = field(
        default_factory=lambda: TrackedCondition(name="Channel._cond"),
        repr=False,
        compare=False,
    )
    _closed: bool = field(default=False, repr=False, compare=False)
    _sent: Dict[str, int] = field(
        default_factory=lambda: {"ab": 0, "ba": 0}, repr=False, compare=False
    )
    _delivered: Dict[str, int] = field(
        default_factory=lambda: {"ab": 0, "ba": 0}, repr=False, compare=False
    )
    #: Frames released ahead of their turn (an abandoned dispatch, a
    #: serve that died before its window); the delivery frontier only
    #: advances over *contiguous* completions, so an early release can
    #: never unblock frames that are still waiting on live predecessors.
    _early: Dict[str, set] = field(
        default_factory=lambda: {"ab": set(), "ba": set()},
        repr=False,
        compare=False,
    )

    def _direction(self, sender: "FixpointNode") -> str:
        if sender is self.a:
            return "ab"
        if sender is self.b:
            return "ba"
        raise NetworkError("sender is not an endpoint of this channel")

    def far_end(self, node: "FixpointNode") -> "FixpointNode":
        """The endpoint that is not ``node``."""
        return self.b if node is self.a else self.a

    def send(self, sender: "FixpointNode", payload: bytes) -> Tuple[bytes, int]:
        """Put a frame on the wire; returns (wire copy, sequence).

        Raises :class:`NetworkError` on a closed channel: a frame whose
        sequence number nobody will ever deliver would wedge the
        direction, so the failure must be loud and at the send site.
        """
        with self._cond:
            direction = self._direction(sender)
            if self._closed:
                raise NetworkError(
                    f"channel {self.a.name}<->{self.b.name} is closed: "
                    f"cannot send from {sender.name}"
                )
            if direction == "ab":
                self.bytes_ab += len(payload)
            else:
                self.bytes_ba += len(payload)
            seq = self._sent[direction]
            self._sent[direction] += 1
        # Both endpoints count the frame - outside the condition lock,
        # so metric updates never serialize the wire.
        receiver = self.b if direction == "ab" else self.a
        sender._note_frame(receiver.name, "out", len(payload))
        receiver._note_frame(sender.name, "in", len(payload))
        return bytes(payload), seq  # the wire copy

    def arrival(self, sender: "FixpointNode", seq: int) -> _Arrival:
        """The delivery window for frame ``seq`` sent by ``sender``."""
        return _Arrival(self, self._direction(sender), seq)

    def _await_turn(self, direction: str, seq: int) -> None:
        with self._cond:
            while self._delivered[direction] < seq:
                if self._closed:
                    # Close wakes every waiter: a frame parked in the
                    # delivery window must fail, not sleep forever on a
                    # predecessor that will never be delivered.
                    raise NetworkError(
                        f"channel {self.a.name}<->{self.b.name} closed "
                        f"while frame {seq} awaited delivery"
                    )
                self._cond.wait()

    def _release(self, direction: str, seq: int) -> None:
        with self._cond:
            if seq < self._delivered[direction]:
                return  # already delivered (idempotent)
            early = self._early[direction]
            early.add(seq)
            advanced = False
            while self._delivered[direction] in early:
                early.remove(self._delivered[direction])
                self._delivered[direction] += 1
                advanced = True
            if advanced:
                self._cond.notify_all()

    def transit(self) -> None:
        """One direction's wire time.  Called off the dispatching thread.

        The wait is interruptible: :meth:`close` (membership eviction, a
        crashed endpoint) wakes it mid-flight with a :class:`NetworkError`
        naming the endpoints, instead of sleeping out the full latency
        on a link that no longer exists.  Implemented as a deadline loop
        on the channel condition - ``wait(timeout)`` may return early on
        any notify, so each wakeup re-checks closed and re-waits only
        the remainder.
        """
        if self.latency <= 0:
            return
        # Waiting out wire time while holding a lock is the
        # hold-while-blocking shape the --race tracker flags; announce
        # the block so it can check the calling thread's held set.
        note_blocking("Channel.transit")
        deadline = time.monotonic() + self.latency
        with self._cond:
            while True:
                if self._closed:
                    raise NetworkError(
                        f"channel {self.a.name}<->{self.b.name} closed "
                        "while a frame was in transit"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._cond.wait(remaining)

    def close(self) -> None:
        """Tear the link down: subsequent sends raise, parked delivery
        windows wake with :class:`NetworkError` instead of wedging.
        Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def total_bytes(self) -> int:
        with self._cond:
            return self.bytes_ab + self.bytes_ba


class Delegation:
    """One in-flight asynchronous delegation (a future).

    Created by :meth:`FixpointNode.delegate_async`.  Resolved on the
    serving thread only *after* the reply has been absorbed into the
    caller's repository - when :meth:`result` returns, the handle and
    its data are local.  A peer-side evaluation failure resolves the
    future with :class:`RemoteEvalError`; a transport failure with
    :class:`NetworkError`.

    Completion signalling is a :class:`~repro.fixpoint.jobs.Job` - the
    same primitive the worker pool uses - so there is exactly one
    result/error/event implementation in the package; this class adds
    only the delegation identity and the timeout-to-:class:`NetworkError`
    translation.

    Every delegation settles its caller-side bookkeeping (the per-peer
    ``outstanding`` count, and - on failure - the rollback of the
    optimistic view advance for the shipped keys) **exactly once**,
    through a one-shot closure armed at dispatch.  The serving thread
    settles it on completion; :meth:`cancel` (or a :meth:`result`
    timeout) settles it from the caller's side when the caller stops
    waiting.  Whichever side loses the race becomes a no-op, so a hung
    peer cannot leak phantom in-flight load and falsely-believed shipped
    keys forever.
    """

    __slots__ = ("peer", "encode", "_job", "_settler")

    def __init__(self, peer: str, encode: Handle):
        self.peer = peer
        self.encode = encode
        self._job = Job(encode)
        #: One-shot settle closure (armed by ``FixpointNode._dispatch``):
        #: ``settler(rollback) -> bool``, True only for the first caller.
        self._settler = None

    @property
    def done(self) -> bool:
        return self._job.done

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._job.wait(timeout)

    def cancel(self) -> bool:
        """Abandon this delegation from the caller's side.

        Settles the dispatch bookkeeping - drops the peer's outstanding
        count and rolls back the optimistic view advance for every key
        shipped - and fails the future with :class:`NetworkError`.
        Returns True if this call did the settling; False when the
        delegation already resolved (or another canceller won), in
        which case nothing changes.  The peer may still finish serving
        the abandoned request; a late reply is absorbed as ordinary
        (true) belief but no longer touches the settled bookkeeping.
        """
        if self._settler is None or self._job.done:
            return False
        if not self._settler(True):
            return False
        self._job.fail(
            NetworkError(
                f"delegation to {self.peer!r} was cancelled by the caller"
            )
        )
        return True

    def result(self, timeout: Optional[float] = None) -> Handle:
        """Block until resolved; return (or raise) the outcome.

        A timeout **cancels** the delegation: the optimistic view
        advance is rolled back and the peer's in-flight count dropped
        before the :class:`NetworkError` raises - a hung peer must not
        keep phantom load and false shipped-key beliefs alive forever.
        If the reply lands in the instant between the timeout and the
        cancellation, the race is benign: the settled side wins, and
        the freshly-arrived result is returned instead of the error.
        """
        if not self._job.wait(timeout):
            if self.cancel():
                raise NetworkError(
                    f"delegation to {self.peer!r} timed out after "
                    f"{timeout}s (rolled back)"
                )
            # Lost the race: the serving thread settled first, so its
            # resolution (result or failure) is imminent - wait it in.
            self._job.wait()
        return self._job.value()

    def _complete(self, result: Handle) -> None:
        self._job.complete(result)

    def _fail(self, error: BaseException) -> None:
        self._job.fail(error)


class FixpointNode:
    """One executing node: a Fixpoint runtime plus peer channels."""

    def __init__(
        self,
        name: str,
        workers: int = 0,
        directory: Optional[NodeDirectory] = None,
        obs: Optional[Obs] = None,
        suspect_after: int = 3,
        confirm_after: int = 3,
        incarnation: int = 1,
    ):
        self.name = name
        #: SWIM incarnation: a node restarted after the cluster
        #: tombstoned it passes its old incarnation + 1, which outranks
        #: the tombstone in every survivor's lattice; the view stamps
        #: beliefs under the matching epoch so survivors' retained
        #: version caps (which cover everything the *previous*
        #: incarnation ever said) do not swallow the fresh ones.
        self.incarnation = incarnation
        #: Observability: metrics registry + tracer.  Each node gets its
        #: own wall-clocked :class:`~repro.obs.Obs` by default (cheap:
        #: metric updates are a lock and a dict write), so two-node
        #: examples produce stitched traces out of the box; pass
        #: ``repro.obs.NULL_OBS`` to run dark, or share one Obs across
        #: nodes to get a single cluster-wide registry.
        self.obs = obs if obs is not None else Obs(name)
        self.runtime = Fixpoint(workers=workers, obs=self.obs)
        self.peers: Dict[str, Channel] = {}
        #: What this node believes its peers hold (the passive view):
        #: object names are content keys, locations are peer names, and
        #: sizes come from the handles seen in inventory/wire traffic.
        #: Gossip also puts *this node's own* holdings in it, stamped
        #: with version counters, so anti-entropy can forward them.
        self.view = ObjectView(name, clock=self.obs.clock, epoch=incarnation)
        #: Optional membership: lets placement treat gossip-learned
        #: node names as candidates and delegation dial them on demand.
        self.directory = directory
        if directory is not None:
            directory.register(self)
        #: Gossiped liveness: heartbeats piggyback on the SYN/ACK
        #: frames, :meth:`gossip_sweep` runs the suspect -> confirm
        #: detector, and a confirmed death fires :meth:`_on_peer_dead`
        #: (outside the membership lock) to evict, close, unregister.
        #: The mirrors: a dead peer reasserting life at a higher
        #: incarnation fires :meth:`_on_peer_rejoin` (readmit its
        #: beliefs, restore its candidacy), and this node beating its
        #: *own* tombstone fires :meth:`_on_self_refute` (advance the
        #: view epoch, re-register in the directory).
        self.membership = MembershipView(
            name,
            suspect_after=suspect_after,
            confirm_after=confirm_after,
            on_dead=self._on_peer_dead,
            on_rejoin=self._on_peer_rejoin,
            on_refute=self._on_self_refute,
            incarnation=incarnation,
        )
        #: This node's side of the gossip handshake: the step order
        #: lives there; the GOSSIP methods below are its wire driver.
        self._gossip = Participant(self.view, self.membership)
        #: In-flight delegations per peer - the load signal the cost
        #: model spreads equal-price candidates with.  Raised at
        #: dispatch, lowered when the reply has been absorbed, so it is
        #: *live* while work is in flight.
        self.outstanding: Dict[str, int] = {}
        self.delegations_served = 0
        self.delegations_sent = 0
        self.gossip_rounds = 0
        #: Serializes dispatch (footprint, send, optimistic view
        #: advance, outstanding bump) against reply bookkeeping.
        self._lock = TrackedRLock("FixpointNode._lock")
        # Instruments (get-or-create: shared-Obs nodes share families,
        # distinguished by labels).  Live structures - in-flight load,
        # view size, view staleness - are sampled at export via gauge
        # callbacks instead of pushed on the hot path.
        registry = self.obs.registry
        self._m_frames = registry.counter(
            "net_frames_total", "Wire frames by peer and direction"
        )
        self._m_bytes = registry.counter(
            "net_bytes_total", "Wire bytes by peer and direction"
        )
        self._m_transit = registry.histogram(
            "net_transit_seconds", "Per-frame wire time, by peer"
        )
        self._m_quote = registry.histogram(
            "quote_seconds", "Placement quote time through the cost model"
        )
        self._m_sent = registry.counter(
            "delegations_sent_total", "Delegations dispatched, by peer"
        )
        self._m_served = registry.counter(
            "delegations_served_total", "Delegations served, by caller"
        )
        self._m_rollbacks = registry.counter(
            "delegation_rollbacks_total",
            "Failed delegations whose optimistic view advance was rolled back",
        )
        self._m_evictions = registry.counter(
            "membership_evictions_total",
            "Peers confirmed dead and evicted from the view",
        )
        self._m_rejoins = registry.counter(
            "membership_rejoins_total",
            "Tombstoned peers readmitted at a higher incarnation",
        )
        self._m_refutations = registry.counter(
            "membership_refutations_total",
            "Own tombstones refuted by bumping the incarnation",
        )
        self._m_retries = registry.counter(
            "delegation_retries_total",
            "Failed delegations re-quoted and re-dispatched on survivors",
        )
        self._m_gossip_rounds = registry.counter(
            "gossip_rounds_total", "Anti-entropy rounds by peer and role"
        )
        self._m_gossip_entries = registry.counter(
            "gossip_entries_total", "Gossip delta entries by direction"
        )
        self._m_gossip_bytes = registry.counter(
            "gossip_bytes_total", "Gossip frame bytes, by peer"
        )
        registry.gauge(
            "delegations_inflight", "Live in-flight delegation load"
        ).set_function(
            lambda: float(sum(self.outstanding.values())), node=self.name
        )
        view_stats = registry.gauge(
            "view_size", "ObjectView belief-state sizes"
        )
        for stat in ("entries", "replicas", "log_entries", "origins"):
            view_stats.set_function(
                lambda s=stat: float(self.view.stats()[s]),
                node=self.name,
                stat=stat,
            )
        registry.gauge(
            "view_staleness_seconds",
            "Age of the view's last belief advance",
        ).set_function(self.view.staleness, node=self.name)

    @property
    def repo(self) -> Repository:
        return self.runtime.repo

    def _note_frame(self, peer: str, direction: str, nbytes: int) -> None:
        """Count one wire frame (called by :meth:`Channel.send` for
        both endpoints, outside the channel's condition lock)."""
        self._m_frames.inc(peer=peer, direction=direction)
        self._m_bytes.inc(nbytes, peer=peer, direction=direction)

    def close(self) -> None:
        self.runtime.close()

    def crash(self) -> None:
        """Simulate abrupt death: every link drops, the pool stops.

        Closing the channels is what makes the death *observable*:
        peers' sends raise, frames parked in delivery windows and
        callers waiting out :meth:`Channel.transit` wake with
        :class:`NetworkError`, and subsequent :meth:`gossip_sweep`
        attempts fail at the transport and feed the failure detector.
        Nothing is announced - survivors must detect the silence.
        """
        for channel in list(self.peers.values()):
            channel.close()
        self.runtime.close()

    def _on_peer_dead(self, peer_name: str) -> None:
        """React to a membership tombstone for ``peer_name``.

        Runs outside the membership lock (it takes the view's and the
        channel's own locks): evict every belief about the dead peer
        from the view - tombstone-gated, so late gossip cannot
        resurrect them - close and drop its channel so parked waiters
        fail fast naming the dead endpoint, and unregister it from the
        directory so gossip-learned names stop dialing it.  The
        ``outstanding`` entry is kept (in-flight delegations still
        settle through it); placement ignores dead candidates anyway.
        """
        evicted = self.view.evict(peer_name)
        self._m_evictions.inc(peer=peer_name)
        with _TOPOLOGY_LOCK:
            channel = self.peers.pop(peer_name, None)
        if channel is not None:
            channel.close()
        if self.directory is not None:
            self.directory.unregister(peer_name)
        self.obs.tracer.start(
            "membership.evict", peer=peer_name
        ).set(beliefs_evicted=evicted).finish()

    def _on_peer_rejoin(self, peer_name: str) -> None:
        """React to a tombstoned peer reasserting life at a higher
        incarnation - the :meth:`_on_peer_dead` counterpart.

        Runs outside the membership lock.  Readmission lifts the
        view's eviction gate so the peer's fresh-epoch beliefs merge
        again (the retained version caps keep shadowing its pre-death
        gossip); placement candidacy and the :meth:`_ensure_channel`
        fast-fail recover by themselves, because both consult the
        membership's live dead set.  If a channel to the peer survived
        the false alarm, its endpoint is re-registered in the directory
        (a *restarted* peer re-registers itself at construction; a
        falsely-accused one re-registers in its own
        :meth:`_on_self_refute`).
        """
        readmitted = self.view.readmit(peer_name)
        if self.directory is not None:
            channel = self.peers.get(peer_name)
            if channel is not None and not channel.closed:
                self.directory.register(channel.far_end(self))
        self._m_rejoins.inc(peer=peer_name)
        self.obs.tracer.start(
            "membership.rejoin", peer=peer_name
        ).set(readmitted=readmitted).finish()

    def _on_self_refute(self, incarnation: int) -> None:
        """React to *this node* beating its own tombstone.

        A falsely-accused node has a recovery problem eviction created:
        every survivor purged its holdings and kept the version caps,
        so replaying its old gossip applies 0 entries everywhere.
        Advancing the view's epoch re-stamps its holdings under the
        fresh ``name#incarnation`` origin - new information under every
        cap - and the next gossip round carries both the refutation
        (which readmits this node at each survivor) and the re-stamped
        beliefs.  Re-registering undoes the survivors' directory purge.
        """
        self.incarnation = incarnation
        restamped = self.view.advance_epoch(incarnation)
        if self.directory is not None:
            self.directory.register(self)
        self._m_refutations.inc()
        self.obs.tracer.start(
            "membership.refute", incarnation=incarnation
        ).set(restamped=restamped).finish()

    def __enter__(self) -> "FixpointNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Topology

    def connect(self, other: "FixpointNode") -> Channel:
        """Link two nodes; the inventory handshake (paper 4.2.2) is one
        digest/delta gossip round over the new channel (any later
        :meth:`gossip_with` round refreshes it for O(delta) bytes).

        Safe to race: registration is atomic under the topology lock
        (double-checked), so concurrent dials of the same pair - from
        either end - share one channel and one sequence space.  The
        inventory gossip runs after the lock drops; a dispatcher that
        finds the channel mid-handshake just ships conservatively.

        A *closed* channel to the same peer (a healed partition, a
        peer readmitted after a false tombstone) does not satisfy the
        dial: it is dropped from both endpoints and a fresh channel
        with a fresh sequence space is minted.
        """
        stale = self.peers.get(other.name)
        if stale is not None and stale.closed:
            # The closed-ness check takes the channel's own lock, so it
            # runs before the topology lock, never inside it.
            with _TOPOLOGY_LOCK:
                if self.peers.get(other.name) is stale:
                    self.peers.pop(other.name, None)
                if other.peers.get(self.name) is stale:
                    other.peers.pop(self.name, None)
        with _TOPOLOGY_LOCK:
            existing = self.peers.get(other.name)
            if existing is not None:
                return existing
            channel = Channel(self, other)
            self.peers[other.name] = channel
            other.peers[self.name] = channel
            self.outstanding.setdefault(other.name, 0)
            other.outstanding.setdefault(self.name, 0)
        # Sampled, not copied: tests and benchmarks set a channel's
        # latency *after* connecting.
        self.obs.registry.gauge(
            "net_channel_latency_seconds", "Configured per-direction latency"
        ).set_function(lambda: channel.latency, peer=other.name)
        other.obs.registry.gauge(
            "net_channel_latency_seconds", "Configured per-direction latency"
        ).set_function(lambda: channel.latency, peer=self.name)
        self.gossip_with(other.name)
        return channel

    def _ensure_channel(self, peer_name: str) -> Channel:
        """A live channel to ``peer_name``, dialing through the
        directory when the name was learned only via gossip.  A peer
        this node's detector has confirmed dead is refused outright -
        failing fast with the death named beats dialing a corpse; the
        refusal lifts by itself when the peer rejoins, because the
        check consults the live lattice.  A closed channel (a healed
        partition, a readmitted peer) is re-dialed through the
        directory rather than returned."""
        if self.membership.is_dead(peer_name):
            raise NetworkError(
                f"{self.name}: peer {peer_name!r} is confirmed dead"
            )
        channel = self.peers.get(peer_name)
        if channel is not None and not channel.closed:
            return channel
        if self.directory is not None:
            node = self.directory.get(peer_name)
            if node is not None and node is not self:
                return self.connect(node)
        if channel is not None:
            # No directory to re-dial through: the stale link is all we
            # have, and sending on it raises naming the closed channel.
            return channel
        raise NetworkError(f"{self.name}: no peer named {peer_name!r}")

    # ------------------------------------------------------------------
    # Gossip: digest/delta anti-entropy over live channels

    def _refresh_self(self) -> int:
        """Stamp into the view what this node stores and the view does
        not yet believe it holds (a node always knows its disk); returns
        how many.  The store is asked only for keys beyond that belief,
        so a converged handshake hashes nothing and learns nothing."""
        news = self.repo.sizes_beyond(self.view.holdings(self.name))
        for key, size in news:
            self.view.learn(key, self.name, size)
        return len(news)

    def gossip_with(self, peer_name: str) -> GossipTraffic:
        """One push-pull anti-entropy round with a connected peer.

        Three sequenced frames cross the real channel: SYN (my digest),
        ACK (peer's digest + the delta I lack), PUSH (the delta the
        peer lacks).  Every byte is serialized/reparsed and counted on
        the channel like delegation traffic, and the frames respect the
        wire order - gossip can run concurrently with live delegations.
        Between converged peers the deltas are empty: the round costs
        two digests and framing, not the inventory.
        """
        channel = self.peers.get(peer_name)
        if channel is None:
            raise NetworkError(f"{self.name}: no peer named {peer_name!r}")
        peer = channel.far_end(self)
        stamped = self._refresh_self()
        # Liveness piggyback: the heartbeat advances with every round
        # this node initiates, and rides the SYN with the membership map.
        self.membership.beat()
        span = self.obs.tracer.start("gossip.round", peer=peer_name)
        wire, seq = channel.send(
            self, pack_syn(self.name, span.context, *self._gossip.syn())
        )
        self._transit(channel, peer_name)
        with channel.arrival(self, seq):
            ack_wire, ack_seq = peer._serve_gossip_syn(wire)
        self._transit(channel, peer_name)
        with channel.arrival(peer, ack_seq):
            _ctx, digest, delta_in, members = unpack_ack(ack_wire)
            delta_out = self._gossip.on_ack(digest, delta_in, members)
        push_wire, push_seq = channel.send(
            self, pack_push(self.name, span.context, delta_out)
        )
        self._transit(channel, peer_name)
        with channel.arrival(self, push_seq):
            peer._absorb_gossip_push(push_wire)
        with self._lock:
            self.gossip_rounds += 1
        bytes_shipped = len(wire) + len(ack_wire) + len(push_wire)
        self._m_gossip_rounds.inc(peer=peer_name, role="caller")
        self._m_gossip_bytes.inc(bytes_shipped, peer=peer_name)
        self._m_gossip_entries.inc(len(delta_in), direction="in")
        self._m_gossip_entries.inc(len(delta_out), direction="out")
        span.set(
            bytes=bytes_shipped,
            entries_in=len(delta_in),
            entries_out=len(delta_out),
            stamped=stamped,
        ).finish()
        return GossipTraffic(
            peer=peer_name,
            bytes_shipped=bytes_shipped,
            entries_received=len(delta_in),
            entries_sent=len(delta_out),
        )

    def _serve_gossip_syn(self, wire: bytes) -> Tuple[bytes, int]:
        """Peer side of a gossip SYN: answer with digest + delta.

        Runs inside the SYN's delivery window on the gossiping thread;
        sends (and sequences) the ACK on the way out.
        """
        sender, ctx, *syn = unpack_syn(wire)
        stamped = self._refresh_self()
        # Serving a round is as alive as initiating one: beat before the
        # handshake step joins the caller's liveness map into ours.
        self.membership.beat()
        with self.obs.tracer.start(
            "gossip.serve", parent=ctx, peer=sender
        ) as span:
            digest, delta, members = self._gossip.on_syn(*syn)
            span.set(entries_out=len(delta), stamped=stamped)
        with self._lock:
            self.gossip_rounds += 1
        self._m_gossip_rounds.inc(peer=sender, role="server")
        return self._send_back(
            sender, pack_ack(span.context, digest, delta, members)
        )

    def _absorb_gossip_push(self, wire: bytes) -> int:
        """Peer side of the closing PUSH: merge the caller's delta."""
        sender, ctx, delta = unpack_push(wire)
        with self.obs.tracer.start(
            "gossip.absorb", parent=ctx, peer=sender
        ) as span:
            applied = self._gossip.on_push(delta)
            span.set(applied=applied)
        return applied

    def gossip_sweep(self) -> List[GossipTraffic]:
        """One failure-detector round: gossip with every live peer.

        A peer whose handshake fails - at the transport (closed channel,
        a crashed endpoint) or in a decoder (every ``unpack_*`` refuses a
        malformed frame with its own :class:`FixError`, whichever codec
        the bad field sits in) - is recorded as *suspected* at its
        believed heartbeat; a live-but-slow peer refutes that on any later
        sweep simply by having beaten past it.  The sweep then ages the
        detector one tick - a peer silent for ``suspect_after`` sweeps
        is suspected even without a failed send, and unrefuted
        suspicion hardens into a tombstone after ``confirm_after``
        more, firing :meth:`_on_peer_dead`.  Returns the traffic of the
        rounds that succeeded.
        """
        results: List[GossipTraffic] = []
        for peer_name in sorted(self.peers):
            if self.membership.is_dead(peer_name):
                continue
            try:
                results.append(self.gossip_with(peer_name))
            except FixError:
                self.membership.suspect(peer_name)
        self.membership.tick()
        return results

    def rejoin(self, survivor: "FixpointNode") -> GossipTraffic:
        """The rejoin handshake: dial a survivor, run two full rounds.

        Covers both ways back from a tombstone.  A node *restarted*
        after the cluster buried it (built with ``incarnation`` = old
        + 1) already outranks the tombstone: round one delivers the
        assertion, the survivor's ``on_rejoin`` readmits it, and the
        same round's ACK delta re-seeds this empty view from the
        survivor's full state while the PUSH carries this node's
        fresh-epoch holdings back.  A *falsely-accused* node (still
        running, same incarnation as its tombstone) instead learns of
        its own death from round one's ACK, refutes it on the spot
        (incarnation bump + epoch restamp via ``on_refute``), and round
        two spreads the refutation and the restamped holdings.  The
        dial itself replaces any closed channel left over from the
        partition; epidemic gossip carries the readmission to every
        other survivor from there.  Returns the final round's traffic.
        """
        before = self.membership.incarnation(self.name)
        self.connect(survivor)  # dials (and runs round one) if needed
        traffic = self.gossip_with(survivor.name)
        if self.membership.incarnation(self.name) != before:
            # The refutation fired mid-handshake; one more round
            # carries it - and the restamped holdings - to the
            # survivor (idempotent if the previous round already did).
            traffic = self.gossip_with(survivor.name)
        return traffic

    # ------------------------------------------------------------------
    # Delegation

    def delegate_async(self, peer_name: str, encode: Handle) -> Delegation:
        """Dispatch ``encode`` to a peer; returns a :class:`Delegation`.

        Ships only data the peer is not known to hold - the view keeps
        repeated delegations cheap in both directions (the reply is
        filtered symmetrically by the server; see :meth:`_serve`).  The
        view advance for shipped data is *optimistic*: recorded at
        dispatch so overlapping delegations do not re-ship the same
        bytes, and rolled back (:meth:`ObjectView.forget`) if the
        delegation fails before the peer confirms the result.

        ``outstanding[peer]`` is raised before this method returns and
        lowered when the reply is absorbed, so quotes taken while the
        work is in flight see the load.
        """
        return self._dispatch(peer_name, encode, None)

    def _dispatch(
        self, peer_name: str, encode: Handle, fp: Optional[Footprint]
    ) -> Delegation:
        """Build, send, and hand off one request frame.

        ``fp`` lets callers that already computed the footprint for a
        placement quote (every caller of :meth:`_place`) skip the
        second walk.  What ships is :meth:`_unheld_by`'s filter over
        that footprint's keys: picking it hashes nothing, though it
        still walks the store's keys once to keep their order.  The
        optimistic ``view.learn`` for shipped data is
        safe against concurrent delegations because the channel is
        wire-serialized: a later request's bundle is never parsed by
        the peer before this one's has landed in its repository.
        """
        channel = self._ensure_channel(peer_name)
        peer = channel.far_end(self)
        future = Delegation(peer_name, encode)
        span = self.obs.tracer.start("delegate.dispatch", peer=peer_name)
        with self._lock:
            if fp is None:
                fp = transitive_footprint(self.repo, encode)
            to_ship = self._unheld_by(peer_name, fp)
            bundle = encode_bundle(self.repo, to_ship)
            wire, request_seq = channel.send(
                self, pack_request(self.name, span.context, encode, bundle)
            )
            self.delegations_sent += 1
            self._m_sent.inc(peer=peer_name)
            self._note_held(peer_name, to_ship)
            shipped = [handle.content_key() for handle in to_ship]
            self.outstanding[peer_name] = (
                self.outstanding.get(peer_name, 0) + 1
            )

            # One-shot settle closure: *every* way this delegation can
            # end - reply absorbed, transport death, spawn failure, a
            # caller-side timeout/cancel - funnels through it, and only
            # the first caller wins.  It owns the dispatch's two side
            # effects (the optimistic view advance and the load count),
            # so no outcome can leak them and no race can undo them
            # twice.
            state = {"settled": False}

            def settle(rollback: bool) -> bool:
                with self._lock:
                    if state["settled"]:
                        return False
                    state["settled"] = True
                    self.outstanding[peer_name] -= 1
                    if rollback:
                        for key in shipped:
                            self.view.forget(key, peer_name)
                        if shipped:
                            self._m_rollbacks.inc(peer=peer_name)
                return True

            future._settler = settle
            span.set(
                bytes=len(wire),
                footprint=len(fp.data),
                handles_shipped=len(shipped),
            )
            # Spawn *inside* the dispatch lock: the serve task's queue
            # position must match its wire sequence number, or a
            # bounded peer pool can pick up frame k+1 first and wedge a
            # worker in the delivery window waiting for frame k that is
            # queued behind it.
            try:
                peer.runtime.spawn(
                    lambda: self._finish_delegation(
                        future, channel, peer, wire, request_seq
                    )
                )
            except BaseException as exc:
                # No serving thread will ever run: undo every side
                # effect of the dispatch (belief, load, and the frame's
                # slot in the delivery order - an unreleased sequence
                # number would wedge the direction forever).
                settle(True)
                channel.arrival(self, request_seq).release()
                span.finish(status="error", error=str(exc))
                raise
            span.finish()
        return future

    def delegate(self, peer_name: str, encode: Handle) -> Handle:
        """Evaluate ``encode`` on a peer; returns the (absorbed) result.

        Blocking convenience over :meth:`delegate_async` - the load
        signal stays live for the whole round trip either way.
        """
        return self.delegate_async(peer_name, encode).result()

    def _finish_delegation(
        self,
        future: Delegation,
        channel: Channel,
        peer: "FixpointNode",
        wire: bytes,
        request_seq: int,
    ) -> None:
        """Serving-thread half of one delegation: deliver, serve, absorb.

        Runs on the *peer's* pool (or fallback serve thread) so the
        dispatcher never blocks.  Both outcomes resolve through the
        delegation's one-shot settle closure: a failure - transport or
        remote evaluation - settles with rollback (forgetting the
        optimistic view advance for the shipped keys) and fails the
        future; success settles without.  If the caller's
        timeout/cancel settled first, the closure refuses and this
        thread drops its outcome on the floor - the caller already owns
        the bookkeeping.  ``outstanding`` drops inside the settle,
        *before* the future resolves, so a waiter that quotes the
        moment ``result()`` returns never sees phantom load from its
        own finished delegation.
        """
        settle = future._settler
        assert settle is not None  # armed by _dispatch before spawn
        request_arrival = channel.arrival(self, request_seq)
        try:
            self._transit(channel, peer.name)
            wire_back, reply_seq = peer._serve(wire, arrival=request_arrival)
            self._transit(channel, peer.name)
            with channel.arrival(peer, reply_seq):
                result = self._absorb_reply(future, wire_back)
        except BaseException as exc:  # noqa: BLE001 - resolves the future
            if not isinstance(exc, FixError):
                exc = NetworkError(
                    f"{self.name}: delegation to {peer.name!r} died in "
                    f"transit: {exc}"
                )
            if settle(True):
                future._fail(exc)
        else:
            if settle(False):
                future._complete(result)
        finally:
            # A serve that died before entering its delivery window must
            # not wedge the direction; release is idempotent.
            request_arrival.release()

    def _absorb_reply(self, future: Delegation, wire_back: bytes) -> Handle:
        """Parse a reply into the local repository and views; an error
        reply raises :class:`RemoteEvalError`.  Either way the absorb
        span parents to the peer's serve span the reply carried."""
        ctx, outcome, bundle = unpack_reply(wire_back)
        span = self.obs.tracer.start(
            "delegate.absorb", parent=ctx, peer=future.peer
        )
        if not isinstance(outcome, Handle):
            error_type, message = outcome
            span.finish(status="error", error=f"{error_type}: {message}")
            raise RemoteEvalError(future.peer, error_type, message)
        absorbed = decode_bundle(self.repo, bundle)
        self._note_held(future.peer, [*absorbed, outcome])
        self.repo.put_result(future.encode, outcome)
        span.set(bytes=len(wire_back), handles_absorbed=len(absorbed))
        span.finish()
        return outcome

    def _serve(self, wire: bytes, arrival: _Arrival) -> Tuple[bytes, int]:
        """Peer side: parse, evaluate, reply with the *filtered* bundle.

        The request names its sender, so the reply ships only result
        data the sender is not believed to hold - in particular, never
        data the sender itself just shipped in this request.  Runs on
        this node's worker pool; a failure after the sender is known
        (missing data, codelet error) becomes an error-response frame,
        never an exception through the serving thread.

        ``arrival`` is the request frame's delivery window: the bundle
        is decoded inside it, in wire order.  The reply is built *and
        sequenced* under this node's lock, so the reply filter and the
        reply's position on the wire agree - a reply that omits data
        "the sender already received" is always ordered after the reply
        that shipped it.  Returns the sent reply (wire copy, sequence).
        """
        with self._lock:
            self.delegations_served += 1
        span = None
        try:
            with arrival:
                sender, encode, ctx = self._absorb_request(wire)
            span = self.obs.tracer.start(
                "delegate.serve", parent=ctx, peer=sender
            )
            self._m_served.inc(peer=sender)
            result = self.runtime.eval(encode)
            with self._lock:
                to_ship = self._unheld_by(
                    sender, transitive_footprint(self.repo, result)
                )
                self._note_held(sender, [*to_ship, result])
                span.set(handles_shipped=len(to_ship)).finish()
                bundle = encode_bundle(self.repo, to_ship)
                return self._send_back(
                    sender, pack_reply(span.context, result, bundle)
                )
        except BaseException as exc:  # noqa: BLE001 - crosses the wire
            if span is None:
                raise  # the request never parsed: no sender to reply to
            # The serve span is minted as soon as the sender is known, so
            # the error reply carries it too: a failed delegation still
            # traces end to end.
            span.finish(status="error", error=f"{type(exc).__name__}: {exc}")
            return self._send_back(sender, pack_reply(span.context, exc))

    def _absorb_request(
        self, wire: bytes
    ) -> Tuple[str, Handle, SpanContext]:
        """Decode one request frame into the repository (wire order)."""
        sender, ctx, encode, bundle = unpack_request(wire)
        received = decode_bundle(self.repo, bundle)
        self._note_held(sender, received)
        return sender, encode, ctx

    def _note_held(self, peer: str, handles: Sequence[Handle]) -> None:
        """``peer`` evidently holds ``handles``: it shipped them, or was
        just shipped them (the view advances on send *and* receive).  A
        literal is never stored or shipped - its handle *is* the data -
        so it is no belief and stays out of the view."""
        for handle in handles:
            if not handle.is_literal:
                self.view.learn(handle.content_key(), peer, handle.byte_size())

    def _unheld_by(self, peer: str, fp: Footprint) -> List[Handle]:
        """The data of ``fp`` held here that ``peer`` is not believed to
        hold: "ship only what the peer is not known to hold", the one
        filter behind both the request and the reply bundle.

        The store is asked by key (:meth:`Repository.handles_of`), so
        nothing is hashed; its first-stored order is the bundle's byte
        order, which puts children before their trees.  Nothing is
        cached, so a forget, an absorb or a GC pass has nothing here
        to invalidate."""
        return [
            handle
            for handle in self.repo.handles_of(fp.data)
            if not self.view.knows(handle.content_key(), peer)
        ]

    def _transit(self, channel: Channel, peer_name: str) -> None:
        """One hop's wire time, recorded per peer."""
        with self._m_transit.time(peer=peer_name):
            channel.transit()

    def _send_back(self, sender: str, payload: bytes) -> Tuple[bytes, int]:
        channel = self.peers.get(sender)
        if channel is None:
            raise NetworkError(f"{self.name}: no channel back to {sender!r}")
        return channel.send(self, payload)

    # ------------------------------------------------------------------
    # Placement: the shared cost model decides where to run

    def _candidates(self) -> List[str]:
        """Every node placement may price: connected peers plus any
        gossip-learned holder the directory can actually dial.

        Without a directory a name learned via gossip is knowledge with
        no endpoint, so only live channels qualify - placement must
        never pick a machine delegation cannot reach.  Confirmed-dead
        peers never qualify: eviction pops their channel and purges
        their view beliefs, and the filter here catches the window
        between a tombstone landing and the eviction callback running.
        ``is_dead`` takes a lock, so the scan reads a snapshot of the
        peers: a concurrent dial or eviction may change the dict mid-loop.
        """
        names = {
            peer
            for peer in list(self.peers)
            if not self.membership.is_dead(peer)
        }
        if self.directory is not None:
            for location in self.view.known_locations():
                if (
                    location != self.name
                    and location not in names
                    and not self.membership.is_dead(location)
                    and self.directory.get(location) is not None
                ):
                    names.add(location)
        return sorted(names)

    def _place(
        self,
        encode: Handle,
        candidates: Optional[List[str]] = None,
        prefer_local: bool = False,
    ) -> Tuple[Footprint, Optional[Quote]]:
        """The one placement step every entry point below shares:
        footprint, what of it is held here, candidates, then a price for
        every candidate through the shared cost model.

        The local sizes are read per quote, by the footprint's own keys
        (``Repository.held_sizes``): a quote costs its footprint, not
        the store, so all a batch lists once is ``candidates`` (a reply
        absorbed mid-batch can only un-strand a key or keep newly local
        work local).  ``prefer_local`` returns no quote when the
        footprint is complete here: that prices at zero bytes moved and
        no remote quote can beat zero.  (A node cannot *pull* data, so
        an incomplete local footprint is never a candidate.)  The
        footprint is returned so the dispatch does not walk it again.

        Sizes are authoritative for locally-held data and believed (from
        the inventory gossip) otherwise; a key whose size nobody ever
        reported prices as zero, which charges every candidate equally
        and so never skews the choice.

        Candidates default to :meth:`_candidates` - connected peers plus
        dialable gossip-learned holders.  Pricing is the simulated
        scheduler's path, :meth:`ObjectView.bid
        <repro.dist.objectview.ObjectView.bid>`, with the footprint keys
        not held here as its ``unshippable`` keys: see
        :func:`repro.dist.costmodel.bid` for the strandedness rule.

        Confirmed-dead peers are not a matter of belief: they are
        excluded inside :func:`repro.dist.costmodel.choose` (the repo's one
        placement policy), because a tombstone is a *liveness* fact,
        not a staleness guess - delegating there cannot succeed.
        """
        fp = transitive_footprint(self.repo, encode)
        local = self.repo.held_sizes(fp.data)
        if prefer_local and fp.data <= local.keys():
            return fp, None
        if candidates is None:
            candidates = self._candidates()
        if not candidates:
            if prefer_local:
                raise MissingObjectError(encode, self.name)
            raise NetworkError(f"{self.name}: no peers to delegate to")
        dead = self.membership.dead_nodes()
        with self._m_quote.time():
            contenders, move_bytes = self.view.bid(
                [
                    (key, local.get(key, self.view.believed_size(key)))
                    for key in fp.data
                ],
                dict.fromkeys(candidates),
                unshippable=[key for key in fp.data if key not in local],
                exclude=dead,
            )
            return fp, choose(
                contenders,
                move_bytes,
                lambda peer: self.outstanding.get(peer, 0),
                exclude=dead,
            )

    def quote_best(self, encode: Handle) -> Quote:
        """The cheapest remote quote for evaluating ``encode``.

        This is the executing-runtime twin of
        :meth:`repro.dist.scheduler.DataflowScheduler.place`: believed
        missing bytes first, in-flight delegation load on ties, then
        name.  A serviceable peer believed to hold *nothing* is still a
        candidate, it just prices at the full footprint.  Because
        ``outstanding`` stays raised for the whole flight of an async
        delegation, quotes taken mid-flight steer toward idle peers.
        Candidates include nodes this one has never connected to, when
        gossip named them and the directory can dial them.
        """
        return self._place(encode)[1]

    def delegate_best(self, encode: Handle) -> Handle:
        """Delegate to the peer the shared cost model prices cheapest."""
        fp, quote = self._place(encode)
        return self._dispatch(quote.candidate, encode, fp).result()

    def eval_anywhere(self, encode: Handle) -> Handle:
        """Evaluate here when everything is resident (nothing remote
        beats zero bytes moved); otherwise on the peer the shared cost
        model prices cheapest."""
        fp, quote = self._place(encode, prefer_local=True)
        if quote is None:
            return self.runtime.eval(encode)
        return self._dispatch(quote.candidate, encode, fp).result()

    # ------------------------------------------------------------------
    # Fan-out: many delegations in flight at once

    def scatter(self, encodes: Sequence[Handle]) -> List[Delegation]:
        """Quote and dispatch every encode without waiting for replies.

        Each dispatch raises ``outstanding`` before the next quote runs,
        so equal-priced candidates spread round-robin across peers
        instead of piling onto the first name - the load tiebreak doing
        real work.  Returns the futures in input order.  Candidates are
        listed once for the whole batch; each quote reads its own sizes.
        """
        candidates = self._candidates()
        futures: List[Delegation] = []
        for encode in encodes:
            fp, quote = self._place(encode, candidates)
            futures.append(self._dispatch(quote.candidate, encode, fp))
        return futures

    def eval_many(self, encodes: Sequence[Handle]) -> List[Handle]:
        """Evaluate a batch, overlapping remote work with local work.

        Per-encode placement follows :meth:`eval_anywhere`: a complete
        local footprint runs here, anything else is dispatched
        asynchronously to the cheapest peer.  All remote dispatches
        happen *first*, so their wire time and peer-side evaluation
        overlap the local evaluations that follow; results return in
        input order.  The first failed delegation raises.  As in
        :meth:`scatter`, candidates are listed once; a reply absorbed
        mid-batch can only keep newly local work local.
        """
        remote: List[Tuple[int, Delegation]] = []
        local_work: List[Tuple[int, Handle]] = []
        results: Dict[int, Handle] = {}
        candidates = self._candidates()
        for index, encode in enumerate(encodes):
            fp, quote = self._place(encode, candidates, prefer_local=True)
            if quote is None:
                local_work.append((index, encode))
            else:
                remote.append(
                    (index, self._dispatch(quote.candidate, encode, fp))
                )
        for index, encode in local_work:
            results[index] = self.runtime.eval(encode)
        for index, future in remote:
            results[index] = future.result()
        return [results[index] for index in range(len(encodes))]

    def retry_elsewhere(self, failed: Delegation) -> Delegation:
        """Re-quote and re-dispatch a failed delegation on the survivors.

        The lost-work half of failure handling: the failure detector
        only *discovers* a death - work that was in flight toward the
        dead peer still failed with :class:`NetworkError`, and the
        caller holds a dead future.  This closes the loop.  The failed
        peer is reported suspected (first-hand transport evidence beats
        waiting out a silence timeout), its name is excluded from the
        fresh quote even before the tombstone lands, and the encode is
        re-priced across the remaining candidates through the same cost
        model as any first dispatch - re-delegation is not a special
        placement policy.

        The caller decides *when* to retry (the failed future must be
        settled; its rollback already freed the optimistic view advance,
        so the new quote prices shipping honestly).  Raises
        :class:`NetworkError` when no candidate survives.
        """
        if not failed.done:
            raise NetworkError(
                f"{self.name}: cannot retry a delegation to "
                f"{failed.peer!r} that is still in flight"
            )
        self.membership.suspect(failed.peer)
        candidates = [
            peer for peer in self._candidates() if peer != failed.peer
        ]
        if not candidates:
            raise NetworkError(
                f"{self.name}: no surviving peers to retry the "
                f"delegation that died on {failed.peer!r}"
            )
        fp, quote = self._place(failed.encode, candidates=candidates)
        self._m_retries.inc(peer=failed.peer, target=quote.candidate)
        return self._dispatch(quote.candidate, failed.encode, fp)
