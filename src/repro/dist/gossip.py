"""Epidemic anti-entropy over :class:`~repro.dist.objectview.ObjectView`s.

The paper's inventory handshake (4.2.2) keeps placement beliefs fresh,
but running it all-pairs is O(n^2) handshakes with each one re-shipping
full state.  This module runs it *epidemically* instead: every round,
each view push-pulls a digest+delta exchange with ``fanout`` random
peers, so new beliefs double their audience roughly every round and the
whole group converges in O(log n) rounds shipping O(delta) bytes per
handshake - the Dynamo/Ray-style gossip the ROADMAP called for.

:class:`GossipCoordinator` is the round driver both consumers use:

* the simulated platform (:class:`~repro.dist.engine.FixpointSim` with a
  :class:`GossipConfig`) gossips machine views plus the scheduler's view
  between outputs, so scheduler beliefs age realistically instead of
  snapshotting ground truth;
* the benchmarks/tests drive it directly to measure convergence rounds,
  bytes per round, and the staleness-induced redundant transfers a
  stale belief regime pays.

Everything is seeded: the same seed replays the identical schedule of
peer choices round by round, which is what makes convergence-rounds
assertions deterministic.

**One protocol core, two drivers.**  What each side of a handshake
computes, merges and ships, and in which order, lives once, in
:class:`Participant`.  :class:`GossipCoordinator` drives it by direct
calls and accounts bytes from the values' ``wire_bytes()``;
:meth:`repro.fixpoint.net.FixpointNode.gossip_with` drives the same four
calls with a pack -> ``Channel`` -> unpack hop between them.  *When* a
round happens (heartbeats, detector ticks, refreshing own holdings, peer
choice, spans, metrics) is each driver's business; the step order is not.

The module also carries the real wire codec for digests and deltas
(:func:`pack_digest` / :func:`pack_delta` and their unpack twins) used
by the executing runtime's GOSSIP frames in :mod:`repro.fixpoint.net` -
the byte *accounting* in ``Digest.wire_bytes``/``Delta.wire_bytes``
mirrors exactly this encoding.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..core.errors import FixError, FrameReader
from ..obs import NULL_OBS, Obs
from .membership import Member, MembershipView, members_wire_bytes
from .objectview import Delta, Digest, Entry, ObjectView

_COUNT = struct.Struct("<I")
_LEN = struct.Struct("<H")
_U64 = struct.Struct("<Q")

_NAME_STR = b"\x00"
_NAME_BYTES = b"\x01"
_NO_SIZE = b"\x00"
_HAS_SIZE = b"\x01"


class GossipError(FixError):
    """Anti-entropy failures (round budget exhausted, bad wire frames)."""


_frame = FrameReader(GossipError)


# ----------------------------------------------------------------------
# Wire codec (shared with repro.fixpoint.net's GOSSIP frames)


def pack_digest(digest: Digest) -> bytes:
    parts = [_COUNT.pack(len(digest.versions))]
    for origin in sorted(digest.versions):
        raw = origin.encode("utf-8")
        parts.append(_LEN.pack(len(raw)) + raw + _U64.pack(digest.versions[origin]))
    return b"".join(parts)


def unpack_digest(raw: bytes, offset: int = 0) -> Tuple[Digest, int]:
    count, offset = _frame.unpack(_COUNT, raw, offset, "origin count")
    versions: Dict[str, int] = {}
    for _ in range(count):
        length, offset = _frame.unpack(_LEN, raw, offset, "origin length")
        origin, offset = _frame.text(raw, offset, length, "origin")
        version, offset = _frame.unpack(_U64, raw, offset, "version cap")
        versions[origin] = version
    return Digest(versions), offset


def _pack_name(name) -> bytes:
    if isinstance(name, bytes):
        return _NAME_BYTES + _LEN.pack(len(name)) + name
    if isinstance(name, str):
        raw = name.encode("utf-8")
        return _NAME_STR + _LEN.pack(len(raw)) + raw
    raise GossipError(
        f"cannot serialize object name of type {type(name).__name__!r} "
        "(wire gossip carries str or bytes names)"
    )


def _unpack_name(raw: bytes, offset: int):
    tag, offset = _frame.take(raw, offset, 1, "name tag")
    length, offset = _frame.unpack(_LEN, raw, offset, "name length")
    if tag == _NAME_STR:
        return _frame.text(raw, offset, length, "name")
    body, offset = _frame.take(raw, offset, length, "name")
    if tag == _NAME_BYTES:
        return bytes(body), offset
    raise GossipError(f"bad name tag byte {tag!r} in gossip delta")


def pack_delta(delta: Delta) -> bytes:
    parts = [pack_digest(Digest(delta.versions)), _COUNT.pack(len(delta.entries))]
    for origin, version, name, location, size in delta.entries:
        origin_raw = origin.encode("utf-8")
        location_raw = location.encode("utf-8")
        parts.append(_LEN.pack(len(origin_raw)) + origin_raw + _U64.pack(version))
        parts.append(_pack_name(name))
        parts.append(_LEN.pack(len(location_raw)) + location_raw)
        if size is None:
            parts.append(_NO_SIZE)
        else:
            parts.append(_HAS_SIZE + _U64.pack(size))
    return b"".join(parts)


def unpack_delta(raw: bytes, offset: int = 0) -> Tuple[Delta, int]:
    caps, offset = unpack_digest(raw, offset)
    count, offset = _frame.unpack(_COUNT, raw, offset, "entry count")
    entries: List[Entry] = []
    for _ in range(count):
        length, offset = _frame.unpack(_LEN, raw, offset, "origin length")
        origin, offset = _frame.text(raw, offset, length, "origin")
        version, offset = _frame.unpack(_U64, raw, offset, "version")
        name, offset = _unpack_name(raw, offset)
        length, offset = _frame.unpack(_LEN, raw, offset, "location length")
        location, offset = _frame.text(raw, offset, length, "location")
        flag, offset = _frame.take(raw, offset, 1, "size flag")
        size: Optional[int] = None
        if flag == _HAS_SIZE:
            size, offset = _frame.unpack(_U64, raw, offset, "size")
        elif flag != _NO_SIZE:
            raise GossipError(f"bad size flag byte {flag!r} in gossip delta")
        entries.append((origin, version, name, location, size))
    return Delta(tuple(entries), dict(caps.versions)), offset


# ----------------------------------------------------------------------
# The protocol core: one handshake, whoever carries the messages


#: A membership map as it rides a frame - ``None`` on a frame with no
#: liveness piggyback (a participant running without membership).
Members = Optional[Tuple[Member, ...]]


class Participant(NamedTuple):
    """One side of the inventory handshake (paper 4.2.2): an
    :class:`ObjectView` plus, optionally, its :class:`MembershipView`.

    Four steps over plain values, their order written down only here::

        initiator                                  responder
        syn()        -- digest, members -------->  on_syn(*syn)
        on_ack(*ack) <-- digest, delta, members --
                     -- delta (the PUSH) ------->  on_push(push)

    Two rules make it safe under death, false accusation and rejoin:

    1. **Liveness merges before inventory.**  A tombstone must evict
       ahead of the stale entries it shadows, and a rejoin must lift
       the eviction gate ahead of the returning node's fresh entries -
       inventory-first would drop those entries *and* advance the caps
       past them, losing them for good.
    2. **The PUSH delta is computed before the ACK merges.**  If the
       ACK brings home this node's own tombstone, merging it refutes it
       (incarnation bump + epoch restamp), and the restamped entries
       must not ride a members-free PUSH to a peer that still believes
       this node dead: its eviction gate would drop them while its caps
       advanced past them.  They go out on the *next* round, whose SYN
       carries the refutation ahead of them.

    No clock, no channel, no bytes, no lock of its own: the views guard
    themselves, one lock at a time, so crossing handshakes cannot
    deadlock.
    """

    view: ObjectView
    membership: Optional[MembershipView] = None

    def _members(self) -> Members:
        return None if self.membership is None else self.membership.members()

    def syn(self) -> Tuple[Digest, Members]:
        return self.view.digest(), self._members()

    def on_syn(
        self, digest: Digest, members: Members
    ) -> Tuple[Digest, Delta, Members]:
        """The ACK: own coverage, what the initiator lacks, and the
        membership map *after* the SYN's merged into it."""
        if self.membership is not None and members is not None:
            self.membership.merge(members)  # rule 1
        delta = self.view.delta_since(digest)
        return self.view.digest(), delta, self._members()

    def on_ack(self, digest: Digest, delta: Delta, members: Members) -> Delta:
        push = self.view.delta_since(digest)  # rule 2
        if self.membership is not None and members is not None:
            self.membership.merge(members)  # rule 1
        self.view.merge_delta(delta)
        return push

    def on_push(self, push: Delta) -> int:
        """Returns how many of the pushed entries were news."""
        return self.view.merge_delta(push)


@dataclass(frozen=True)
class ExchangeStats:
    """What one handshake shipped, priced by the values' ``wire_bytes()``
    (which mirror the codec above byte for byte)."""

    digest_bytes: int
    delta_bytes: int
    entries_shipped: int
    #: Liveness piggyback bytes (0 when membership is off): the
    #: initiator's map on the SYN, the responder's merged map on the ACK.
    membership_bytes: int = 0

    @property
    def bytes_shipped(self) -> int:
        return self.digest_bytes + self.delta_bytes + self.membership_bytes


def _handshake(
    initiator: Participant, responder: Participant
) -> Tuple[int, int, int, int]:
    """One whole handshake by direct calls; what it shipped, as plain
    ints in :class:`ExchangeStats` field order for a round to sum."""
    digest, members = initiator.syn()
    ack_digest, delta, ack_members = responder.on_syn(digest, members)
    push = initiator.on_ack(ack_digest, delta, ack_members)
    responder.on_push(push)
    return (
        digest.wire_bytes() + ack_digest.wire_bytes(),
        delta.wire_bytes() + push.wire_bytes(),
        len(delta) + len(push),
        members_wire_bytes(members) + members_wire_bytes(ack_members),
    )


def exchange(initiator: Participant, responder: Participant) -> ExchangeStats:
    """One whole handshake by direct calls (the simulated driver): both
    views end up holding the union; converged views ship empty deltas."""
    return ExchangeStats(*_handshake(initiator, responder))


# ----------------------------------------------------------------------
# The round driver


@dataclass(frozen=True)
class GossipConfig:
    """Knobs for wiring gossip into a platform (see FixpointSim).

    ``startup_rounds`` run when a graph's initial placements register;
    ``rounds_per_output`` run each time an output materializes - the
    aging knob: 0 means the scheduler only ever knows what it saw at
    startup, higher values keep beliefs fresher at more gossip traffic.

    ``membership=True`` turns on the liveness side: every participant
    keeps a :class:`~repro.dist.membership.MembershipView` that beats,
    piggybacks on each round's exchanges, and confirms unresponsive
    nodes dead after ``suspect_after`` + ``confirm_after`` observed
    rounds - at which point their holdings are evicted from that
    participant's :class:`ObjectView` and the platform's schedulers
    stop placing on them.
    """

    fanout: int = 1
    startup_rounds: int = 2
    rounds_per_output: int = 1
    seed: int = 0
    membership: bool = False
    suspect_after: int = 4
    confirm_after: int = 4


@dataclass(frozen=True)
class RoundStats(ExchangeStats):
    """Per-round accounting: who exchanged, and what it cost (the sum
    over the round's handshakes)."""

    index: int = 0
    pairs: Tuple[Tuple[str, str], ...] = ()


class GossipCoordinator:
    """Seeded random-peer anti-entropy rounds over a set of views.

    One round: every participating view (in registration order)
    initiates a push-pull exchange with ``fanout`` uniformly random
    other participants (the handshake :func:`exchange` runs), so each
    handshake ships only what the peer lacks.

    The coordinator is a driver, not a lock: views guard themselves, so
    rounds may run concurrently with live traffic mutating the views
    (the executing runtime's stress test does exactly that).
    """

    def __init__(
        self,
        views: Iterable[ObjectView],
        fanout: int = 1,
        seed: int = 0,
        obs: Obs = NULL_OBS,
        membership: bool = False,
        suspect_after: int = 4,
        confirm_after: int = 4,
    ):
        self._views: List[ObjectView] = list(views)
        if fanout < 1:
            raise GossipError("gossip fanout must be at least 1")
        self.fanout = fanout
        self.rng = random.Random(seed)
        self.rounds: List[RoundStats] = []
        #: Ground-truth dead set (:meth:`kill`): these views stop
        #: participating, and the *survivors'* failure detectors notice
        #: the silence - nothing here tells them directly.
        self._dead: Set[str] = set()
        #: Liveness: one failure detector per participant, piggybacked
        #: on every exchange.  Each detector's tombstones evict the dead
        #: node's holdings from its *own* paired ObjectView - beliefs
        #: die per-observer, epidemically, like they spread.
        self._suspect_after = suspect_after
        self._confirm_after = confirm_after
        self._membership: Dict[str, MembershipView] = {}
        #: node -> current incarnation, so :meth:`restart` knows what
        #: the survivors' tombstone says and can outrank it by one.
        self._incarnations: Dict[str, int] = {}
        if membership:
            for view in self._views:
                self._enroll(view)
        #: NULL_OBS by default; the simulated platform passes its
        #: sim-clocked obs so round/byte counters land in the same
        #: export as the scheduler's (and stay replay-deterministic).
        self.obs = obs
        self._m_rounds = obs.registry.counter(
            "gossip_coordinator_rounds_total", "Epidemic rounds driven"
        )
        self._m_exchanges = obs.registry.counter(
            "gossip_coordinator_exchanges_total",
            "Pairwise handshakes across all rounds",
        )
        self._m_bytes = obs.registry.counter(
            "gossip_coordinator_bytes_total",
            "Handshake bytes by kind (digest vs delta)",
        )
        self._m_entries = obs.registry.counter(
            "gossip_coordinator_entries_total", "Delta entries shipped"
        )
        self._m_convergence = obs.registry.histogram(
            "gossip_convergence_rounds",
            "Rounds a run() needed to converge every view",
            buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
                     32.0, 48.0, 64.0),
        )

    @property
    def views(self) -> Tuple[ObjectView, ...]:
        return tuple(self._views)

    def add_view(self, view: ObjectView) -> None:
        """Late joiners participate from the next round on."""
        self._views.append(view)
        if self._membership:
            self._enroll(view)

    # ------------------------------------------------------------------
    # Liveness

    def _enroll(self, view: ObjectView, incarnation: int = 1) -> None:
        self._membership[view.node] = MembershipView(
            view.node,
            suspect_after=self._suspect_after,
            confirm_after=self._confirm_after,
            on_dead=view.evict,
            on_rejoin=view.readmit,
            on_refute=view.advance_epoch,
            incarnation=incarnation,
        )
        self._incarnations[view.node] = incarnation

    @property
    def membership_enabled(self) -> bool:
        return bool(self._membership)

    def membership_view(self, node: str) -> MembershipView:
        """The failure detector paired with ``node``'s ObjectView."""
        return self._membership[node]

    def kill(self, node: str) -> None:
        """Ground truth: ``node`` crashes *now*.

        Its view stops initiating and being chosen, and its heartbeat
        stops advancing - survivors' detectors must notice the silence
        through suspect -> confirm, gossip the tombstone, and evict.
        The rounds-to-no-dead-placement gap is exactly what
        ``bench_churn.py`` measures.
        """
        self._dead.add(node)

    def restart(self, node: str, clock=None) -> ObjectView:
        """The killed ``node`` comes back, one incarnation up.

        Models a machine reboot: the old view and detector are gone
        (state did not survive the crash), and a *fresh* ObjectView is
        minted at ``epoch = incarnation + 1`` alongside a fresh
        MembershipView asserting ``ALIVE`` at that incarnation - which
        outranks every survivor's tombstone in the lattice, so ordinary
        gossip readmits the node (``on_rejoin`` lifts each survivor's
        eviction gate) and its fresh-origin beliefs merge while replays
        of its pre-death gossip still apply 0 entries.  Returns the
        fresh view so the experiment can seed its holdings.
        """
        if node not in self._dead:
            raise GossipError(
                f"cannot restart {node!r}: it was never killed"
            )
        index = next(
            (i for i, v in enumerate(self._views) if v.node == node), None
        )
        if index is None:
            raise GossipError(f"cannot restart unknown node {node!r}")
        incarnation = self._incarnations.get(node, 1) + 1
        fresh = ObjectView(node, clock=clock, epoch=incarnation)
        self._views[index] = fresh
        self._dead.discard(node)
        if self._membership:
            self._enroll(fresh, incarnation=incarnation)
        return fresh

    def declared_dead(self, node: str) -> Set[str]:
        """Which participants have tombstoned ``node`` so far."""
        return {
            observer
            for observer, membership in self._membership.items()
            if observer not in self._dead and membership.is_dead(node)
        }

    def readmitted(self, node: str) -> Set[str]:
        """Which survivors believe ``node`` alive *at its current
        incarnation* - i.e. have merged the rejoin, not merely never
        heard of the death."""
        current = self._incarnations.get(node, 1)
        return {
            observer
            for observer, membership in self._membership.items()
            if observer not in self._dead
            and observer != node
            and not membership.is_dead(node)
            and membership.incarnation(node) >= current
        }

    # ------------------------------------------------------------------

    def round(self, participants: Optional[Set[str]] = None) -> RoundStats:
        """Run one gossip round; returns its accounting.

        ``participants`` (node names) restricts who takes part - the
        staleness experiments exclude a view from k rounds and measure
        how much worse its placements price.
        """
        active = [
            Participant(v, self._membership.get(v.node))
            for v in self._views
            if (participants is None or v.node in participants)
            and v.node not in self._dead
        ]
        # Round policy (the step order inside a handshake is
        # Participant's): heartbeats advance once per round a node
        # participates in, before any handshake; detectors age one tick
        # after the last.  A killed node's counter simply stops.
        if self._membership:
            for party in active:
                party.membership.beat()
        pairs: List[Tuple[str, str]] = []
        digest_bytes = delta_bytes = entries = membership_bytes = 0
        for index, party in enumerate(active):
            # Everyone else, in registration order - the population the
            # seeded schedule draws from (alone: 0 of 0, draws nothing).
            peers = active[:index] + active[index + 1:]
            for peer in self.rng.sample(peers, min(self.fanout, len(peers))):
                digests, deltas, news, liveness = _handshake(party, peer)
                pairs.append((party.view.node, peer.view.node))
                digest_bytes += digests
                delta_bytes += deltas
                entries += news
                membership_bytes += liveness
        if self._membership:
            # Confirmations fire on_dead, which evicts the dead node
            # from the paired ObjectView.
            for party in active:
                party.membership.tick()
        stats = RoundStats(
            index=len(self.rounds),
            pairs=tuple(pairs),
            digest_bytes=digest_bytes,
            delta_bytes=delta_bytes,
            entries_shipped=entries,
            membership_bytes=membership_bytes,
        )
        self.rounds.append(stats)
        self._m_rounds.inc()
        self._m_exchanges.inc(len(pairs))
        self._m_bytes.inc(digest_bytes, kind="digest")
        self._m_bytes.inc(delta_bytes, kind="delta")
        if membership_bytes:
            self._m_bytes.inc(membership_bytes, kind="membership")
        self._m_entries.inc(entries)
        return stats

    def run_rounds(
        self, count: int, participants: Optional[Set[str]] = None
    ) -> List[RoundStats]:
        """``count`` unconditional rounds (the platform's aging budget)."""
        return [self.round(participants) for _ in range(count)]

    def run(self, max_rounds: int = 64) -> int:
        """Gossip until every view agrees; returns rounds used.

        Raises :class:`GossipError` when the budget runs out first - a
        convergence *assertion*, not a best-effort loop.  At most
        ``max_rounds`` rounds execute (convergence is checked once more
        after the last one), so the accounting in :attr:`rounds` never
        includes a round past the budget.
        """
        for used in range(max_rounds):
            if self.converged():
                self._m_convergence.observe(float(used))
                return used
            self.round()
        if self.converged():
            self._m_convergence.observe(float(max_rounds))
            return max_rounds
        raise GossipError(
            f"gossip failed to converge within {max_rounds} rounds "
            f"({len(self._views)} views)"
        )

    # ------------------------------------------------------------------

    def converged(self) -> bool:
        """True when every *surviving* view's belief snapshot agrees.

        Killed views are excluded: they stopped participating, so their
        beliefs are frozen at death - survivors converge around them.
        """
        live = [v for v in self._views if v.node not in self._dead]
        if len(live) < 2:
            return True
        first = live[0].snapshot()
        return all(view.snapshot() == first for view in live[1:])

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_shipped for r in self.rounds)
