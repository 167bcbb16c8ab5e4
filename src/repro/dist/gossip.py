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
  :class:`GossipConfig`) gossips machine views plus the platform's view
  between outputs, so placement beliefs age realistically instead of
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
reads the widths this encoding is declared with, beside those classes.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..core.errors import FixError
from ..core.frames import COUNT, LEN, U64, FrameReader, prefixed
from ..obs import NULL_OBS, Obs
from .membership import Member, MembershipView, members_wire_bytes
from .objectview import CAPS, STAMP, Delta, Digest, Entry, ObjectView

#: A sized entry's tail: ``[u8 size flag 1][u64 size]``.
_SIZED = struct.Struct("<BQ")

_NAME_STR, _NAME_BYTES = 0, 1  # the name tag byte
_NO_SIZE, _HAS_SIZE = 0, 1  # the size flag byte
_SIZELESS = bytes([_NO_SIZE])


class GossipError(FixError):
    """Anti-entropy failures (round budget exhausted, bad wire frames)."""


_frame = FrameReader(GossipError)


# ----------------------------------------------------------------------
# Wire codec (shared with repro.fixpoint.net's GOSSIP frames)
#
# A digest, and a delta's caps prefix, are the rows ``CAPS`` declares.
# A delta's entries are read in one pass: fixed-width field groups
# through one struct, bounds checked inline.  Origin and location
# strings are encoded and decoded once per run: the delta codec keeps
# the previous entry's origin and location with their ``[u16 len]
# [utf-8]`` prefixes, and reuses them while they repeat, as they do
# along one origin's run.  Along such a run of sized, bytes-named
# entries (content keys) the decoder reads each entry through one
# struct of the previous entry's layout, and checks what the layout
# assumed.  An entry that pass cannot read - short, not UTF-8, a bad
# tag or flag byte - is read again field by field through the
# FrameReader, which refuses it naming the field and the offset.


def pack_digest(digest: Digest) -> bytes:
    """``[u32 count]`` then per origin, sorted:
    ``[u16 len][origin][u64 cap]``."""
    versions = digest.versions
    origins = sorted(versions)
    return CAPS.pack(origins, [(versions[o],) for o in origins])


def unpack_digest(raw: bytes, offset: int = 0) -> Tuple[Digest, int]:
    origins, rows, offset = CAPS.unpack(_frame, raw, offset)
    return Digest({o: cap for o, (cap,) in zip(origins, rows)}), offset


def pack_delta(delta: Delta) -> bytes:
    """``[digest of the caps][u32 count]`` then per entry ``[u16 len]
    [origin][u64 version][u8 name tag: 0 str, 1 bytes][u16 len][name]
    [u16 len][location][u8 0]`` or ``...[u8 1][u64 size]``."""
    versions = delta.versions
    origins = sorted(versions)
    parts = [CAPS.pack(origins, [(versions[o],) for o in origins])]
    parts.append(COUNT.pack(len(delta.entries)))
    extend, stamp, sized = parts.extend, STAMP.pack, _SIZED.pack
    # The previous entry's origin and location and their ``[u16 len]
    # [utf-8]``: encoded again only where a run of either ends.
    last_origin = last_location = None
    for origin, version, name, location, size in delta.entries:
        if isinstance(name, bytes):
            tag, name_raw = _NAME_BYTES, name
        elif isinstance(name, str):
            tag, name_raw = _NAME_STR, name.encode("utf-8")
        else:
            raise GossipError(
                f"cannot serialize object name of type {type(name).__name__!r} "
                "(wire gossip carries str or bytes names)"
            )
        if origin != last_origin:
            last_origin, origin_raw = origin, prefixed(origin)
        if location != last_location:
            last_location, location_raw = location, prefixed(location)
        extend((
            origin_raw,
            stamp(version, tag, len(name_raw)),
            name_raw,
            location_raw,
            _SIZELESS if size is None else sized(_HAS_SIZE, size),
        ))
    return b"".join(parts)


def _refuse_entry(raw: bytes, offset: int) -> None:
    """The entry :func:`unpack_delta`'s one pass stopped at, read field
    by field: the pass stops only at an entry one of these reads
    refuses, so this raises, naming the field and the offset (or the
    bad tag or flag byte)."""
    length, offset = _frame.unpack(LEN, raw, offset, "origin length")
    _, offset = _frame.text(raw, offset, length, "origin")
    _, offset = _frame.unpack(U64, raw, offset, "version")
    tag, offset = _frame.take(raw, offset, 1, "name tag")
    length, offset = _frame.unpack(LEN, raw, offset, "name length")
    if tag[0] == _NAME_STR:
        _, offset = _frame.text(raw, offset, length, "name")
    else:
        _, offset = _frame.take(raw, offset, length, "name")
        if tag[0] != _NAME_BYTES:
            raise GossipError(f"bad name tag byte {tag!r} in gossip delta")
    length, offset = _frame.unpack(LEN, raw, offset, "location length")
    _, offset = _frame.text(raw, offset, length, "location")
    flag, offset = _frame.take(raw, offset, 1, "size flag")
    if flag[0] == _HAS_SIZE:
        _frame.unpack(U64, raw, offset, "size")
    elif flag[0] != _NO_SIZE:
        raise GossipError(f"bad size flag byte {flag!r} in gossip delta")


def unpack_delta(raw: bytes, offset: int = 0) -> Tuple[Delta, int]:
    caps, offset = unpack_digest(raw, offset)
    count, offset = _frame.unpack(COUNT, raw, offset, "entry count")
    end = len(raw)
    startswith = raw.startswith
    stamp_from, u64_from = STAMP.unpack_from, U64.unpack_from
    # The previous entry's origin and location: ``[u16 len][utf-8]`` as
    # read, its length and the string it decoded to.  The empty
    # string's prefix starts them: bytes that repeat it are the empty
    # string.
    origin_raw = location_raw = prefixed("")
    origin_len = location_len = len(origin_raw)
    origin = location = ""
    # The previous entry's whole layout when it was sized with a bytes
    # name - origin, stamp, name, location, flag and size through one
    # struct - and its name's length.  An entry that fits it and
    # repeats the prefixes, tag, length and flag is read in one call.
    whole: Optional[struct.Struct] = None
    name_len = 0
    entries: List[Entry] = []
    append = entries.append
    for _ in range(count):
        if whole is not None and offset + whole.size <= end:
            at_origin, version, tag, length, name, at_location, flag, size = (
                whole.unpack_from(raw, offset)
            )
            if (
                at_origin == origin_raw
                and at_location == location_raw
                and length == name_len
                and tag == _NAME_BYTES
                and flag == _HAS_SIZE
            ):
                append((origin, version, name, location, size))
                offset += whole.size
                continue
        if startswith(origin_raw, offset):
            stamp = offset + origin_len
        else:
            at = offset + 2
            if at > end:
                break
            stamp = at + LEN.unpack_from(raw, offset)[0]
            if stamp > end:
                break
            try:
                origin = raw[at:stamp].decode("utf-8")
            except UnicodeDecodeError:
                break
            origin_raw = raw[offset:stamp]
            origin_len = stamp - offset
        name_at = stamp + 11
        if name_at > end:
            break
        version, tag, length = stamp_from(raw, stamp)
        name_end = name_at + length
        if startswith(location_raw, name_end):
            flag_at = name_end + location_len
        else:
            location_at = name_end + 2
            if location_at > end:
                break
            flag_at = location_at + LEN.unpack_from(raw, name_end)[0]
            if flag_at > end:
                break
            try:
                location = raw[location_at:flag_at].decode("utf-8")
            except UnicodeDecodeError:
                break
            location_raw = raw[name_end:flag_at]
            location_len = flag_at - name_end
        if flag_at >= end:
            break
        flag = raw[flag_at]
        if flag == _NO_SIZE:
            size, next_at = None, flag_at + 1
        elif flag == _HAS_SIZE and flag_at + 9 <= end:
            size, next_at = u64_from(raw, flag_at + 1)[0], flag_at + 9
        else:
            break
        if tag == _NAME_BYTES:
            name = raw[name_at:name_end]
            if size is not None:
                name_len = length
                whole = struct.Struct(
                    f"<{origin_len}sQBH{length}s{location_len}sBQ"
                )
        elif tag == _NAME_STR:
            try:
                name = raw[name_at:name_end].decode("utf-8")
            except UnicodeDecodeError:
                break
        else:
            break
        append((origin, version, name, location, size))
        offset = next_at
    else:
        return Delta(tuple(entries), caps.versions), offset
    _refuse_entry(raw, offset)


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
    (sized from the declarations the codec above packs with)."""

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

    Each view contacts one peer per round (the coordinator's default
    ``fanout``).  ``startup_rounds`` run when a graph's initial
    placements register; ``rounds_per_output`` run each time an output
    materializes - the aging knob: 0 means the scheduler only ever
    knows what it saw at startup, higher values keep beliefs fresher at
    more gossip traffic.

    ``membership=True`` turns on the liveness side: every participant
    keeps a :class:`~repro.dist.membership.MembershipView` that beats,
    piggybacks on each round's exchanges, and confirms unresponsive
    nodes dead after ``suspect_after`` + ``confirm_after`` observed
    rounds - at which point their holdings are evicted from that
    participant's :class:`ObjectView` and the platform's schedulers
    stop placing on them.
    """

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
        self.membership_enabled = membership
        self._suspect_after = suspect_after
        self._confirm_after = confirm_after
        #: node -> its side of every handshake, in registration order.
        #: A node's incarnation is its view's epoch (the detector's
        #: ``on_refute`` advances it), so nothing else records it.
        self._parties: Dict[str, Participant] = {}
        for view in views:
            self.add_view(view)
        # NULL_OBS by default; the simulated platform passes its
        # sim-clocked obs so the round counters land in the same export
        # as the scheduler's (and stay replay-deterministic).  They read
        # ``rounds``, the coordinator's one record of what it ran.
        registry = obs.registry
        for name, help, per_round in (
            ("rounds", "Epidemic rounds driven", lambda r: 1),
            ("exchanges", "Pairwise handshakes across all rounds",
             lambda r: len(r.pairs)),
            ("entries", "Delta entries shipped", lambda r: r.entries_shipped),
        ):
            registry.counter(f"gossip_coordinator_{name}_total", help).read(
                lambda per_round=per_round: (
                    {(): sum(map(per_round, self.rounds))}
                    if self.rounds else {}
                )
            )
        registry.counter(
            "gossip_coordinator_bytes_total",
            "Handshake bytes by kind (digest vs delta)",
        ).read(self._bytes_by_kind, "kind")
        self._m_convergence = registry.histogram(
            "gossip_convergence_rounds",
            "Rounds a run() needed to converge every view",
            buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
                     32.0, 48.0, 64.0),
        )

    def _bytes_by_kind(self) -> Dict[str, int]:
        """Handshake bytes per kind over the rounds run (membership
        only once a round shipped some)."""
        totals = {
            kind: sum(getattr(r, f"{kind}_bytes") for r in self.rounds)
            for kind in ("digest", "delta", "membership")
        }
        if not totals["membership"]:
            del totals["membership"]
        return totals if self.rounds else {}

    @property
    def views(self) -> Tuple[ObjectView, ...]:
        return tuple(party.view for party in self._parties.values())

    def add_view(self, view: ObjectView) -> None:
        """Late joiners participate from the next round on."""
        if view.node in self._parties:
            raise GossipError(f"a view for {view.node!r} is already registered")
        self._parties[view.node] = self._party(view)

    # ------------------------------------------------------------------
    # Liveness

    def _party(self, view: ObjectView) -> Participant:
        """``view`` plus, liveness on, a detector at the view's epoch."""
        if not self.membership_enabled:
            return Participant(view)
        return Participant(view, MembershipView(
            view.node,
            suspect_after=self._suspect_after,
            confirm_after=self._confirm_after,
            on_dead=view.evict,
            on_rejoin=view.readmit,
            on_refute=view.advance_epoch,
            incarnation=view.epoch,
        ))

    def view(self, node: str) -> ObjectView:
        """``node``'s ObjectView: the one registered, or minted by the
        last :meth:`restart`."""
        return self._parties[node].view

    def membership_view(self, node: str) -> MembershipView:
        """The failure detector paired with ``node``'s ObjectView."""
        membership = self._parties[node].membership
        if membership is None:
            raise KeyError(node)
        return membership

    def kill(self, node: str) -> None:
        """Ground truth: ``node`` crashes *now*.

        Its view stops initiating and being chosen, and its heartbeat
        stops advancing - survivors' detectors must notice the silence
        through suspect -> confirm, gossip the tombstone, and evict.
        The rounds-to-no-dead-placement gap is exactly what
        ``bench_churn.py`` measures.
        """
        if node not in self._parties:
            raise GossipError(f"cannot kill unknown node {node!r}")
        self._dead.add(node)

    def restart(self, node: str, clock=None) -> ObjectView:
        """The killed ``node`` comes back, one incarnation up.

        Models a machine reboot: the old view and detector are gone
        (state did not survive the crash).  The old view's epoch is the
        node's last incarnation (a refuted tombstone advanced it), so a
        *fresh* ObjectView is minted at that epoch + 1, with a fresh
        MembershipView asserting ``ALIVE`` at the same incarnation -
        which outranks every survivor's tombstone in the lattice, so
        ordinary gossip readmits the node (``on_rejoin`` lifts each
        survivor's eviction gate) and its fresh-origin beliefs merge
        while replays of its pre-death gossip still apply 0 entries.
        The fresh pair keeps the old one's place in registration order.
        Returns the fresh view so the experiment can seed its holdings.
        """
        if node not in self._dead:
            raise GossipError(
                f"cannot restart {node!r}: it was never killed"
            )
        old = self._parties[node]
        fresh = ObjectView(node, clock=clock, epoch=old.view.epoch + 1)
        self._parties[node] = self._party(fresh)
        self._dead.discard(node)
        return fresh

    def _live(self, among: Optional[Set[str]] = None) -> List[Participant]:
        """Surviving parties in registration order, only ``among`` if given."""
        return [
            party
            for node, party in self._parties.items()
            if node not in self._dead and (among is None or node in among)
        ]

    def declared_dead(self, node: str) -> Set[str]:
        """Which participants have tombstoned ``node`` so far."""
        return {
            party.view.node
            for party in self._live()
            if self.membership_enabled and party.membership.is_dead(node)
        }

    def readmitted(self, node: str) -> Set[str]:
        """Which survivors believe ``node`` alive *at its current
        incarnation* - i.e. have merged the rejoin, not merely never
        heard of the death."""
        current = self._parties[node].view.epoch if node in self._parties else 1
        return {
            party.view.node
            for party in self._live()
            if self.membership_enabled
            and party.view.node != node
            and not party.membership.is_dead(node)
            and party.membership.incarnation(node) >= current
        }

    # ------------------------------------------------------------------

    def round(self, participants: Optional[Set[str]] = None) -> RoundStats:
        """Run one gossip round; returns its accounting.

        ``participants`` (node names) restricts who takes part - the
        staleness experiments exclude a view from k rounds and measure
        how much worse its placements price.
        """
        active = self._live(participants)
        # Round policy (the step order inside a handshake is
        # Participant's): heartbeats advance once per round a node
        # participates in, before any handshake; detectors age one tick
        # after the last.  A killed node's counter simply stops.
        if self.membership_enabled:
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
        if self.membership_enabled:
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
        return stats

    def run_rounds(self, count: int) -> List[RoundStats]:
        """``count`` unconditional rounds (the platform's aging budget)."""
        return [self.round() for _ in range(count)]

    def run(self, max_rounds: int = 64) -> int:
        """Gossip until every view agrees; returns rounds used.

        Raises :class:`GossipError` when the budget runs out first - a
        convergence *assertion*, not a best-effort loop.  At most
        ``max_rounds`` rounds execute (convergence is checked once more
        after the last one), so the accounting in :attr:`rounds` never
        includes a round past the budget.
        """
        convergence = self._m_convergence
        for used in range(max_rounds):
            if self.converged():
                if convergence is not None:
                    convergence.observe(float(used))
                return used
            self.round()
        if self.converged():
            if convergence is not None:
                convergence.observe(float(max_rounds))
            return max_rounds
        raise GossipError(
            f"gossip failed to converge within {max_rounds} rounds "
            f"({len(self._parties)} views)"
        )

    # ------------------------------------------------------------------

    def converged(self) -> bool:
        """True when every *surviving* view's belief snapshot agrees.

        Killed views are excluded: they stopped participating, so their
        beliefs are frozen at death - survivors converge around them.
        """
        live = [party.view for party in self._live()]
        if len(live) < 2:
            return True
        first = live[0].snapshot()
        return all(view.snapshot() == first for view in live[1:])

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_shipped for r in self.rounds)
