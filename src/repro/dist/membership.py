"""Gossiped cluster membership: SWIM-style failure detection + tombstones.

The rest of :mod:`repro.dist` deliberately never *invalidates* a belief:
:class:`~repro.dist.objectview.ObjectView` staleness costs a redundant
transfer, not correctness.  Node death breaks that bargain - a dead
peer's gossiped holdings keep winning placement quotes forever, so one
crash degrades every future decision.  This module is the liveness side
of gossip, built so the fix *composes* with the existing anti-entropy
machinery instead of adding a second protocol:

* every node keeps a **heartbeat counter** stamped exactly like an
  inventory version: it only ever grows, and the freshest stamp wins a
  merge - so membership state piggybacks on the same SYN/ACK/PUSH
  rounds (:meth:`repro.fixpoint.net.FixpointNode.gossip_with`) and
  :class:`~repro.dist.gossip.GossipCoordinator` rounds that spread
  inventory, and converges in the same O(log n) epidemic rounds;
* a node whose heartbeat stops advancing is **suspected** after
  ``suspect_after`` local observations and **confirmed dead** after
  ``confirm_after`` more (the SWIM suspect -> confirm split: suspicion
  gossips onward so a live-but-lagging node can refute it by beating,
  and only unrefuted suspicion hardens into a tombstone);
* a **tombstone** (:data:`DEAD`) is terminal *within an incarnation*:
  it beats any heartbeat of the same incarnation and survives any
  merge order - but a node carries a SWIM **incarnation number**, and
  a higher incarnation outranks a lower incarnation's tombstone.  The
  per-node key ``(incarnation, dead?, heartbeat, status-rank)`` stays
  a total order, so the merge stays idempotent, commutative, and
  associative (property-tested) and rejoin needs no second protocol:
  a restarted node simply asserts ``ALIVE`` at ``incarnation + 1``,
  and a falsely-tombstoned node *refutes* the tombstone the same way
  the SWIM self-defense refutes suspicion - by reasserting itself one
  incarnation up (:meth:`MembershipView.beat` on a tombstoned self).

Consumers pass an ``on_dead`` hook at construction (fired once per
tombstoned *(node, incarnation)*, outside this view's lock): the gossip
coordinator and :class:`~repro.fixpoint.net.FixpointNode` use them to
evict the dead node's beliefs from every :class:`ObjectView`, drop it
from placement candidates, and close its channels so parked waiters
fail fast.  The mirrors are ``on_rejoin`` (a previously tombstoned node
came back at a higher incarnation: readmit its beliefs, restore its
candidacy) and ``on_refute`` (*this* node just beat a tombstone about
itself: re-register, restamp, and gossip the refutation onward).  A
tombstone about this node never fires ``on_dead`` - self-destructing
on someone else's false accusation is exactly the bug refutation
exists to fix.

Time here is *logical*: :meth:`MembershipView.tick` advances a local
observation counter (one per gossip round the node participates in),
never the wall clock - the module lives in a sim-clocked path and must
replay deterministically under a seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..analysis.sync import TrackedLock
from ..core.errors import FixError, FrameReader

__all__ = [
    "ALIVE",
    "DEAD",
    "SUSPECT",
    "Member",
    "join_members",
    "members_wire_bytes",
    "MembershipError",
    "MembershipView",
    "pack_members",
    "unpack_members",
]

#: Member liveness states.  ``ALIVE`` and ``SUSPECT`` are refutable
#: (a fresher heartbeat wins); ``DEAD`` is the tombstone, terminal
#: within its incarnation.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

_RANK = {ALIVE: 0, SUSPECT: 1, DEAD: 2}
_BY_RANK = {rank: status for status, rank in _RANK.items()}

_COUNT = struct.Struct("<I")
_LEN = struct.Struct("<H")
_U64 = struct.Struct("<Q")
_STATUS = struct.Struct("<B")
#: A member's fields after its name, always present together:
#: ``[u64 incarnation][u64 heartbeat][u8 status]``.
_LIFE = struct.Struct("<QQB")


class MembershipError(FixError):
    """Membership failures (bad wire frames, invalid transitions)."""


_frame = FrameReader(MembershipError)


@dataclass(frozen=True)
class Member:
    """One node's liveness assertion: ``(node, heartbeat, status,
    incarnation)``.

    The heartbeat is the node's own version counter (stamped like an
    inventory version: bumped by :meth:`MembershipView.beat`, only ever
    forward).  A suspicion is stamped *at* the heartbeat it doubts, so
    the suspected node refutes it simply by beating past it.  The
    incarnation only the node itself may bump: it resets the heartbeat
    race entirely, which is how a restarted or falsely-accused node
    outranks its own tombstone.
    """

    node: str
    heartbeat: int
    status: str = ALIVE
    incarnation: int = 1

    def order_key(self) -> Tuple[int, int, int, int]:
        """Total order per node; the merge keeps the max.

        The incarnation dominates everything: a node's fresh life
        outranks its old death.  Within an incarnation ``DEAD`` sorts
        above every live stamp regardless of heartbeat (the tombstone
        is terminal until the node itself refutes it one incarnation
        up); among live stamps the fresher heartbeat wins, and at equal
        heartbeats the doubt wins (``SUSPECT`` > ``ALIVE``), which is
        what lets an unrefuted suspicion spread instead of being
        shouted down by stale optimism.
        """
        if self.status == DEAD:
            return (self.incarnation, 1, self.heartbeat, _RANK[DEAD])
        return (self.incarnation, 0, self.heartbeat, _RANK[self.status])

    @property
    def is_dead(self) -> bool:
        return self.status == DEAD

    def wire_bytes(self) -> int:
        """Bytes this entry occupies in :func:`pack_members`."""
        return (
            _LEN.size
            + len(self.node.encode("utf-8"))
            + _U64.size  # incarnation
            + _U64.size  # heartbeat
            + 1
        )


def join_members(a: Member, b: Member) -> Member:
    """The merge: the greater assertion under :meth:`Member.order_key`.

    A total order per node makes this an idempotent, commutative,
    associative join - the same algebra the inventory delta merge has,
    so epidemic spread converges regardless of delivery order or
    duplication (property-tested in tests/test_properties.py).
    """
    if a.node != b.node:
        raise MembershipError(
            f"cannot join membership entries for {a.node!r} and {b.node!r}"
        )
    return b if b.order_key() > a.order_key() else a


# ----------------------------------------------------------------------
# Wire codec (piggybacked on the gossip SYN/ACK frames in fixpoint.net)


def pack_members(members: Iterable[Member]) -> bytes:
    """``[u32 count]`` then per member
    ``[u16 len][node][u64 incarnation][u64 hb][u8 st]``."""
    entries = sorted(members, key=lambda m: m.node)
    parts = [_COUNT.pack(len(entries))]
    for member in entries:
        raw = member.node.encode("utf-8")
        parts.append(
            _LEN.pack(len(raw))
            + raw
            + _LIFE.pack(
                member.incarnation, member.heartbeat, _RANK[member.status]
            )
        )
    return b"".join(parts)


def members_wire_bytes(members: Optional[Iterable[Member]]) -> int:
    """Bytes :func:`pack_members` spends on ``members`` - 0 for ``None``,
    a frame with no liveness piggyback (the simulated driver's
    accounting: it never runs the codec)."""
    if members is None:
        return 0
    return _COUNT.size + sum(m.wire_bytes() for m in members)


def _refuse_member(raw: bytes, offset: int) -> None:
    """The member :func:`unpack_members`' one pass stopped at, read
    field by field: the pass stops only at a member one of these reads
    refuses, so this raises, naming the field and the offset."""
    length, offset = _frame.unpack(_LEN, raw, offset, "node length")
    _, offset = _frame.text(raw, offset, length, "node name")
    _, offset = _frame.unpack(_U64, raw, offset, "incarnation")
    _, offset = _frame.unpack(_U64, raw, offset, "heartbeat")
    rank, offset = _frame.unpack(_STATUS, raw, offset, "status")
    if rank not in _BY_RANK:
        raise MembershipError(f"bad membership status byte {rank}")


def unpack_members(raw: bytes, offset: int = 0) -> Tuple[Tuple[Member, ...], int]:
    """Each member in one pass: ``incarnation, heartbeat, status``
    through one struct, bounds checked inline.  A member that pass
    cannot read is refused by the field-by-field reads, which name the
    field and the offset."""
    count, offset = _frame.unpack(_COUNT, raw, offset, "count")
    end = len(raw)
    members: List[Member] = []
    for _ in range(count):
        at = offset + 2
        if at > end:
            break
        stop = at + _LEN.unpack_from(raw, offset)[0]
        if stop + 17 > end:
            break
        incarnation, heartbeat, rank = _LIFE.unpack_from(raw, stop)
        status = _BY_RANK.get(rank)
        if status is None:
            break
        try:
            node = raw[at:stop].decode("utf-8")
        except UnicodeDecodeError:
            break
        members.append(Member(node, heartbeat, status, incarnation))
        offset = stop + 17
    else:
        return tuple(members), offset
    _refuse_member(raw, offset)


class MembershipView:
    """One node's gossiped belief about who is alive.

    Thread-safe the same way :class:`ObjectView` is: every public
    method holds the view's lock, and the ``on_dead`` / ``on_rejoin`` /
    ``on_refute`` hooks fire *outside* it (they close channels and
    take other locks).  Each tombstoned *(node, incarnation)* fires
    ``on_dead`` exactly once per view, no matter how many merges
    re-deliver the tombstone; each dead->alive flip (only possible via
    a higher incarnation) fires ``on_rejoin`` once per transition.

    ``suspect_after`` and ``confirm_after`` count observed gossip
    rounds; both must exceed the epidemic propagation age (~ceil(log2 n)
    rounds at fanout 1) or a live-but-lagging node's suspicion can
    harden before its refuting beat arrives.
    """

    def __init__(
        self,
        node: str,
        suspect_after: int = 4,
        confirm_after: int = 4,
        on_dead: Optional[Callable[[str], None]] = None,
        on_rejoin: Optional[Callable[[str], None]] = None,
        on_refute: Optional[Callable[[int], None]] = None,
        incarnation: int = 1,
    ):
        self.node = node
        self.suspect_after = suspect_after
        self.confirm_after = confirm_after
        self._lock = TrackedLock("MembershipView._lock")
        self._members: Dict[str, Member] = {
            node: Member(node, 1, ALIVE, incarnation)
        }
        #: Local logical clock: one tick per observed gossip round.
        self._ticks = 0
        #: Tick at which each node's record last *changed* - the
        #: staleness the detector ages against.
        self._since: Dict[str, int] = {}
        # The three hooks, fixed at construction and fired outside the
        # lock: a tombstone transition, a dead->alive flip at a higher
        # incarnation, and this node refuting its own tombstone (the
        # hook receives the new incarnation).
        self._on_dead = on_dead
        self._on_rejoin = on_rejoin
        self._on_refute = on_refute

    # ------------------------------------------------------------------
    # Introspection

    def heartbeat(self) -> int:
        with self._lock:
            member = self._members.get(self.node)
            return member.heartbeat if member is not None else 0

    def incarnation(self, node: Optional[str] = None) -> int:
        with self._lock:
            member = self._members.get(node or self.node)
            return member.incarnation if member is not None else 0

    def status(self, node: str) -> Optional[str]:
        with self._lock:
            member = self._members.get(node)
            return member.status if member is not None else None

    def is_dead(self, node: str) -> bool:
        with self._lock:
            member = self._members.get(node)
            return member is not None and member.is_dead

    def dead_nodes(self) -> Set[str]:
        """Every *currently* tombstoned node - the placement exclusion
        set.  A rejoined node (alive at a higher incarnation) is not in
        it, which is what restores its candidacy everywhere the set is
        consulted live (``costmodel.choose(exclude=...)``)."""
        with self._lock:
            return {n for n, m in self._members.items() if m.is_dead}

    def live_nodes(self) -> Set[str]:
        with self._lock:
            return {n for n, m in self._members.items() if not m.is_dead}

    def members(self) -> Tuple[Member, ...]:
        """The full map, for piggybacking on a gossip frame.

        Membership is O(nodes), not O(objects), so unlike inventory it
        ships whole every round - a few dozen bytes buys idempotent
        convergence with no digest bookkeeping.
        """
        with self._lock:
            return tuple(
                self._members[node] for node in sorted(self._members)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    # ------------------------------------------------------------------
    # Local transitions

    def beat(self) -> int:
        """Advance this node's own heartbeat (once per gossip round).

        The generalized SWIM self-defense: a tombstoned self does not
        stay tombstoned - it *refutes* the tombstone by bumping its
        incarnation and reasserting ``ALIVE``, which outranks the
        tombstone in every peer's lattice once it gossips there.
        ``on_refute`` fires with the new incarnation.
        """
        with self._lock:
            heartbeat, refuted = self._beat_locked()
        if refuted is not None:
            self._fire([], [], refuted)
        return heartbeat

    def _beat_locked(self) -> Tuple[int, Optional[int]]:
        """Returns ``(heartbeat, refuted_incarnation-or-None)``."""
        me = self._members[self.node]
        if me.is_dead:
            reborn = Member(self.node, 1, ALIVE, me.incarnation + 1)
            self._members[self.node] = reborn
            return reborn.heartbeat, reborn.incarnation
        bumped = Member(self.node, me.heartbeat + 1, ALIVE, me.incarnation)
        self._members[self.node] = bumped
        return bumped.heartbeat, None

    def suspect(self, node: str) -> None:
        """Direct evidence of trouble (a failed send, a refused dial).

        Records suspicion at the node's currently-believed heartbeat
        and incarnation, so a fresher beat arriving later still refutes
        it.  Unknown nodes are ignored (nothing to suspect), and
        tombstones are final within their incarnation.
        """
        with self._lock:
            member = self._members.get(node)
            if member is None or member.is_dead or node == self.node:
                return
            self._store(
                Member(node, member.heartbeat, SUSPECT, member.incarnation)
            )

    def declare_dead(self, node: str) -> None:
        """Tombstone ``node`` outright (ground-truth kill in tests, or an
        operator decision); fires ``on_dead`` like any confirmation."""
        with self._lock:
            member = self._members.get(node)
            heartbeat = member.heartbeat if member is not None else 0
            incarnation = member.incarnation if member is not None else 1
            newly_dead, rejoined = self._store(
                Member(node, heartbeat, DEAD, incarnation)
            )
        self._fire(newly_dead, rejoined)

    def _store(self, member: Member) -> Tuple[List[str], List[str]]:
        """Write one record (lock held); returns ``(newly tombstoned,
        newly rejoined)`` nodes.

        A tombstone is new unless the record it replaces was already a
        tombstone at that incarnation (a re-delivery at a higher
        heartbeat).  Records only move up :meth:`Member.order_key`, so
        the replaced record is the whole history that decision needs.

        Never announces a tombstone about *this* node: acting on one's
        own death notice (evicting holdings, unregistering from the
        directory) is the self-destruct bug - the record is stored so
        the next :meth:`beat` or :meth:`merge` sees it and refutes it.
        """
        node = member.node
        current = self._members.get(node)
        merged = member if current is None else join_members(current, member)
        if merged == current:
            return [], []
        self._members[node] = merged
        self._since[node] = self._ticks
        if node == self.node:
            return [], []
        was_dead = current is not None and current.is_dead
        if merged.is_dead:
            if not (was_dead and current.incarnation == merged.incarnation):
                return [node], []
        elif was_dead:
            # Only a strictly higher incarnation outranks a tombstone,
            # so this is a genuine rejoin, not heartbeat noise.
            return [], [node]
        return [], []

    # ------------------------------------------------------------------
    # Merge (the gossip piggyback) and detection

    def merge(self, members: Iterable[Member]) -> int:
        """Join a peer's membership map into this one; returns how many
        records changed.  Idempotent by the lattice: replaying a map
        changes nothing.  A suspicion *about this node* is refuted on
        the spot by beating past it, and a tombstone about this node by
        bumping the incarnation - the SWIM self-defense, generalized.

        A member whose :meth:`~Member.order_key` is not above the held
        record's costs one comparison: the join would keep the held
        record, so nothing is stored."""
        newly_dead: List[str] = []
        rejoined: List[str] = []
        refuted: Optional[int] = None
        with self._lock:
            applied = 0
            held = self._members
            for member in members:
                current = held.get(member.node)
                if (
                    current is not None
                    and member.order_key() <= current.order_key()
                ):
                    continue
                dead, back = self._store(member)
                newly_dead.extend(dead)
                rejoined.extend(back)
                applied += 1
            me = self._members[self.node]
            if me.status == SUSPECT or me.is_dead:
                _, refuted = self._beat_locked()
        self._fire(newly_dead, rejoined, refuted)
        return applied

    def tick(self) -> List[str]:
        """One observed gossip round: age every record, run detection.

        A node whose record has not changed in ``suspect_after`` ticks
        is suspected (the suspicion gossips onward from the next
        :meth:`members` snapshot); a suspicion unrefuted for
        ``confirm_after`` more ticks hardens into a tombstone.  Returns
        the nodes newly confirmed dead.
        """
        newly_dead: List[str] = []
        with self._lock:
            self._ticks += 1
            for node, member in list(self._members.items()):
                if node == self.node or member.is_dead:
                    continue
                age = self._ticks - self._since.get(node, 0)
                if member.status == ALIVE and age >= self.suspect_after:
                    self._store(
                        Member(
                            node,
                            member.heartbeat,
                            SUSPECT,
                            member.incarnation,
                        )
                    )
                elif member.status == SUSPECT and age >= self.confirm_after:
                    dead, _ = self._store(
                        Member(
                            node, member.heartbeat, DEAD, member.incarnation
                        )
                    )
                    newly_dead.extend(dead)
        self._fire(newly_dead)
        return newly_dead

    def _fire(
        self,
        newly_dead: List[str],
        rejoined: Iterable[str] = (),
        refuted: Optional[int] = None,
    ) -> None:
        """Run the hooks outside the lock: they evict views, close
        channels, and unregister directories - all of which take their
        own locks.  Order matters: deaths first, then rejoins, then
        this node's own refutation."""
        if self._on_dead is not None:
            for node in newly_dead:
                self._on_dead(node)
        if self._on_rejoin is not None:
            for node in rejoined:
                self._on_rejoin(node)
        if refuted is not None and self._on_refute is not None:
            self._on_refute(refuted)
