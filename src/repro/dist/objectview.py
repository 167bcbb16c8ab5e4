"""The passive, possibly-stale per-node map of who holds what.

Fix ships dependency information inside handles, so nodes learn object
locations as a side effect of normal traffic instead of querying a
coordinator (paper 4.2.2).  :class:`ObjectView` models exactly that: a
node's *belief* about replica placement.  It advances when the node
observes traffic (:meth:`learn`), when it snapshots the registry it can
see (:meth:`sync_from_cluster`), or when two nodes run the pairwise
inventory handshake (:class:`repro.dist.gossip.Participant` - driven by
direct calls in the simulation and over real channels by
:mod:`repro.fixpoint.net`, which stores content keys and per-handle
wire sizes in the same class - object names are any hashable).

**Anti-entropy is delta-based.**  Every belief this view originates is
stamped with a per-origin version counter, and the whole state is
summarised by a compact :meth:`digest` (origin -> highest version
covered, O(origins) not O(entries)).  A handshake then ships only what
the peer's digest does not cover: :meth:`delta_since` produces the
missing entries, and :meth:`merge_delta` applies them (idempotently - a
version already covered is skipped), so two already-converged views
ship two digests and *zero* entries instead of re-sending full state
every handshake.
Entries keep their origin stamp when forwarded, which is what lets
epidemic gossip (:mod:`repro.dist.gossip`, the GOSSIP frames in
:mod:`repro.fixpoint.net`) spread beliefs transitively: a view can
re-serve what it merged from one peer to another, and the whole group
converges in O(log n) rounds without O(n^2) handshakes.

Retraction (:meth:`forget`) is deliberately local-only: it strips this
view's own entries for the pair from the log, so a rolled-back
optimistic advance is never gossiped onward, and drops the belief
unless another origin's log still asserts it; it ships no tombstones -
a peer that already merged the entry keeps believing it, which at worst
prices a redundant transfer.  Node *death* is different: a dead
machine's holdings are not stale, they are gone, and keeping them
poisons every future placement.
:meth:`evict` is the membership-driven retraction
(:mod:`repro.dist.membership` tombstones feed it): it purges every
belief about the dead location - maps and logs - and gates
:meth:`learn`/:meth:`merge_delta` so late-arriving gossip cannot
resurrect them, while *keeping* the version caps so peers never re-send
what this view deliberately dropped.  The tombstone thus shadows the
holdings it evicts regardless of delivery order (property-tested).

Death is no longer forever, though: origins are *epoch-qualified* to
mirror the SWIM incarnation numbers in :mod:`repro.dist.membership`.
A view constructed at ``epoch`` > 1 stamps its own beliefs under the
origin id ``"node#epoch"``, so a restarted node's fresh assertions are
a brand-new origin that no survivor's retained version caps cover -
they merge, while replayed pre-death deltas (old origin, capped
versions) still apply 0 entries.  :meth:`readmit` is the membership
``on_rejoin`` hook: it lifts the :meth:`learn`/:meth:`merge_delta`
gate for a location whose node came back, keeping the old caps (the
anti-resurrection guarantee is per-incarnation).  :meth:`advance_epoch`
is the false-positive recovery hook (``on_refute``): a live node that
beat its own tombstone re-stamps its holdings under the new epoch's
origin so survivors - whose caps cover everything it ever said before
its "death" - relearn them through ordinary anti-entropy.

Crucially the view is *never invalidated*: a replica created after the
last observation is simply unknown, and :meth:`bytes_missing` prices a
placement using beliefs, not ground truth.  Staleness costs only
performance (a redundant transfer), never correctness - the same
property the paper's design leans on.

A name's believed holders are an immutable set, and the view keeps one
copy of each distinct set in use: every name held in the same places
points at the same ``frozenset``, so a belief held in one place costs
its forward-map slot and no set of its own.  A belief change swaps the
name to the copy of its new set; a copy no name points at is dropped,
so the copies are exactly the distinct values of the forward map.  The
sets handed to pricing, :meth:`where` and :meth:`snapshot` are those
copies, uncopied: nothing can change them.

The logs need no compaction: an origin stamps a ``(name, location)``
pair again only when its size changes or after it retracted the pair,
and a name is a content key whose content fixes its size, so a log
grows with beliefs and retractions, never with repeated traffic.

The view is internally locked: the executing runtime's asynchronous
delegation (:mod:`repro.fixpoint.net`) absorbs replies on serving
threads, so :meth:`learn`/:meth:`forget` race with :meth:`bid` on the
dispatching thread.  Every public method holds the view's RLock,
which in particular keeps the whole one-pass pricing atomic with
respect to concurrent observations.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Container,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..analysis.sync import TrackedRLock
from ..core.frames import COUNT, LEN, U64, Rows, utf8_size
from . import costmodel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cluster import Cluster

_NOTHING: frozenset = frozenset()


def _name_wire_weight(name: Hashable) -> int:
    """Bytes a name occupies on the wire (str/bytes exactly, else flat)."""
    if isinstance(name, bytes):
        return len(name)
    if isinstance(name, str):
        return len(name.encode("utf-8"))
    return U64.size


#: One versioned belief: ``(origin, version, name, location, size)``.
#: ``origin`` is the node that *first* recorded the belief; the stamp
#: travels with the entry through any number of merge hops.
Entry = Tuple[str, int, Hashable, str, Optional[int]]

#: ``bisect`` key: the version of a log row, which is an :data:`Entry`.
_VERSION = itemgetter(1)
#: ``groupby`` key: the origin of an :data:`Entry` (a merge's runs).
_ORIGIN = itemgetter(0)


@dataclass(frozen=True)
class Digest:
    """A compact summary of everything a view has *covered*.

    ``versions[origin]`` is the highest version stamp this view has seen
    from ``origin`` - O(origins), independent of how many entries those
    versions carried.  Coverage is monotone: versions below the cap are
    never re-requested, even if the entry itself was later forgotten
    (retraction is local; see :meth:`ObjectView.forget`).
    """

    versions: Dict[str, int] = field(default_factory=dict)
    _wire_bytes: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def wire_bytes(self) -> int:
        """``len(pack_digest(self))`` (the codec is in repro.dist.gossip)
        without running it.  Computed on the first call and kept with
        the value: a digest never changes once built, so nothing
        invalidates it - a view that moved hands out a new one."""
        size = self._wire_bytes
        if size is None:
            size = CAPS.size(self.versions)
            object.__setattr__(self, "_wire_bytes", size)  # frozen
        return size


#: A digest on the wire, and the caps prefix of every delta: per origin,
#: sorted, ``[u16 len][origin][u64 cap]``.
CAPS = Rows(
    count="origin count",
    key=("origin length", "origin"),
    fields=(("version cap", "Q"),),
    tag=None,
)


#: The digest of a view that has seen nothing: a delta against it is the
#: sender's full state (the bootstrap, and the bench's full-state baseline).
EMPTY_DIGEST = Digest()


#: A delta entry's fields between its origin and its name, always present
#: together: ``[u64 version][u8 name tag][u16 name length]``.
STAMP = struct.Struct("<QBH")


@dataclass(frozen=True)
class Delta:
    """Entries one view holds beyond another's digest, plus version caps.

    ``versions`` carries the sender's cap per shipped origin so the
    receiver's coverage advances even across gaps (entries the sender
    forgot before forwarding); entries are ascending per origin.
    """

    entries: Tuple[Entry, ...]
    versions: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries and not self.versions

    def wire_bytes(self) -> int:
        """``len(pack_delta(self))`` without running the codec.  Not
        kept: a delta is priced once."""
        # Fixed-width fields by count (per entry: two length prefixes,
        # the stamp and the size flag), then the variable ones by weight.
        total = (
            CAPS.size(self.versions)
            + COUNT.size
            + (2 * LEN.size + STAMP.size + 1) * len(self.entries)
        )
        sized = U64.size
        for origin, _version, name, location, size in self.entries:
            total += (
                utf8_size(origin)
                + _name_wire_weight(name)
                + utf8_size(location)
                + (sized if size is not None else 0)
            )
        return total


#: What a view ships to a peer that has covered everything it has: one
#: shared value, so a converged handshake allocates nothing.
EMPTY_DELTA = Delta(())


class ObjectView:
    """One node's belief about which machines hold which objects."""

    def __init__(self, node: str, clock=None, epoch: int = 1):
        self.node = node
        #: The incarnation this view stamps its own beliefs under.
        #: Epoch 1 keeps the bare node name as origin id (wire- and
        #: digest-compatible with every existing peer); a restarted
        #: node passes its bumped membership incarnation and stamps as
        #: ``"node#epoch"`` - a fresh origin no old version cap covers.
        self.epoch = epoch
        self._origin = node if epoch <= 1 else f"{node}#{epoch}"
        self._own_origins: Set[str] = {self._origin}
        #: Optional observability clock (wall or sim time).  When set,
        #: every belief advance stamps :attr:`last_advance`, which is
        #: what :meth:`staleness` ages against - the "how stale is this
        #: view" gauge the obs registry samples at export.
        self._clock = clock
        self.last_advance: Optional[float] = None
        #: Reentrant, so a ``needs`` generator that reads this view
        #: while :meth:`bid` or :meth:`price_moves` consumes it under
        #: the lock does not deadlock.
        self._lock = TrackedRLock("ObjectView._lock")
        #: name -> believed holders, never empty: one of the copies in
        #: ``_sets``, shared with every name held in the same places.
        self._locations: Dict[Hashable, FrozenSet[str]] = {}
        #: Each distinct holder set in use -> ``[its one copy, how many
        #: names point at it]``; a copy leaves when its count reaches 0.
        self._sets: Dict[FrozenSet[str], list] = {}
        #: How many names each location is believed to hold, changed
        #: only where a ``(name, location)`` pair is added or removed.
        #: Never zero: a location whose last belief goes is dropped, so
        #: the keys are :meth:`known_locations`.
        # Kept, not derived from _sets: a per-quote union is O(holder sets).
        self._counts: Dict[str, int] = {}
        #: Believed sizes, recorded whenever an observation carried one
        #: (cluster snapshots always do; wire traffic carries handle sizes).
        self._sizes: Dict[Hashable, int] = {}
        #: Anti-entropy state.  ``_vector`` is this view's digest: the
        #: highest version covered per origin.  ``_log`` keeps the
        #: entries themselves, ascending per origin, so a delta for any
        #: peer digest is a binary search plus a tail slice - and the
        #: only record of who asserted which (name, location), so a
        #: retraction reads it rather than a second index that could
        #: disagree with what deltas ship.  Rows are wire entries: the
        #: :data:`Entry` a merge received is the row it keeps, and the
        #: row is what a delta ships onward.  :meth:`_record` is the
        #: log's one writer, a run of one origin's entries at a time.
        self._vector: Dict[str, int] = {}
        #: ``_vector`` as :meth:`digest` last handed it out; ``None``
        #: once ``_vector`` has moved since.
        self._digest: Optional[Digest] = None
        self._log: Dict[str, List[Entry]] = {}
        #: Tombstoned locations (membership-confirmed dead): beliefs
        #: about them are purged and can never be re-learned.
        self._evicted: Set[str] = set()
        #: Times a belief about this view's own node was retracted
        #: (:meth:`forget`, :meth:`evict`) or its gate lifted
        #: (:meth:`readmit`, after which learns it dropped may be
        #: retried).  A node stamping its store into the view from a
        #: watermark rescans the whole store when this moves.
        self.own_retractions = 0

    # ------------------------------------------------------------------
    # Observation

    def learn(
        self, name: Hashable, location: str, size: Optional[int] = None
    ) -> None:
        """Record that ``location`` holds a replica of ``name``: a run of
        one for :meth:`learn_many`."""
        self.learn_many(location, ((name, size),))

    def learn_many(
        self, location: str, pairs: Iterable[Tuple[Hashable, Optional[int]]]
    ) -> None:
        """Record that ``location`` holds each ``(name, size)`` replica,
        in order, under one lock.

        The forward map, the per-location count and the sizes advance
        together.  Genuinely *new* information (a new replica belief,
        or a size the view had wrong) is also stamped with this view's
        next version so anti-entropy can forward exactly it; re-learning
        what is already believed stamps nothing and logs nothing -
        repeat observations stay free on the gossip wire and in memory.
        The stamps are one run of this view's origin, the same as one
        :meth:`learn` per pair would make.
        """
        with self._lock:
            if location in self._evicted:
                return  # tombstoned: the location is gone, not stale
            origin = self._origin
            version = self._vector.get(origin, 0)
            sizes = self._sizes
            rows: List[Entry] = []
            for name, size in pairs:
                size_is_news = size is not None and sizes.get(name) != size
                if self._add(name, location) or size_is_news:
                    version += 1
                    rows.append((origin, version, name, location, size))
                if size is not None:
                    sizes[name] = size
            if not rows:
                return
            if self._clock is not None:
                self.last_advance = self._clock()
            self._record(origin, rows)

    def _add(self, name: Hashable, location: str) -> bool:
        """Believe ``location`` holds ``name``; whether that is a new
        pair (lock held by caller)."""
        locations = self._locations.get(name, _NOTHING)
        if location in locations:
            return False
        self._hold(name, locations, locations | {location})
        self._counts[location] = self._counts.get(location, 0) + 1
        return True

    def _hold(
        self, name: Hashable, old: FrozenSet[str], new: FrozenSet[str]
    ) -> None:
        """Point ``name`` at the view's copy of ``new`` (or drop it from
        the forward map when ``new`` is empty) and release ``old``, its
        current value (lock held by caller)."""
        if new:
            held = self._sets.get(new)
            if held is None:
                held = self._sets[new] = [new, 0]
            held[1] += 1
            self._locations[name] = held[0]
        else:
            del self._locations[name]
        if old:
            held = self._sets[old]
            held[1] -= 1
            if not held[1]:
                del self._sets[old]

    def _record(self, origin: str, rows: List[Entry]) -> None:
        """Append a run of ``origin``'s entries to its log and move its
        cap to the last one (lock held by caller).  The log's one
        writer: ``rows`` is non-empty, the caller's own list, and
        ascending past the current cap (learns stamp the next versions,
        a merge skips covered ones), so per-origin logs stay ascending
        by construction.
        """
        log = self._log.get(origin)
        if log is None:
            self._log[origin] = rows
        else:
            log.extend(rows)
        self._vector[origin] = rows[-1][1]
        self._digest = None

    def forget(self, name: Hashable, location: str) -> None:
        """Retract the belief that ``location`` holds ``name``.

        The rollback path for optimistic observations: a delegating node
        advances its view when it *ships* data, and must retract exactly
        that advance when the delegation dies before the peer confirms
        receipt.  Sizes are kept - size knowledge is per-object, not
        per-replica, and stays true even when the location belief was
        wrong.  Forgetting a belief that was never held is a no-op.

        The retraction is scoped to what *this view* asserted: the
        entries for the pair are stripped from the logs of this view's
        own origins (every epoch it has stamped under), so a rolled-back
        optimistic advance is never gossiped onward (no tombstone
        crosses the wire - a peer that already merged it keeps it, at
        worst pricing a redundant move).  A pair that a *foreign*
        origin's log still carries is corroborated independently of the
        retracted advance - by the holder itself, or a third party -
        and is kept, foreign entries and all.  Stripping a foreign
        entry would be worse than keeping the belief: this view's
        digest already covers that version, so no peer would ever
        re-send it, and a possibly-true fact would become permanently
        unlearnable through gossip.  Both answers are read from the
        logs - O(total log) for a believed pair - because what a delta
        would ship is the only thing a retraction may go by.  A dropped
        belief leaves the forward map and its location's count.
        """
        with self._lock:
            locations = self._locations.get(name, _NOTHING)
            if location not in locations:
                return  # every logged pair is believed: nothing to strip
            corroborated = False
            for origin, log in self._log.items():
                if origin in self._own_origins:
                    self._log[origin] = [
                        e for e in log if e[2] != name or e[3] != location
                    ]
                elif not corroborated:
                    corroborated = any(
                        e[2] == name and e[3] == location for e in log
                    )
            if corroborated:
                return  # the belief outlives the rollback of our own say
            self._hold(name, locations, locations - {location})
            left = self._counts[location] - 1
            if left:
                self._counts[location] = left
            else:
                del self._counts[location]
            if location == self.node:
                self.own_retractions += 1

    def evict(self, location: str) -> int:
        """Tombstone ``location``: purge every belief about it, until
        (if ever) membership readmits it at a higher incarnation.

        The membership-driven retraction (a confirmed-dead node from
        :mod:`repro.dist.membership`): unlike :meth:`forget`, which
        rolls back one optimistic assertion, eviction removes the
        location from the forward map (one scan of it) and from the
        per-location count, strips it from the anti-entropy *logs of
        every origin* (so it is never gossiped onward from here), and
        gates :meth:`learn`/:meth:`merge_delta` so late-arriving
        entries about it are dropped on the floor - the tombstone
        shadows the holdings regardless of delivery order.  Version
        caps are deliberately kept: this view still *covers* the purged
        versions, so no peer ever re-sends them.

        Sizes are kept (per-object knowledge, true regardless of which
        replica died).  Returns how many name-beliefs were purged - the
        location's count; idempotent - a second eviction returns 0.
        """
        with self._lock:
            if location in self._evicted:
                return 0
            self._evicted.add(location)
            if location == self.node:
                self.own_retractions += 1
            purged = self._counts.pop(location, 0)
            for name in self._names_at(location):
                locations = self._locations[name]
                self._hold(name, locations, locations - {location})
            for origin, log in self._log.items():
                kept = [entry for entry in log if entry[3] != location]
                if len(kept) != len(log):
                    self._log[origin] = kept
            return purged

    def _names_at(self, location: str) -> List[Hashable]:
        """Names believed held at ``location``: one scan of the forward
        map (lock held by caller).  Only a tombstone or a refutation
        asks, so no inverted index is kept for it."""
        return [
            name
            for name, locations in self._locations.items()
            if location in locations
        ]

    def readmit(self, location: str) -> bool:
        """Lift the eviction gate for ``location``: its node came back.

        The :meth:`MembershipView.on_rejoin` hook - a tombstoned node
        reasserted life at a higher incarnation, so beliefs about it
        may be learned and merged again.  Version caps are deliberately
        *kept*: the anti-resurrection guarantee is per-incarnation, so
        a replayed pre-death delta (old origin, covered versions) still
        applies 0 entries, while the returning node's fresh beliefs
        arrive under its new ``"node#epoch"`` origin, which no retained
        cap covers.  Returns whether the location was actually gated;
        a later death can evict it again (per-death idempotence).
        """
        with self._lock:
            if location not in self._evicted:
                return False
            self._evicted.discard(location)
            if location == self.node:
                self.own_retractions += 1
            return True

    def advance_epoch(self, epoch: int) -> int:
        """Move this view's own origin to ``epoch`` and re-stamp its
        node's holdings under it.

        The false-positive recovery hook (:meth:`MembershipView.on_refute`):
        a live node that beat its own tombstone has a problem replaying
        history cannot solve - every survivor's version caps already
        cover everything it asserted before the "death", so re-offering
        the old entries applies 0.  Re-stamping its own holdings under
        the fresh ``"node#epoch"`` origin makes them new information
        again, and ordinary anti-entropy relearns them everywhere.
        Beliefs about *other* locations are not restamped: survivors
        never evicted those.  Returns how many beliefs were restamped;
        stale epochs (<= current) are ignored.
        """
        with self._lock:
            if epoch <= self.epoch:
                return 0
            self.epoch = epoch
            self._origin = f"{self.node}#{epoch}"
            origin = self._origin
            self._own_origins.add(origin)
            start = self._vector.get(origin, 0) + 1
            rows = [
                (origin, version, name, self.node, self._sizes.get(name))
                for version, name in enumerate(
                    sorted(self._names_at(self.node), key=repr), start
                )
            ]
            if rows:
                self._record(origin, rows)
            return len(rows)

    def is_evicted(self, location: str) -> bool:
        with self._lock:
            return location in self._evicted

    def where(self, name: Hashable) -> FrozenSet[str]:
        """Believed replica locations (empty when unknown): the view's
        immutable set, uncopied."""
        with self._lock:
            return self._locations.get(name, _NOTHING)

    def knows(self, name: Hashable, location: str) -> bool:
        with self._lock:
            return location in self._locations.get(name, _NOTHING)

    def known_locations(self) -> List[str]:
        """Locations believed to hold *anything* - gossip-learned
        membership: names can arrive from peers this view's node never
        talked to directly."""
        with self._lock:
            return list(self._counts)

    def snapshot(self) -> Dict[Hashable, frozenset]:
        """The belief state as a comparable value (name -> locations).

        Two views are *converged* exactly when their snapshots are
        equal - the convergence check the gossip coordinator and the
        property tests use.  The values are the view's own immutable
        sets, uncopied.
        """
        with self._lock:
            return dict(self._locations)

    def believed_size(self, name: Hashable) -> int:
        """The last observed size of ``name`` (0 when unseen)."""
        with self._lock:
            return self._sizes.get(name, 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._locations)

    # ------------------------------------------------------------------
    # Observability

    def staleness(self) -> float:
        """Seconds (by this view's clock) since the belief state last
        advanced - the age a scheduler's placement decision is priced
        on.  ``0.0`` until the view has both a clock and a first
        advance: an empty view is not stale, it is empty."""
        with self._lock:
            if self._clock is None or self.last_advance is None:
                return 0.0
            return max(0.0, self._clock() - self.last_advance)

    def stats(self) -> Dict[str, int]:
        """Size-of-belief gauges the obs registry samples at export,
        summed when asked.  Nothing compacts the logs; ``compactions``
        stays, at 0, for the readers of that gauge."""
        with self._lock:
            return {
                "entries": len(self._locations),
                "replicas": sum(self._counts.values()),
                "log_entries": sum(map(len, self._log.values())),
                "origins": len(self._vector),
                "evicted": len(self._evicted),
                "compactions": 0,
                "epoch": self.epoch,
            }

    # ------------------------------------------------------------------
    # Synchronisation

    def sync_from_cluster(self, cluster: "Cluster") -> None:
        """Snapshot the whole registry (a full-state refresh).

        Replicas added to the cluster *after* this call stay unknown -
        that lag is the staleness the scheduler tolerates by design.
        """
        for name, info in cluster.objects.items():
            for location in info.locations:
                self.learn(name, location, info.size)

    def refresh_local(self, cluster: "Cluster") -> None:
        """Learn this node's own holdings (a node always knows its disk)."""
        node = self.node
        self.learn_many(
            node,
            (
                (name, info.size)
                for name, info in cluster.objects.items()
                if node in info.locations
            ),
        )

    # ------------------------------------------------------------------
    # Anti-entropy: digest, delta, merge

    def digest(self) -> Digest:
        """This view's coverage summary: origin -> highest version seen.

        O(origins) bytes, independent of entry count - the thing a
        gossip round ships *instead of* full state.  The value is kept
        (and its ``wire_bytes()`` with it): every call returns the same
        :class:`Digest` until ``_vector`` moves, in :meth:`_record` or
        the cap advance of :meth:`merge_delta`, which drop it; the next
        call then copies the vector once.  Treat it as immutable.
        """
        with self._lock:
            if self._digest is None:
                self._digest = Digest(dict(self._vector))
            return self._digest

    def delta_since(self, digest: Digest) -> Delta:
        """Everything this view holds beyond ``digest``'s coverage.

        A peer that has covered exactly what this view has gets the
        shared :data:`EMPTY_DELTA` after one dict comparison - no log
        is read, which is what makes converged handshakes ~free.
        Otherwise only the origins this view is *ahead* on are visited:
        per-origin logs are ascending, so the uncovered tail is a binary
        search plus a slice.  Rows are wire entries, so each tail is
        copied whole, nothing re-tupled, and entries forwarded keep
        their original origin stamp, so a third party can tell what it
        already covers.
        """
        with self._lock:
            if digest.versions == self._vector:
                return EMPTY_DELTA
            covered = digest.versions.get
            caps: Dict[str, int] = {}
            for origin, top in self._vector.items():
                if top > covered(origin, 0):
                    caps[origin] = top
            if not caps:
                return EMPTY_DELTA  # the peer is ahead everywhere
            entries: List[Entry] = []
            for origin in sorted(caps):
                log = self._log.get(origin, ())
                entries.extend(
                    log[bisect_right(log, covered(origin, 0), key=_VERSION):]
                )
            return Delta(tuple(entries), caps)

    def merge_delta(self, delta: Delta) -> int:
        """Apply a peer's delta; returns how many entries were news.

        Applied a run at a time: each maximal run of one origin's
        entries is checked entry by entry and logged in one
        :meth:`_record` call, and the received tuple is the row kept.
        Idempotent by version: an entry whose stamp is already covered
        - by the caps or by an entry applied earlier in the run - is
        skipped, so replayed/overlapping deltas (concurrent gossip
        rounds) cannot double-apply, in whatever order they list an
        origin's versions.  Accepted entries are re-logged under their
        *original* origin, which is what lets this view serve them
        onward - the transitive spread gossip relies on.  Finally the
        version caps advance coverage even across entries the sender
        had forgotten (gaps ship no tombstone); the kept digest is
        dropped only if the vector moved.  An empty delta is nothing to
        apply and returns without taking the lock.
        """
        if delta.is_empty:
            return 0
        with self._lock:
            vector, evicted, sizes = self._vector, self._evicted, self._sizes
            add = self._add
            applied = 0
            for origin, run in groupby(delta.entries, _ORIGIN):
                top = vector.get(origin, 0)
                rows: List[Entry] = []
                for entry in run:
                    _origin, version, name, location, size = entry
                    if version <= top:
                        continue  # already covered: idempotence
                    if location in evicted:
                        # Tombstone shadows the entry: drop the belief but
                        # let the caps below advance coverage past it, so
                        # the sender never re-offers it either.
                        continue
                    add(name, location)
                    if size is not None:
                        sizes[name] = size
                    rows.append(entry)
                    top = version
                if rows:
                    self._record(origin, rows)
                    applied += len(rows)
            for origin, top in delta.versions.items():
                if top > vector.get(origin, 0):
                    vector[origin] = top
                    self._digest = None
            if applied and self._clock is not None:
                self.last_advance = self._clock()
            return applied

    # ------------------------------------------------------------------
    # Placement pricing

    def bytes_missing(
        self, cluster: "Cluster", names: Iterable[Hashable], machine: str
    ) -> int:
        """Bytes this view *believes* must move to run on ``machine``.

        Sizes are ground truth (declared in the registry); locations are
        beliefs, so a stale view may price a machine that actually holds
        a fresh replica as if the data still had to travel.
        """
        with self._lock:
            return sum(
                cluster.object(name).size
                for name in names
                if machine not in self._locations.get(name, _NOTHING)
            )

    def bytes_missing_many(
        self,
        cluster: "Cluster",
        names: Iterable[Hashable],
        machines: Iterable[str],
    ) -> Dict[str, int]:
        """:meth:`bytes_missing` for every machine in one pass over
        ``names`` (registry sizes, believed locations)."""
        return self.price_moves(
            ((name, cluster.object(name).size) for name in names), machines
        )

    def price_moves(
        self,
        needs: Iterable[Tuple[Hashable, int]],
        candidates: Iterable[str],
    ) -> Dict[str, int]:
        """Cluster-free pricing over ``(name, size)`` pairs, one entry
        per candidate: :meth:`bid`'s bytes pass laid out densely.

        The lock is held across the whole pass, so concurrent
        :meth:`learn`/:meth:`forget` calls (reply absorption on serving
        threads) see an atomic pricing: no belief changes mid-quote.
        It walks each input's holders, not :meth:`bid`'s holder sets:
        the dense references the placement tests compare against read
        this pass, so it must not share the grouping it checks.
        """
        with self._lock:
            locations = self._locations
            return costmodel.price_moves(
                needs, lambda name: locations.get(name, _NOTHING), candidates
            )

    def bid(
        self,
        names: Iterable[Hashable],
        sizes: Iterable[int],
        candidates: Collection[str],
        *,
        unshippable: Collection[Hashable] = (),
        consumer_location: Optional[str] = None,
        exclude: Optional[Container[str]] = None,
    ) -> Tuple[Collection[str], Callable[[str], int]]:
        """:func:`repro.dist.costmodel.bid` over these beliefs, priced
        per distinct holder set rather than per input.

        ``names`` and ``sizes`` are the task's inputs and their bytes,
        two streams read in step.  The names' believed holders are read
        by ``map`` over the forward map's ``get`` - the view's one copy
        of each set, whose hash is cached, or the empty set for a name
        it never heard of - and one loop sums the sizes per set;
        :func:`~repro.dist.costmodel.bid` prices those ``(holder set,
        bytes)`` pairs.  The unshippable keys go in as their distinct
        holder sets: a candidate is in every key's set exactly when it
        is in every one of the distinct sets, so viability is unchanged.
        The sums are exact, so every price is the per-input pass's; the
        cost is O(inputs + unshippable + distinct holder sets x their
        holders + contenders), and a wide task whose inputs sit on a few
        sets pays one dict update per input, not a walk of its holders.

        The lock is held across the grouping, which consumes both
        streams, and both pricing passes: no belief changes mid-quote."""
        with self._lock:
            get = self._locations.get
            grouped: Dict[FrozenSet[str], int] = {}
            for held, size in zip(map(get, names, repeat(_NOTHING)), sizes):
                grouped[held] = grouped.get(held, 0) + size
            if unshippable:
                unshippable = set(map(get, unshippable, repeat(_NOTHING)))
            return costmodel.bid(
                grouped.items(),
                candidates,
                unshippable=unshippable,
                consumer_location=consumer_location,
                exclude=exclude,
            )
