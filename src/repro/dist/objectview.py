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

Long-lived views also :meth:`compact`: within one origin's log, only
the *latest* entry per ``(name, location)`` carries current belief, so
superseded entries can be dropped without changing what any delta
conveys (the caps cover the dropped versions, and ascending order is
preserved - a subsequence of an ascending list is ascending).
Compaction triggers automatically once the log outgrows the live belief
set, which is what keeps view memory bounded under churn.

Crucially the view is *never invalidated*: a replica created after the
last observation is simply unknown, and :meth:`bytes_missing` prices a
placement using beliefs, not ground truth.  Staleness costs only
performance (a redundant transfer), never correctness - the same
property the paper's design leans on.

Every observation also maintains an inverted *holdings index*
(machine -> believed names, plus believed sizes), so "what does machine
M hold" is one lookup, and pricing is a single pass over the inputs -
:meth:`bid` (the believed holders only: both drivers' one placement
path, see :mod:`repro.dist.costmodel`) or :meth:`bytes_missing_many`
/ :meth:`price_moves` (the same pass laid out over every machine) - so
the fig. 10 link task (1,987 inputs) does not pay O(machines x inputs)
per placement.

The view is internally locked: the executing runtime's asynchronous
delegation (:mod:`repro.fixpoint.net`) absorbs replies on serving
threads, so :meth:`learn`/:meth:`forget` race with :meth:`bid` on the
dispatching thread.  Every public method holds the view's RLock,
which in particular keeps the whole one-pass pricing atomic with
respect to concurrent observations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Container,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..analysis.sync import TrackedRLock
from . import costmodel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cluster import Cluster

_NOTHING: frozenset = frozenset()

#: Wire-size accounting constants (mirrored by the real serialization in
#: :mod:`repro.dist.gossip`): a u32 count, u16 length prefixes, u64
#: versions/sizes, and one tag byte per variable-width field.
_COUNT_BYTES = 4
_LEN_BYTES = 2
_U64_BYTES = 8


def _name_wire_weight(name: Hashable) -> int:
    """Bytes a name occupies on the wire (str/bytes exactly, else flat)."""
    if isinstance(name, bytes):
        return len(name)
    if isinstance(name, str):
        return len(name.encode("utf-8"))
    return _U64_BYTES


@lru_cache(maxsize=4096)
def _node_wire_weight(node: str) -> int:
    """UTF-8 bytes of an origin id or a location - memoised, a cluster
    has a handful and every handshake asks about the same ones (object
    names are unbounded, so not those)."""
    return len(node.encode("utf-8"))


def _caps_wire_bytes(versions: Dict[str, int]) -> int:
    """Bytes of the per-origin ``[u16 len][origin][u64 cap]`` rows."""
    return (_LEN_BYTES + _U64_BYTES) * len(versions) + sum(
        map(_node_wire_weight, versions)
    )


#: One versioned belief: ``(origin, version, name, location, size)``.
#: ``origin`` is the node that *first* recorded the belief; the stamp
#: travels with the entry through any number of merge hops.
Entry = Tuple[str, int, Hashable, str, Optional[int]]

#: ``bisect`` key: the version of a log row ``(version, name, ...)``.
_VERSION = itemgetter(0)


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

    def covers(self, origin: str, version: int) -> bool:
        return version <= self.versions.get(origin, 0)

    def wire_bytes(self) -> int:
        """``len(pack_digest(self))`` (the codec is in repro.dist.gossip)
        without running it.  Computed on the first call and kept with
        the value: a digest never changes once built, so nothing
        invalidates it - a view that moved hands out a new one."""
        size = self._wire_bytes
        if size is None:
            size = _COUNT_BYTES + _caps_wire_bytes(self.versions)
            object.__setattr__(self, "_wire_bytes", size)  # frozen
        return size


#: The digest of a view that has seen nothing: a delta against it is the
#: sender's full state (the bootstrap, and the bench's full-state baseline).
EMPTY_DIGEST = Digest()


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
        # Fixed-width fields by count (per entry: origin length and
        # version, name tag and length, location length, size flag),
        # then the variable ones by weight.
        total = (
            2 * _COUNT_BYTES
            + _caps_wire_bytes(self.versions)
            + (3 * _LEN_BYTES + _U64_BYTES + 2) * len(self.entries)
        )
        for origin, _version, name, location, size in self.entries:
            total += (
                _node_wire_weight(origin)
                + _name_wire_weight(name)
                + _node_wire_weight(location)
                + (_U64_BYTES if size is not None else 0)
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
        #: Reentrant so :meth:`bid` can hold the lock across the
        #: whole pricing pass while its locations callable re-enters.
        self._lock = TrackedRLock("ObjectView._lock")
        self._locations: Dict[Hashable, Set[str]] = {}
        #: Inverted index, maintained by every observation: machine ->
        #: names believed held there.
        self._holdings: Dict[str, Set[Hashable]] = {}
        #: Believed sizes, recorded whenever an observation carried one
        #: (cluster snapshots always do; wire traffic carries handle sizes).
        self._sizes: Dict[Hashable, int] = {}
        #: Anti-entropy state.  ``_vector`` is this view's digest: the
        #: highest version covered per origin.  ``_log`` keeps the
        #: entries themselves, ascending per origin, so a delta for any
        #: peer digest is a binary search plus a tail slice - and the
        #: only record of who asserted which (name, location), so a
        #: retraction reads it rather than a second index that could
        #: disagree with what deltas ship.
        self._vector: Dict[str, int] = {}
        #: ``_vector`` as :meth:`digest` last handed it out; ``None``
        #: once ``_vector`` has moved since.
        self._digest: Optional[Digest] = None
        self._log: Dict[str, List[Tuple[int, Hashable, str, Optional[int]]]] = {}
        #: Tombstoned locations (membership-confirmed dead): beliefs
        #: about them are purged and can never be re-learned.
        self._evicted: Set[str] = set()
        #: Bounded-growth bookkeeping, each what ``stats()`` reports:
        #: log entries (kept across record/forget/evict/compact),
        #: believed (name, location) pairs - each is in some log, so
        #: this is the live set the compaction trigger weighs the log
        #: against - and compactions run (the churn bench asserts it).
        self._log_total = 0
        self._replicas = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # Observation

    def learn(
        self, name: Hashable, location: str, size: Optional[int] = None
    ) -> None:
        """Record that ``location`` holds a replica of ``name``.

        The single write path: the forward map, the holdings index, and
        the size index advance together, so they can never disagree.
        Genuinely *new* information (a new replica belief, or a size the
        view had wrong) is also stamped with this view's next version so
        anti-entropy can forward exactly it; re-learning what is already
        believed stamps nothing - repeat observations stay free on the
        gossip wire.
        """
        with self._lock:
            if location in self._evicted:
                return  # tombstoned: the location is gone, not stale
            locations = self._locations.setdefault(name, set())
            already_known = location in locations
            size_is_news = size is not None and self._sizes.get(name) != size
            if not already_known:
                locations.add(location)
                self._replicas += 1
            self._holdings.setdefault(location, set()).add(name)
            if size is not None:
                self._sizes[name] = size
            if already_known and not size_is_news:
                return
            if self._clock is not None:
                self.last_advance = self._clock()
            self._record(self._origin, self._vector.get(self._origin, 0) + 1,
                         name, location, size)

    def _record(
        self,
        origin: str,
        version: int,
        name: Hashable,
        location: str,
        size: Optional[int],
    ) -> None:
        """Append one stamped entry to the log (lock held by caller).

        Versions only ever grow past the current cap (learn increments
        it, merge skips covered versions), so per-origin logs stay
        ascending by construction.
        """
        self._vector[origin] = max(self._vector.get(origin, 0), version)
        self._digest = None
        self._log.setdefault(origin, []).append((version, name, location, size))
        self._log_total += 1
        # Bounded growth: once the log clearly outweighs the live belief
        # set (superseded re-learns, churned replicas), fold it down.
        if self._log_total >= 64 and self._log_total > 4 * max(
            1, self._replicas
        ):
            self._compact_locked()

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
        would ship is the only thing a retraction may go by.
        """
        with self._lock:
            locations = self._locations.get(name, _NOTHING)
            if location not in locations:
                return  # every logged pair is believed: nothing to strip
            corroborated = False
            for origin, log in self._log.items():
                if origin in self._own_origins:
                    kept = [e for e in log if e[1] != name or e[2] != location]
                    self._log_total -= len(log) - len(kept)
                    self._log[origin] = kept
                elif not corroborated:
                    corroborated = any(
                        e[1] == name and e[2] == location for e in log
                    )
            if corroborated:
                return  # the belief outlives the rollback of our own say
            locations.discard(location)
            self._replicas -= 1
            if not locations:
                del self._locations[name]
            self._holdings[location].discard(name)

    def evict(self, location: str) -> int:
        """Tombstone ``location``: purge every belief about it, until
        (if ever) membership readmits it at a higher incarnation.

        The membership-driven retraction (a confirmed-dead node from
        :mod:`repro.dist.membership`): unlike :meth:`forget`, which
        rolls back one optimistic assertion, eviction removes the
        location from the forward map, the holdings index, the
        anti-entropy *logs of every origin* (so it is never gossiped
        onward from here), and gates :meth:`learn`/:meth:`merge_delta`
        so late-arriving entries about it are dropped on the floor -
        the tombstone shadows the holdings regardless of delivery
        order.  Version caps are deliberately kept: this view still
        *covers* the purged versions, so no peer ever re-sends them.

        Sizes are kept (per-object knowledge, true regardless of which
        replica died).  Returns how many name-beliefs were purged - the
        holdings set popped, which is also what the believed-pair count
        drops by; idempotent - a second eviction returns 0.
        """
        with self._lock:
            if location in self._evicted:
                return 0
            self._evicted.add(location)
            names = self._holdings.pop(location, set())
            for name in names:
                locations = self._locations.get(name)
                if locations is not None:
                    locations.discard(location)
                    if not locations:
                        del self._locations[name]
            for origin, log in self._log.items():
                kept = [entry for entry in log if entry[2] != location]
                if len(kept) != len(log):
                    self._log_total -= len(log) - len(kept)
                    self._log[origin] = kept
            self._replicas -= len(names)
            return len(names)

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
            self._own_origins.add(self._origin)
            restamped = 0
            held = sorted(self._holdings.get(self.node, ()), key=repr)
            for name in held:
                self._record(
                    self._origin,
                    self._vector.get(self._origin, 0) + 1,
                    name,
                    self.node,
                    self._sizes.get(name),
                )
                restamped += 1
            return restamped

    def is_evicted(self, location: str) -> bool:
        with self._lock:
            return location in self._evicted

    def evicted(self) -> Set[str]:
        """Tombstoned locations (a copy) - the placement exclusion set."""
        with self._lock:
            return set(self._evicted)

    def where(self, name: Hashable) -> Set[str]:
        """Believed replica locations (empty set when unknown)."""
        with self._lock:
            return set(self._locations.get(name, ()))

    def knows(self, name: Hashable, location: str) -> bool:
        with self._lock:
            return name in self._holdings.get(location, _NOTHING)

    def holdings(self, location: str) -> Set[Hashable]:
        """Everything ``location`` is believed to hold (a copy)."""
        with self._lock:
            return set(self._holdings.get(location, ()))

    def known_locations(self) -> List[str]:
        """Locations believed to hold *anything* - gossip-learned
        membership: names can arrive from peers this view's node never
        talked to directly."""
        with self._lock:
            return [loc for loc, names in self._holdings.items() if names]

    def snapshot(self) -> Dict[Hashable, frozenset]:
        """The belief state as a comparable value (name -> locations).

        Two views are *converged* exactly when their snapshots are
        equal - the convergence check the gossip coordinator and the
        property tests use.
        """
        with self._lock:
            return {
                name: frozenset(locs)
                for name, locs in self._locations.items()
                if locs
            }

    def believed_size(self, name: Hashable) -> int:
        """The last observed size of ``name`` (0 when unseen)."""
        with self._lock:
            return self._sizes.get(name, 0)

    def bytes_held(self, location: str) -> int:
        """Believed bytes resident at ``location`` (the size index)."""
        with self._lock:
            return sum(
                self._sizes.get(name, 0)
                for name in self._holdings.get(location, _NOTHING)
            )

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
        """Size-of-belief gauges the obs registry samples at export."""
        with self._lock:
            return {
                "entries": len(self._locations),
                "replicas": self._replicas,
                "log_entries": self._log_total,
                "origins": len(self._vector),
                "evicted": len(self._evicted),
                "compactions": self._compactions,
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
        for name, info in cluster.objects.items():
            if self.node in info.locations:
                self.learn(name, self.node, info.size)

    # ------------------------------------------------------------------
    # Anti-entropy: digest, delta, merge

    def compact(self) -> int:
        """Fold each origin's log down to its current-belief entries.

        Within one origin's ascending log, only the *latest* entry per
        ``(name, location)`` carries that origin's current assertion -
        earlier entries are superseded, and every delta that would have
        shipped them also ships the cap that covers them, so dropping
        them changes no receiver's final state (property-tested:
        compaction is transparent to the merge algebra).  Keeping a
        subsequence preserves ascending order, so :meth:`delta_since`'s
        binary search stays valid.  Every believed pair keeps an entry
        in each log that asserted it, so :meth:`forget` finds the same
        origins before and after.  Returns entries dropped.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        dropped = 0
        for origin, log in self._log.items():
            if len(log) <= 1:
                continue
            latest: Dict[Tuple[Hashable, str], int] = {}
            for index, (_version, name, location, _size) in enumerate(log):
                latest[(name, location)] = index
            if len(latest) == len(log):
                continue
            keep = set(latest.values())
            self._log[origin] = [
                entry for index, entry in enumerate(log) if index in keep
            ]
            dropped += len(log) - len(keep)
        if dropped:
            self._log_total -= dropped
            self._compactions += 1
        return dropped

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
        search plus a slice.  Entries forwarded keep their original
        origin stamp, so a third party can tell what it already covers.
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
                tail = bisect_right(log, covered(origin, 0), key=_VERSION)
                for version, name, location, size in log[tail:]:
                    entries.append((origin, version, name, location, size))
            return Delta(tuple(entries), caps)

    def merge_delta(self, delta: Delta) -> int:
        """Apply a peer's delta; returns how many entries were news.

        Idempotent by version: an entry whose stamp is already covered
        is skipped, so replayed/overlapping deltas (concurrent gossip
        rounds) cannot double-apply.  Accepted entries are re-logged
        under their *original* origin, which is what lets this view
        serve them onward - the transitive spread gossip relies on.
        Finally the version caps advance coverage even across entries
        the sender had forgotten (gaps ship no tombstone).  An empty
        delta is nothing to apply and returns without taking the lock.
        """
        if delta.is_empty:
            return 0
        with self._lock:
            applied = 0
            for origin, version, name, location, size in delta.entries:
                if version <= self._vector.get(origin, 0):
                    continue  # already covered: idempotence
                if location in self._evicted:
                    # Tombstone shadows the entry: drop the belief but
                    # let the caps below advance coverage past it, so
                    # the sender never re-offers it either.
                    continue
                locations = self._locations.setdefault(name, set())
                if location not in locations:
                    locations.add(location)
                    self._replicas += 1
                self._holdings.setdefault(location, set()).add(name)
                if size is not None:
                    self._sizes[name] = size
                self._record(origin, version, name, location, size)
                applied += 1
            for origin, top in delta.versions.items():
                if top > self._vector.get(origin, 0):
                    self._vector[origin] = top
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
            held = self._holdings.get(machine, _NOTHING)
            return sum(
                cluster.object(name).size
                for name in names
                if name not in held
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
        """
        with self._lock:
            return costmodel.price_moves(needs, self._believed, candidates)

    def bid(
        self,
        needs: Iterable[Tuple[Hashable, int]],
        candidates: Collection[str],
        *,
        unshippable: Collection[Hashable] = (),
        consumer_location: Optional[str] = None,
        exclude: Optional[Container[str]] = None,
    ) -> Tuple[Collection[str], Callable[[str], int]]:
        """:func:`repro.dist.costmodel.bid` over these beliefs, with the
        lock held across both of its passes and the consumption of
        ``needs``: no belief changes mid-quote."""
        with self._lock:
            return costmodel.bid(
                needs,
                self._believed,
                candidates,
                unshippable=unshippable,
                consumer_location=consumer_location,
                exclude=exclude,
            )

    def _believed(self, name: Hashable) -> Iterable[str]:
        """Believed holders of ``name``, uncopied (lock held by caller)."""
        return self._locations.get(name, _NOTHING)
