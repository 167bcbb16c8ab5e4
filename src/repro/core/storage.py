"""The runtime storage: a content-addressed repository of Fix data.

Maps Blobs and Trees to their contents and Encodes to their evaluation
results (paper section 4.2.1: "a runtime storage that maps from Blobs and
Trees to their data and from Encodes to evaluation results").  The store is
thread-safe - a Fixpoint's callers and serve threads share one repository.

Memoization of Encode results is what makes repeated evaluation cheap and
is the hook for the paper's "computational garbage collection" future-work
item: a datum whose producing Encode is remembered can be dropped and
recomputed on demand (see :meth:`Repository.forget_data`).
"""

from __future__ import annotations

import itertools
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..analysis.sync import TrackedRLock
from .data import Blob, Datum, Tree
from .errors import HandleError, MissingObjectError
from .handle import Handle


def _wire_size(datum: Datum) -> int:
    """A stored datum's wire size: what ``datum.handle().byte_size()``
    returns, read off its length instead of its hash."""
    return len(datum.data) if isinstance(datum, Blob) else datum.byte_size()


def _stored_handle(key: bytes, datum: Datum) -> Handle:
    """A stored datum's canonical handle, built from its content key and
    its length instead of its hash."""
    if isinstance(datum, Blob):
        return Handle.blob(key[1:], len(datum.data))
    return Handle.tree(key[1:], len(datum.children))


class Repository:
    """Thread-safe content-addressed store for Blobs, Trees, and results.

    Every stored datum is keyed by its content key and ranked at first
    store by a counter that only grows, so the store can answer by key
    (:meth:`handles_of`, :meth:`held_sizes`) or by rank
    (:meth:`sizes_after`: what was stored since a watermark) without
    walking or hashing what it holds."""

    def __init__(self, name: str = "repo"):
        self.name = name
        self._lock = TrackedRLock("Repository._lock")
        self._data: Dict[bytes, Datum] = {}
        # Each stored key's first-stored rank, from a counter never
        # reused; dropped with its datum, so a re-put ranks last - the
        # order ``_data`` iterates in.  ``handles_of`` sorts by it, and
        # ``sizes_after`` lists what was stored above a watermark.
        self._rank: Dict[bytes, int] = {}
        self._ranks = itertools.count()
        self._results: Dict[Handle, Handle] = {}

    def _store(self, key: bytes, datum: Datum) -> None:
        """The one insert, under the lock: ``key`` is ``datum``'s
        computed content key.  A held key keeps its datum and rank."""
        if key not in self._data:
            self._data[key] = datum
            self._rank[key] = next(self._ranks)

    def _keep(self, datum: Datum, handle: Handle) -> Handle:
        """Store ``datum`` under ``handle``, the handle computed from it;
        a literal is not stored - its handle carries the payload."""
        if not handle.is_literal:
            with self._lock:
                self._store(handle.key, datum)
        return handle

    # ------------------------------------------------------------------
    # Data

    def put_blob(self, data: bytes) -> Handle:
        """Store Blob contents; returns the canonical (Object) handle.

        Blobs small enough to be literals are not stored at all - their
        handle carries the payload.
        """
        blob = Blob(data)
        return self._keep(blob, blob.handle())

    def put_tree(self, children) -> Handle:
        """Store a Tree of handles; returns the canonical (Object) handle."""
        tree = Tree(children)
        return self._keep(tree, tree.handle())

    def put(self, datum: Datum) -> Handle:
        if isinstance(datum, (Blob, Tree)):
            return self._keep(datum, datum.handle())
        raise HandleError(f"cannot store {type(datum)}")

    def put_verified(self, datum: Datum, claimed: Handle) -> bool:
        """Store ``datum`` only if it is the referent of ``claimed``.

        The datum is hashed once: on a match it is stored under the key
        just computed, on a mismatch nothing is stored.  Returns whether
        it matched."""
        handle = datum.handle()
        if handle.key != claimed.key:
            return False
        self._keep(datum, handle)
        return True

    def contains(self, handle: Handle) -> bool:
        if handle.is_literal:
            return True
        with self._lock:
            return handle.key in self._data

    def get(self, handle: Handle) -> Datum:
        """The referent of ``handle``, regardless of its view bits.

        Literal handles materialize a Blob from their payload.  Raises
        :class:`MissingObjectError` when absent.
        """
        if handle.is_literal:
            return Blob(handle.literal_data)
        with self._lock:
            datum = self._data.get(handle.key)
        if datum is None:
            raise MissingObjectError(handle, self.name)
        return datum

    def get_blob(self, handle: Handle) -> Blob:
        datum = self.get(handle)
        if not isinstance(datum, Blob):
            raise HandleError(f"{handle!r} does not name a Blob")
        return datum

    def get_tree(self, handle: Handle) -> Tree:
        datum = self.get(handle)
        if not isinstance(datum, Tree):
            raise HandleError(f"{handle!r} does not name a Tree")
        return datum

    # ------------------------------------------------------------------
    # Encode results (memoization)

    def put_result(self, encode: Handle, result: Handle) -> None:
        """Remember that evaluating ``encode`` produced ``result``."""
        if not encode.is_encode:
            raise HandleError("results are keyed by Encode handles")
        with self._lock:
            self._results[encode] = result

    def get_result(self, encode: Handle) -> Optional[Handle]:
        with self._lock:
            return self._results.get(encode)

    # ------------------------------------------------------------------
    # Introspection / maintenance

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def result_count(self) -> int:
        with self._lock:
            return len(self._results)

    def data_bytes(self) -> int:
        """Total stored payload bytes (blobs) plus tree handle bytes."""
        with self._lock:
            return sum(map(_wire_size, self._data.values()))

    def sizes_after(self, rank: int) -> Tuple[List[Tuple[bytes, int]], int]:
        """``(content key, wire size)`` of every stored datum ranked
        above ``rank``, in first-stored order, and the highest rank
        stored (``rank`` when nothing is above it).

        Ranks only grow and ``_data`` iterates in rank order, so this is
        a scan back from the newest datum that stops at the first one
        ranked at or below ``rank``: O(news), not O(store).  ``-1``
        lists the whole store.  Nothing is hashed: the store's key *is*
        the content key."""
        with self._lock:
            ranks = self._rank
            news = []
            for key, datum in reversed(self._data.items()):
                if ranks[key] <= rank:
                    break
                news.append((key, _wire_size(datum)))
            if news:
                rank = ranks[news[0][0]]
                news.reverse()
            return news, rank

    def held_sizes(self, keys: Iterable[bytes]) -> Dict[bytes, int]:
        """Content key -> wire size for each of ``keys`` that is stored:
        one pass over ``keys``, not the store, and nothing is hashed."""
        with self._lock:
            data = self._data
            return {k: _wire_size(data[k]) for k in keys if k in data}

    def handles_of(self, keys: AbstractSet[bytes]) -> List[Handle]:
        """Canonical handles of the stored data whose content key is in
        ``keys``, in first-stored order.  Only ``keys`` are looked up,
        then sorted by rank - the store is not walked - and each handle
        is built from its key and its datum's length, nothing hashed:
        every writer of the store keys a datum by its computed content
        key."""
        with self._lock:
            data, rank = self._data, self._rank
            held = sorted(filter(rank.__contains__, keys), key=rank.__getitem__)
            return [_stored_handle(key, data[key]) for key in held]

    def handles(self) -> Iterator[Handle]:
        """Canonical handles of every stored datum (snapshot), each
        re-derived by serialising and hashing its datum.

        Only :func:`repro.core.gc.collect` still walks the whole store
        this way; the tests keep it as the independent reference that
        :meth:`handles_of`, :meth:`sizes_after` and :meth:`held_sizes`
        are checked against."""
        with self._lock:
            data = list(self._data.values())
        for datum in data:
            yield datum.handle()

    def forget_data(self, handle: Handle) -> bool:
        """Drop a datum while keeping memoized results.

        Models "delayed-availability" storage from the paper's future-work
        discussion: the provider may delete an object it knows how to
        recompute.  Returns True when something was removed.
        """
        if handle.is_literal:
            return False
        key = handle.key
        with self._lock:
            self._rank.pop(key, None)
            return self._data.pop(key, None) is not None

    def absorb(self, other: "Repository") -> None:
        """Copy every datum and result from ``other`` into this repository."""
        with other._lock:
            data = dict(other._data)
            results = dict(other._results)
        with self._lock:
            for key, datum in data.items():
                self._store(key, datum)
            self._results.update(results)
