"""The runtime storage: a content-addressed repository of Fix data.

Maps Blobs and Trees to their contents and Encodes to their evaluation
results (paper section 4.2.1: "a runtime storage that maps from Blobs and
Trees to their data and from Encodes to evaluation results").  The store is
thread-safe - Fixpoint worker threads share one repository.

Memoization of Encode results is what makes repeated evaluation cheap and
is the hook for the paper's "computational garbage collection" future-work
item: a datum whose producing Encode is remembered can be dropped and
recomputed on demand (see :meth:`Repository.forget_data`).
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, Iterator, List, Optional, Tuple

from ..analysis.sync import TrackedRLock
from .data import Blob, Datum, Tree
from .errors import HandleError, MissingObjectError
from .handle import Handle


def _wire_size(datum: Datum) -> int:
    """A stored datum's wire size: what ``datum.handle().byte_size()``
    returns, read off its length instead of its hash."""
    return len(datum.data) if isinstance(datum, Blob) else datum.byte_size()


class Repository:
    """Thread-safe content-addressed store for Blobs, Trees, and results."""

    def __init__(self, name: str = "repo"):
        self.name = name
        self._lock = TrackedRLock("Repository._lock")
        self._data: Dict[bytes, Datum] = {}
        self._results: Dict[Handle, Handle] = {}

    # ------------------------------------------------------------------
    # Data

    def put_blob(self, data: bytes) -> Handle:
        """Store Blob contents; returns the canonical (Object) handle.

        Blobs small enough to be literals are not stored at all - their
        handle carries the payload.
        """
        blob = Blob(data)
        handle = blob.handle()
        if not handle.is_literal:
            with self._lock:
                self._data.setdefault(handle.content_key(), blob)
        return handle

    def put_tree(self, children) -> Handle:
        """Store a Tree of handles; returns the canonical (Object) handle."""
        tree = Tree(children)
        handle = tree.handle()
        with self._lock:
            self._data.setdefault(handle.content_key(), tree)
        return handle

    def put(self, datum: Datum) -> Handle:
        if isinstance(datum, Blob):
            return self.put_blob(datum.data)
        if isinstance(datum, Tree):
            return self.put_tree(datum.children)
        raise HandleError(f"cannot store {type(datum)}")

    def contains(self, handle: Handle) -> bool:
        if handle.is_literal:
            return True
        with self._lock:
            return handle.content_key() in self._data

    def get(self, handle: Handle) -> Datum:
        """The referent of ``handle``, regardless of its view bits.

        Literal handles materialize a Blob from their payload.  Raises
        :class:`MissingObjectError` when absent.
        """
        if handle.is_literal:
            return Blob(handle.literal_data)
        with self._lock:
            datum = self._data.get(handle.content_key())
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

    def sizes_beyond(self, known: Container[bytes]) -> List[Tuple[bytes, int]]:
        """``(content key, wire size)`` of every stored datum whose key is
        not in ``known``, in first-stored order.  Nothing is hashed: the
        store's key *is* the content key."""
        with self._lock:
            return [
                (key, _wire_size(datum))
                for key, datum in self._data.items()
                if key not in known
            ]

    def held_sizes(self, keys: Iterable[bytes]) -> Dict[bytes, int]:
        """Content key -> wire size for each of ``keys`` that is stored:
        one pass over ``keys``, not the store, and nothing is hashed."""
        with self._lock:
            data = self._data
            return {k: _wire_size(data[k]) for k in keys if k in data}

    def handles_of(self, keys: Container[bytes]) -> List[Handle]:
        """Canonical handles of the stored data whose content key is in
        ``keys``, in first-stored order.  Each is built from its key and
        its datum's length, nothing hashed: every writer of the store
        keys a datum by its computed content key."""
        with self._lock:
            return [
                Handle.blob(key[1:], len(datum.data))
                if isinstance(datum, Blob)
                else Handle.tree(key[1:], len(datum.children))
                for key, datum in self._data.items()
                if key in keys
            ]

    def handles(self) -> Iterator[Handle]:
        """Canonical handles of every stored datum (snapshot), each
        re-derived by serialising and hashing its datum.

        Only :func:`repro.core.gc.collect` still walks the whole store
        this way; the tests keep it as the independent reference that
        :meth:`handles_of`, :meth:`sizes_beyond` and :meth:`held_sizes`
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
        with self._lock:
            return self._data.pop(handle.content_key(), None) is not None

    def absorb(self, other: "Repository") -> None:
        """Copy every datum and result from ``other`` into this repository."""
        with other._lock:
            data = dict(other._data)
            results = dict(other._results)
        with self._lock:
            for key, datum in data.items():
                self._data.setdefault(key, datum)
            self._results.update(results)
