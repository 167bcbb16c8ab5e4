"""Fix Data: Blobs and Trees (paper section 3.1).

A Blob is a region of memory (bytes); a Tree is an ordered collection of
Handles.  Both are immutable values with a canonical serialization, from
which their content handles are derived.  The in-memory representation
mirrors the paper's "efficient format that minimizes copying": a Blob is a
single ``bytes`` object; a Tree is a tuple of :class:`~repro.core.handle.Handle`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .errors import HandleError
from .handle import HANDLE_BYTES, Handle, tree_digest


class Blob:
    """An immutable byte region."""

    __slots__ = ("_data",)

    def __init__(self, data: bytes):
        self._data = bytes(data)

    @property
    def data(self) -> bytes:
        return self._data

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Blob):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash((Blob, self._data))

    def serialize(self) -> bytes:
        return self._data

    def handle(self) -> Handle:
        """Canonical handle: a literal when at most 30 bytes."""
        return Handle.of_blob(self._data)

    def __repr__(self) -> str:
        head = self._data[:16]
        return f"Blob({head!r}{'…' if len(self._data) > 16 else ''}, len={len(self._data)})"


class Tree:
    """An immutable ordered sequence of Handles."""

    __slots__ = ("_children",)

    def __init__(self, children: Iterable[Handle]):
        children = tuple(children)
        for child in children:
            if not isinstance(child, Handle):
                raise HandleError(f"tree entries must be Handles, got {type(child)}")
        self._children = children

    @property
    def children(self) -> tuple[Handle, ...]:
        return self._children

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator[Handle]:
        return iter(self._children)

    def __getitem__(self, index):
        return self._children[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self._children == other._children

    def __hash__(self) -> int:
        return hash((Tree, self._children))

    def serialize(self) -> bytes:
        """Concatenation of the packed 32-byte child handles."""
        return b"".join(child.pack() for child in self._children)

    @classmethod
    def deserialize(cls, raw: bytes) -> "Tree":
        if len(raw) % HANDLE_BYTES:
            raise HandleError("tree serialization must be a multiple of 32 bytes")
        children = [
            Handle.unpack(raw[i : i + HANDLE_BYTES])
            for i in range(0, len(raw), HANDLE_BYTES)
        ]
        return cls(children)

    def handle(self) -> Handle:
        return Handle.tree(tree_digest(self.serialize()), len(self._children))

    def byte_size(self) -> int:
        return len(self._children) * HANDLE_BYTES

    def __repr__(self) -> str:
        return f"Tree(len={len(self._children)})"


Datum = Union[Blob, Tree]


def verify(datum: Datum, handle: Handle) -> bool:
    """Check that ``datum`` is the referent of ``handle`` (same content key)."""
    return datum.handle().content_key() == handle.content_key()
