"""Fix Handles: 256-bit names for every object in the system.

The paper (section 3.2) specifies that every value in Fix is assigned a
unique deterministic Handle consisting of a truncated 192-bit BLAKE3 hash,
16 bits of metadata and type information, and a 48-bit size field, with
Blobs of 30 bytes or smaller inlined directly into the Handle ("literals").

This module reproduces that layout bit-for-bit.  The only substitution is
the hash function: BLAKE3 is not available offline, so we use BLAKE2b
truncated to 192 bits (``hashlib.blake2b(digest_size=24)``), which fills the
same role (collision-resistant content digest).  Digests are domain
separated: Blob and Tree contents never collide.

Packed layout (32 bytes, little-endian fields)::

    non-literal:  bytes[0:24]  = digest
                  bytes[24:30] = size (48-bit LE)
                  bytes[30:32] = metadata (16-bit LE)
    literal:      bytes[0:30]  = payload, zero padded
                  bytes[30:32] = metadata (length lives in the metadata)

Metadata bits::

    bit 0      content is a Tree (else a Blob)
    bit 1      inaccessible (Ref) - zero for accessible Objects
    bits 2-3   thunk style: 0 none, 1 application, 2 identification, 3 selection
    bits 4-5   encode style: 0 none, 1 strict, 2 shallow
    bit 6      literal (payload inlined)
    bits 8-12  literal length (0..30)
    others     reserved, must be zero

A Handle is a pure value: hashable, comparable, immutable.  Deriving a
Thunk from its definition, or an Encode from a Thunk, only re-tags the
metadata - the digest and size travel unchanged, which is what lets any
node parse a computation without consulting a scheduler.

Every field is set once, when the handle is made, and never recomputed
per read: the kind predicates (``is_literal``, ``is_tree``, ``is_encode``,
``is_data``, ``is_ref``, ``is_object``, ``is_thunk``) and the two styles
are plain slots, and so is the content key, ``key``.  The metadata is
checked by one table read: ``_FACTS`` holds, for each of the 152
metadata values the rules accept, the payload length and size range
they allow and the slot values, built at import by running the rules
(:func:`_refusal`) over every value of the known bits.  Anything else -
an unknown meta, a wrong payload length or size - is refused by running
the same rules one check at a time, so a refusal names the first rule
broken.  A derivation only re-tags: it copies the payload, size and
content key of the handle it derives from (no derivation touches the
Tree or literal bits those depend on), reads the new meta's slots from
the table, and returns the handle itself when no bit changes.  The 32
wire bytes are kept too: the frame :meth:`Handle.unpack` parsed, or the
bytes the first :meth:`Handle.pack` built.
"""

from __future__ import annotations

import enum
import hashlib
from typing import Optional

from .errors import HandleError

DIGEST_BYTES = 24  # 192 bits
HANDLE_BYTES = 32  # 256 bits; fits one AVX2 register in the original
LITERAL_MAX = 30  # blobs at most this size inline into the handle
SIZE_MAX = (1 << 48) - 1

_BLOB_PERSON = b"fix:blob"
_TREE_PERSON = b"fix:tree"

_META_TREE = 1 << 0
_META_REF = 1 << 1
_META_THUNK_SHIFT = 2
_META_THUNK_MASK = 0b11 << _META_THUNK_SHIFT
_META_ENCODE_SHIFT = 4
_META_ENCODE_MASK = 0b11 << _META_ENCODE_SHIFT
_META_LITERAL = 1 << 6
_META_LITLEN_SHIFT = 8
_META_LITLEN_MASK = 0b11111 << _META_LITLEN_SHIFT
_META_KNOWN = (
    _META_TREE
    | _META_REF
    | _META_THUNK_MASK
    | _META_ENCODE_MASK
    | _META_LITERAL
    | _META_LITLEN_MASK
)
#: The bits a handle's payload, size and content key depend on: a
#: re-tag that keeps them keeps all three.
_META_SHAPE = _META_TREE | _META_LITERAL | _META_LITLEN_MASK


class ThunkStyle(enum.IntEnum):
    """The three styles of deferred computation (paper section 3.1)."""

    NONE = 0
    APPLICATION = 1
    IDENTIFICATION = 2
    SELECTION = 3


class EncodeStyle(enum.IntEnum):
    """Strict and Shallow evaluation requests (paper section 3.2)."""

    NONE = 0
    STRICT = 1
    SHALLOW = 2


# The members indexed by their bits: a style is one tuple read.  Encode
# bits 0b11 index past the end, which is why ``Handle.__init__`` refuses
# them.
_THUNK_STYLES = tuple(ThunkStyle)
_ENCODE_STYLES = tuple(EncodeStyle)
_TREE_THUNKS = (int(ThunkStyle.APPLICATION), int(ThunkStyle.SELECTION))


def _refusal(payload: bytes, size: int, meta: int) -> Optional[str]:
    """The layout's rules, one check at a time: why ``(payload, size,
    meta)`` names no handle (the first rule broken), or None."""
    if meta & ~_META_KNOWN:
        return f"reserved metadata bits set: {meta:#06x}"
    if not 0 <= size <= SIZE_MAX:
        return f"size out of range: {size}"
    litlen = (meta & _META_LITLEN_MASK) >> _META_LITLEN_SHIFT
    if meta & _META_LITERAL:
        if meta & _META_TREE:
            return "literal handles are always Blobs"
        if meta & _META_REF:
            return "literal handles are always accessible"
        if len(payload) != litlen or litlen > LITERAL_MAX:
            return "literal payload/length mismatch"
        if size != litlen:
            return "literal size must equal its length"
    else:
        if litlen:
            return "literal length set on a non-literal handle"
        if len(payload) != DIGEST_BYTES:
            return f"digest must be {DIGEST_BYTES} bytes, got {len(payload)}"
    thunk = (meta & _META_THUNK_MASK) >> _META_THUNK_SHIFT
    encode = (meta & _META_ENCODE_MASK) >> _META_ENCODE_SHIFT
    if encode:
        if encode >= len(_ENCODE_STYLES):
            return f"encode bits {encode:#04b} name no EncodeStyle"
        if not thunk:
            return "an Encode must wrap a Thunk"
    if thunk in _TREE_THUNKS and not meta & _META_TREE:
        return "application/selection thunks refer to Trees"
    return None


def _facts(meta: int) -> Optional[tuple]:
    """What the rules say of ``meta``: None when they refuse it with
    every payload, else ``(payload length, least size, greatest size,
    content key tag, slot values)``; the slot values are in the order
    :meth:`Handle.__init__` assigns them."""
    literal = bool(meta & _META_LITERAL)
    litlen = (meta & _META_LITLEN_MASK) >> _META_LITLEN_SHIFT
    if literal:
        length, low, high = litlen, litlen, litlen
    else:
        length, low, high = DIGEST_BYTES, 0, SIZE_MAX
    if _refusal(bytes(length), low, meta) is not None:
        return None
    tree = bool(meta & _META_TREE)
    ref = bool(meta & _META_REF)
    thunk = (meta & _META_THUNK_MASK) >> _META_THUNK_SHIFT
    encode = (meta & _META_ENCODE_MASK) >> _META_ENCODE_SHIFT
    slots = (
        literal,
        tree,
        bool(encode),
        not thunk,
        ref and not thunk,
        not (ref or thunk),
        bool(thunk) and not encode,
        _THUNK_STYLES[thunk],
        _ENCODE_STYLES[encode],
    )
    return length, low, high, b"L" if literal else b"T" if tree else b"B", slots


def _table() -> dict:
    """Metadata value -> its :func:`_facts`, for every value the rules
    accept: each value up to the known bits is run through them once."""
    table = {}
    for meta in range(_META_KNOWN + 1):
        facts = _facts(meta)
        if facts is not None:
            table[meta] = facts
    return table


_FACTS = _table()


def blob_digest(data: bytes) -> bytes:
    """Domain-separated 192-bit digest of Blob contents."""
    return hashlib.blake2b(data, digest_size=DIGEST_BYTES, person=_BLOB_PERSON).digest()


def tree_digest(serialized_children: bytes) -> bytes:
    """Domain-separated 192-bit digest of a Tree's serialized handles."""
    return hashlib.blake2b(
        serialized_children, digest_size=DIGEST_BYTES, person=_TREE_PERSON
    ).digest()


class Handle:
    """An immutable 256-bit Fix handle.

    Construct via the classmethods (:meth:`blob`, :meth:`tree`,
    :meth:`literal`, :meth:`unpack`) rather than ``__init__``, which is
    internal and validates invariants.
    """

    #: ``_hash`` is the value :meth:`__hash__` computed and ``_packed``
    #: the wire bytes, each ``None`` until first needed: a handle is a
    #: dict key, and a child in a packed tree, many times over.  The
    #: slots from ``is_literal`` on are read from the meta's table row.
    __slots__ = (
        "_payload", "_size", "_meta", "_hash", "key", "_packed",
        "is_literal", "is_tree", "is_encode", "is_data", "is_ref",
        "is_object", "is_thunk", "thunk_style", "encode_style",
    )

    #: Storage key, the identity of the referenced datum: ``L`` + the
    #: payload for a literal, else ``T`` (Tree) or ``B`` (Blob) + the
    #: digest.  No view bit (Ref/Object, thunk and encode wrappers)
    #: changes it, so a repository stores each datum once.
    key: bytes
    is_literal: bool
    #: True when the referenced datum (or definition) is a Tree.
    is_tree: bool
    is_encode: bool
    #: True for plain data handles (Objects and Refs).
    is_data: bool
    #: True for inaccessible data (type/size visible, payload not).
    is_ref: bool
    #: True for accessible data (mappable by a codelet).
    is_object: bool
    #: True for bare Thunks (not wrapped in an Encode).
    is_thunk: bool
    thunk_style: ThunkStyle
    encode_style: EncodeStyle

    def __init__(self, payload: bytes, size: int, meta: int):
        facts = _FACTS.get(meta)
        if (
            facts is None
            or len(payload) != facts[0]
            or not facts[1] <= size <= facts[2]
        ):
            raise HandleError(_refusal(payload, size, meta))
        payload = bytes(payload)
        self._payload = payload
        self._size = size
        self._meta = meta
        self._hash = None
        self._packed = None
        self.key = facts[3] + payload
        (
            self.is_literal, self.is_tree, self.is_encode, self.is_data,
            self.is_ref, self.is_object, self.is_thunk, self.thunk_style,
            self.encode_style,
        ) = facts[4]

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def blob(cls, digest: bytes, size: int) -> "Handle":
        """Handle for an accessible out-of-line Blob of ``size`` bytes."""
        return cls(digest, size, 0)

    @classmethod
    def tree(cls, digest: bytes, length: int) -> "Handle":
        """Handle for an accessible Tree with ``length`` entries."""
        return cls(digest, length, _META_TREE)

    @classmethod
    def literal(cls, data: bytes) -> "Handle":
        """Handle with the Blob payload inlined (size <= 30 bytes)."""
        if len(data) > LITERAL_MAX:
            raise HandleError(f"literal blobs hold at most {LITERAL_MAX} bytes")
        meta = _META_LITERAL | (len(data) << _META_LITLEN_SHIFT)
        return cls(bytes(data), len(data), meta)

    @classmethod
    def of_blob(cls, data: bytes) -> "Handle":
        """Canonical handle for Blob contents: literal when small enough."""
        if len(data) <= LITERAL_MAX:
            return cls.literal(data)
        return cls.blob(blob_digest(data), len(data))

    # ------------------------------------------------------------------
    # Introspection

    @property
    def size(self) -> int:
        """Blob byte count, or Tree entry count, of the referenced datum."""
        return self._size

    @property
    def is_blob(self) -> bool:
        return not self.is_tree

    @property
    def digest(self) -> bytes:
        if self.is_literal:
            raise HandleError("literal handles carry no digest")
        return self._payload

    @property
    def literal_data(self) -> bytes:
        if not self.is_literal:
            raise HandleError("not a literal handle")
        return self._payload

    def byte_size(self) -> int:
        """Approximate wire size in bytes of the referenced datum."""
        if self.is_tree:
            return self._size * HANDLE_BYTES
        return self._size

    # ------------------------------------------------------------------
    # Derivations (re-tagging; digest and size are unchanged)

    def _with_meta(self, meta: int) -> "Handle":
        """This handle re-tagged with ``meta``: itself when no bit
        changes, else a copy of its payload, size and content key with
        the new meta's slots.  A meta the table lacks, or one that
        changes the bits those three depend on, is built (and refused)
        by ``__init__``."""
        old = self._meta
        if meta == old:
            return self
        facts = _FACTS.get(meta)
        if facts is None or (meta ^ old) & _META_SHAPE:
            return Handle(self._payload, self._size, meta)
        handle = object.__new__(Handle)
        handle._payload = self._payload
        handle._size = self._size
        handle._meta = meta
        handle._hash = None
        handle._packed = None
        handle.key = self.key
        (
            handle.is_literal, handle.is_tree, handle.is_encode, handle.is_data,
            handle.is_ref, handle.is_object, handle.is_thunk, handle.thunk_style,
            handle.encode_style,
        ) = facts[4]
        return handle

    def as_object(self) -> "Handle":
        """The accessible view of a data handle."""
        if not self.is_data:
            raise HandleError(f"{self!r} is not a data handle")
        return self._with_meta(self._meta & ~_META_REF)

    def as_ref(self) -> "Handle":
        """The inaccessible view of a data handle."""
        if not self.is_data:
            raise HandleError(f"{self!r} is not a data handle")
        if self.is_literal:
            # Literals are their own payload; hiding them gains nothing and
            # the ABI keeps them always accessible.
            return self
        return self._with_meta(self._meta | _META_REF)

    def _as_thunk(self, style: ThunkStyle) -> "Handle":
        if not self.is_data:
            raise HandleError("thunks are derived from data handles")
        meta = self._meta & ~(_META_REF | _META_THUNK_MASK | _META_ENCODE_MASK)
        return self._with_meta(meta | (style << _META_THUNK_SHIFT))

    def make_application(self) -> "Handle":
        """Application thunk whose definition is this Tree (paper fig. 1)."""
        if not self.is_tree:
            raise HandleError("application thunks are defined by Trees")
        return self._as_thunk(ThunkStyle.APPLICATION)

    def make_identification(self) -> "Handle":
        """Identification thunk: the identity function on this datum."""
        return self._as_thunk(ThunkStyle.IDENTIFICATION)

    def make_selection(self) -> "Handle":
        """Selection thunk whose definition is this Tree ([target, index])."""
        if not self.is_tree:
            raise HandleError("selection thunks are defined by Trees")
        return self._as_thunk(ThunkStyle.SELECTION)

    def _wrap(self, style: EncodeStyle) -> "Handle":
        if not self.is_thunk:
            raise HandleError("encodes wrap bare thunks")
        meta = self._meta & ~_META_ENCODE_MASK
        return self._with_meta(meta | (style << _META_ENCODE_SHIFT))

    def wrap_strict(self) -> "Handle":
        return self._wrap(EncodeStyle.STRICT)

    def wrap_shallow(self) -> "Handle":
        return self._wrap(EncodeStyle.SHALLOW)

    def unwrap_encode(self) -> "Handle":
        """The Thunk inside an Encode."""
        if not self.is_encode:
            raise HandleError("not an encode handle")
        return self._with_meta(self._meta & ~_META_ENCODE_MASK)

    def definition(self) -> "Handle":
        """The data handle a Thunk (or Encode) was derived from.

        For an Application or Selection thunk this names the describing
        Tree; for an Identification thunk, the datum itself.  The result is
        an accessible Object view.
        """
        if self.is_data:
            raise HandleError("only thunks/encodes have definitions")
        meta = self._meta & ~(_META_THUNK_MASK | _META_ENCODE_MASK | _META_REF)
        return self._with_meta(meta)

    # ------------------------------------------------------------------
    # Packing

    def pack(self) -> bytes:
        """Serialize to the 32-byte wire representation (built once)."""
        packed = self._packed
        if packed is None:
            if self.is_literal:
                body = self._payload + b"\x00" * (LITERAL_MAX - len(self._payload))
            else:
                body = self._payload + self._size.to_bytes(6, "little")
            packed = self._packed = body + self._meta.to_bytes(2, "little")
        return packed

    @classmethod
    def unpack(cls, raw: bytes) -> "Handle":
        """Parse a 32-byte wire representation."""
        if len(raw) != HANDLE_BYTES:
            raise HandleError(f"handles are {HANDLE_BYTES} bytes, got {len(raw)}")
        meta = int.from_bytes(raw[30:32], "little")
        if meta & ~_META_KNOWN:
            raise HandleError(f"reserved metadata bits set: {meta:#06x}")
        if meta & _META_LITERAL:
            litlen = (meta & _META_LITLEN_MASK) >> _META_LITLEN_SHIFT
            if any(raw[litlen:LITERAL_MAX]):
                raise HandleError("literal padding must be zero")
            handle = cls(raw[:litlen], litlen, meta)
        else:
            size = int.from_bytes(raw[24:30], "little")
            handle = cls(raw[:DIGEST_BYTES], size, meta)
        handle._packed = bytes(raw)
        return handle

    # ------------------------------------------------------------------
    # Value semantics

    def __eq__(self, other) -> bool:
        if not isinstance(other, Handle):
            return NotImplemented
        return (
            self._meta == other._meta
            and self._size == other._size
            and self._payload == other._payload
        )

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self._payload, self._size, self._meta))
        return value

    def __repr__(self) -> str:
        kind = self._describe_kind()
        if self.is_literal:
            return f"<Handle {kind} literal={self._payload!r}>"
        return f"<Handle {kind} {self._payload[:4].hex()}… size={self._size}>"

    def _describe_kind(self) -> str:
        parts = []
        if self.is_encode:
            parts.append(self.encode_style.name.lower())
        if self.thunk_style is not ThunkStyle.NONE:
            parts.append(self.thunk_style.name.lower())
        parts.append("tree" if self.is_tree else "blob")
        if self.is_data:
            parts.append("ref" if self.is_ref else "object")
        return ":".join(parts)
