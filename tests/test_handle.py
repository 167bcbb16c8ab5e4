"""Unit and property tests for the 256-bit Fix Handle layout."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import HandleError
from repro.core.handle import (
    DIGEST_BYTES,
    HANDLE_BYTES,
    LITERAL_MAX,
    EncodeStyle,
    Handle,
    ThunkStyle,
    _META_KNOWN,
    blob_digest,
    tree_digest,
)
from repro.core.serialize import MAGIC, decode_bundle
from repro.core.storage import Repository
from repro.fixpoint.net import pack_reply, unpack_reply


def make_blob_handle(data: bytes = b"x" * 100) -> Handle:
    return Handle.blob(blob_digest(data), len(data))


def make_tree_handle(n: int = 3) -> Handle:
    return Handle.tree(tree_digest(b"\x00" * 32 * n), n)


class TestLiterals:
    def test_small_blob_is_literal(self):
        handle = Handle.of_blob(b"hello")
        assert handle.is_literal
        assert handle.literal_data == b"hello"
        assert handle.size == 5

    def test_boundary_30_bytes_is_literal(self):
        handle = Handle.of_blob(b"a" * LITERAL_MAX)
        assert handle.is_literal

    def test_31_bytes_is_not_literal(self):
        handle = Handle.of_blob(b"a" * (LITERAL_MAX + 1))
        assert not handle.is_literal
        assert handle.size == LITERAL_MAX + 1

    def test_empty_blob_is_literal(self):
        handle = Handle.of_blob(b"")
        assert handle.is_literal
        assert handle.literal_data == b""

    def test_literal_too_long_rejected(self):
        with pytest.raises(HandleError):
            Handle.literal(b"a" * (LITERAL_MAX + 1))

    def test_literal_is_always_object(self):
        handle = Handle.of_blob(b"hi")
        assert handle.is_object
        assert handle.as_ref() == handle  # hiding a literal is a no-op

    def test_literal_has_no_digest(self):
        with pytest.raises(HandleError):
            Handle.of_blob(b"hi").digest


class TestPacking:
    def test_packed_length_is_32(self):
        assert len(make_blob_handle().pack()) == HANDLE_BYTES
        assert len(Handle.of_blob(b"abc").pack()) == HANDLE_BYTES

    def test_roundtrip_blob(self):
        handle = make_blob_handle()
        assert Handle.unpack(handle.pack()) == handle

    def test_roundtrip_tree(self):
        handle = make_tree_handle()
        assert Handle.unpack(handle.pack()) == handle

    def test_roundtrip_ref(self):
        handle = make_blob_handle().as_ref()
        assert Handle.unpack(handle.pack()) == handle

    def test_roundtrip_thunks_and_encodes(self):
        tree = make_tree_handle()
        for derived in (
            tree.make_application(),
            tree.make_selection(),
            tree.make_identification(),
            make_blob_handle().make_identification(),
            tree.make_application().wrap_strict(),
            tree.make_application().wrap_shallow(),
        ):
            assert Handle.unpack(derived.pack()) == derived

    def test_unpack_wrong_length(self):
        with pytest.raises(HandleError):
            Handle.unpack(b"\x00" * 31)

    def test_unpack_bad_padding(self):
        raw = bytearray(Handle.of_blob(b"ab").pack())
        raw[10] = 0xFF  # non-zero literal padding
        with pytest.raises(HandleError):
            Handle.unpack(bytes(raw))

    def test_unpack_reserved_bits(self):
        raw = bytearray(make_blob_handle().pack())
        raw[31] |= 0x80  # set a reserved metadata bit
        with pytest.raises(HandleError):
            Handle.unpack(bytes(raw))

    def test_unpack_reserved_encode_style(self):
        """The two encode bits have three legal values.  ``0b11`` used
        to build a handle whose first property read (``repr``,
        ``is_encode``) raised a bare ``ValueError: 3 is not a valid
        EncodeStyle`` - so a malformed frame left ``decode_bundle`` and
        ``unpack_reply`` as something other than a ``FixError``."""
        raw = bytearray(make_tree_handle().make_application().wrap_strict().pack())
        raw[30] |= 0x30  # TREE | APPLICATION | encode=3
        raw = bytes(raw)
        with pytest.raises(HandleError, match="0b11"):
            Handle.unpack(raw)
        bundle = MAGIC + (1).to_bytes(4, "little") + raw + bytes(4)
        with pytest.raises(HandleError, match="0b11"):
            decode_bundle(Repository(), bundle)
        ctx = struct.pack("<QQ", 7, 9)
        reply = bytearray(pack_reply(ctx, make_tree_handle(), b""))
        reply[-HANDLE_BYTES:] = raw
        with pytest.raises(HandleError, match="0b11"):
            unpack_reply(bytes(reply))

    @given(st.binary(min_size=0, max_size=LITERAL_MAX))
    def test_literal_roundtrip_property(self, data):
        handle = Handle.of_blob(data)
        packed = handle.pack()
        assert len(packed) == HANDLE_BYTES
        restored = Handle.unpack(packed)
        assert restored == handle
        assert restored.literal_data == data

    @given(st.binary(min_size=31, max_size=256), st.booleans())
    def test_blob_roundtrip_property(self, data, accessible):
        handle = Handle.blob(blob_digest(data), len(data))
        if not accessible:
            handle = handle.as_ref()
        assert Handle.unpack(handle.pack()) == handle

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_size_field_width(self, size):
        handle = Handle.blob(blob_digest(b"x"), size)
        assert Handle.unpack(handle.pack()).size == size

    def test_size_overflow_rejected(self):
        with pytest.raises(HandleError):
            Handle.blob(blob_digest(b"x"), 1 << 48)


class TestDerivations:
    def test_ref_object_roundtrip(self):
        handle = make_blob_handle()
        assert handle.as_ref().as_object() == handle
        assert handle.as_ref().is_ref
        assert not handle.as_ref().is_object

    def test_application_requires_tree(self):
        with pytest.raises(HandleError):
            make_blob_handle().make_application()

    def test_selection_requires_tree(self):
        with pytest.raises(HandleError):
            make_blob_handle().make_selection()

    def test_identification_on_blob_and_tree(self):
        assert make_blob_handle().make_identification().thunk_style is (
            ThunkStyle.IDENTIFICATION
        )
        assert make_tree_handle().make_identification().is_tree

    def test_encode_requires_thunk(self):
        with pytest.raises(HandleError):
            make_tree_handle().wrap_strict()

    def test_encode_unwrap(self):
        thunk = make_tree_handle().make_application()
        assert thunk.wrap_strict().unwrap_encode() == thunk
        assert thunk.wrap_shallow().unwrap_encode() == thunk
        assert thunk.wrap_strict().encode_style is EncodeStyle.STRICT
        assert thunk.wrap_shallow().encode_style is EncodeStyle.SHALLOW

    def test_double_encode_rejected(self):
        encode = make_tree_handle().make_application().wrap_strict()
        with pytest.raises(HandleError):
            encode.wrap_shallow()

    def test_definition_roundtrip(self):
        tree = make_tree_handle()
        assert tree.make_application().definition() == tree
        assert tree.make_application().wrap_strict().definition() == tree

    def test_definition_of_ref_identification_is_object(self):
        ref = make_blob_handle().as_ref()
        definition = ref.make_identification().definition()
        assert definition.is_object
        assert definition.key == ref.key

    def test_thunk_is_not_data(self):
        thunk = make_tree_handle().make_application()
        assert not thunk.is_data
        assert not thunk.is_object
        assert not thunk.is_ref
        with pytest.raises(HandleError):
            thunk.as_ref()


class TestContentKey:
    def test_view_bits_do_not_change_content_key(self):
        handle = make_tree_handle()
        keys = {
            handle.key,
            handle.as_ref().key,
            handle.make_application().key,
            handle.make_application().wrap_strict().key,
        }
        assert len(keys) == 1

    def test_blob_and_tree_keys_differ(self):
        digest = blob_digest(b"collision")
        blob = Handle.blob(digest, 9)
        tree = Handle.tree(digest, 9)
        assert blob.key != tree.key

    def test_byte_size(self):
        assert make_blob_handle(b"x" * 100).byte_size() == 100
        assert make_tree_handle(3).byte_size() == 96


class TestEquality:
    def test_equality_and_hash(self):
        a = Handle.of_blob(b"same")
        b = Handle.of_blob(b"same")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Handle.of_blob(b"other")

    def test_ref_and_object_are_distinct_handles(self):
        handle = make_blob_handle()
        assert handle != handle.as_ref()

    def test_derived_handles_hash_as_they_compare(self):
        """A derived handle hashes like the unpacked copy it equals,
        whether either was hashed first, and by the value of its
        ``(payload, size, meta)``, so a cached hash is the same number."""
        blob, tree = make_blob_handle(), make_tree_handle()
        strict = tree.make_application().wrap_strict()
        pairs = [
            (blob.as_ref(), Handle.unpack(blob.as_ref().pack())),
            (blob.as_ref().as_object(), blob),
            (strict, Handle.unpack(strict.pack())),
            (strict.unwrap_encode(), tree.make_application()),
        ]
        for derived, twin in pairs:
            assert derived == twin
            hash(twin)  # one side's hash is cached, the other's is not
            assert hash(derived) == hash(twin) == hash(derived)
            assert hash(derived) == hash(
                (derived._payload, derived._size, derived._meta)
            )
        assert hash(blob.as_ref()) != hash(blob)  # unequal views, two keys
        assert len({blob, blob.as_ref(), Handle.unpack(blob.pack())}) == 2

    def test_repr_smoke(self):
        assert "literal" in repr(Handle.of_blob(b"x"))
        assert "blob" in repr(make_blob_handle())
        assert "application" in repr(make_tree_handle().make_application())


def every_known_meta():
    """Every metadata value over the known bits: 2**12 of them."""
    bits = [1 << i for i in range(16) if _META_KNOWN >> i & 1]
    for mask in range(1 << len(bits)):
        yield sum(bit for i, bit in enumerate(bits) if mask >> i & 1)


def refused_by_the_rules(payload: bytes, size: int, meta: int) -> bool:
    """The layout's rules for a handle, written out with the enums."""
    tree, ref, literal = meta & 1, meta >> 1 & 1, meta >> 6 & 1
    thunk, encode, litlen = meta >> 2 & 3, meta >> 4 & 3, meta >> 8 & 31
    if literal:
        if tree or ref or len(payload) != litlen or size != litlen:
            return True
        if litlen > LITERAL_MAX:
            return True
    elif litlen or len(payload) != DIGEST_BYTES:
        return True
    if encode not in {style.value for style in EncodeStyle}:
        return True
    if EncodeStyle(encode) is not EncodeStyle.NONE and ThunkStyle(thunk) is ThunkStyle.NONE:
        return True
    return ThunkStyle(thunk) in (ThunkStyle.APPLICATION, ThunkStyle.SELECTION) and not tree


class TestPredicatesReadBits:
    def test_every_known_meta_against_the_enum_definitions(self):
        """Each metadata value, with a digest payload and with a literal
        payload of its length: what ``__init__`` refuses is what the
        rules refuse (encode bits 0b11 among them), and on what it
        accepts, the styles are the Enum's own members, the predicates
        equal their definitions through the enums and the bits, and so
        do the content key and the wire bytes.  The wire bytes are kept:
        ``pack`` hands out one bytes object, and a handle ``unpack``
        made from them keeps the very bytes it parsed."""
        accepted = 0
        for meta in every_known_meta():
            litlen = meta >> 8 & 31
            for payload, size in ((b"\x07" * DIGEST_BYTES, 40), (b"a" * litlen, litlen)):
                if refused_by_the_rules(payload, size, meta):
                    with pytest.raises(HandleError):
                        Handle(payload, size, meta)
                    continue
                handle = Handle(payload, size, meta)
                accepted += 1
                thunk = ThunkStyle(meta >> 2 & 3)
                encode = EncodeStyle(meta >> 4 & 3)
                ref = bool(meta & 2)
                assert handle.thunk_style is thunk
                assert handle.encode_style is encode
                is_encode = encode is not EncodeStyle.NONE
                is_data = thunk is ThunkStyle.NONE
                assert (
                    handle.is_encode,
                    handle.is_thunk,
                    handle.is_data,
                    handle.is_object,
                    handle.is_ref,
                ) == (
                    is_encode,
                    thunk is not ThunkStyle.NONE and not is_encode,
                    is_data,
                    is_data and not ref,
                    is_data and ref,
                )
                assert {
                    type(handle.is_encode),
                    type(handle.is_thunk),
                    type(handle.is_data),
                    type(handle.is_object),
                    type(handle.is_ref),
                } == {bool}
                literal, tree = bool(meta & 64), bool(meta & 1)
                assert (handle.is_literal, handle.is_tree) == (literal, tree)
                assert {type(handle.is_literal), type(handle.is_tree)} == {bool}
                tag = b"L" if literal else b"T" if tree else b"B"
                assert handle.key == tag + payload
                if literal:
                    body = payload.ljust(LITERAL_MAX, b"\x00")
                else:
                    body = payload + size.to_bytes(6, "little")
                packed = handle.pack()
                assert packed == body + meta.to_bytes(2, "little")
                assert handle.pack() is packed
                again = Handle.unpack(packed)
                assert again == handle
                assert again.pack() is packed
        assert accepted == 152

    # A derivation re-tags: it copies the payload, size and content key
    # and reads the new meta's slots from the table.  The reference is
    # what every derivation built before, a fresh handle through
    # ``__init__``; the two must accept and refuse alike.

    DERIVATIONS = (
        "as_object",
        "as_ref",
        "make_application",
        "make_identification",
        "make_selection",
        "wrap_strict",
        "wrap_shallow",
        "unwrap_encode",
        "definition",
    )

    def accepted_handles(self):
        """``(payload, size, meta)`` of every handle the rules accept."""
        for meta in every_known_meta():
            litlen = meta >> 8 & 31
            for payload, size in ((b"\x07" * DIGEST_BYTES, 40), (b"a" * litlen, litlen)):
                if not refused_by_the_rules(payload, size, meta):
                    yield payload, size, meta

    def test_every_derivation_agrees_with_a_rebuilt_handle(self):
        """Over every accepted handle, each derivation gives what a
        handle built by ``__init__`` from the derived meta gives - every
        field, the wire bytes and any refusal's message - and a
        derivation that flips no bit returns the handle itself."""
        unchanged = 0
        for payload, size, meta in self.accepted_handles():
            handle = Handle(payload, size, meta)
            rebuilt = _Rebuilt(payload, size, meta)
            assert _fields(handle) == _fields(rebuilt)
            for name in self.DERIVATIONS:
                got = _outcome(getattr(handle, name))
                assert got == _outcome(getattr(rebuilt, name)), (meta, name)
                if got[0] == "made" and got[1]["_meta"] == meta:
                    assert getattr(handle, name)() is handle, (meta, name)
                    unchanged += 1
        # as_object on the 2 + 31 Objects (Blob, Tree, the literals);
        # as_ref on the 2 Refs and the 31 literals.
        assert unchanged == (2 + 31) + (2 + 31)

    def test_a_retag_to_any_meta_agrees_with_init(self):
        """``_with_meta`` to every known meta, from a Blob, a Tree, a
        literal and an empty literal: the same handle or the same
        refusal as ``__init__``, the Tree and literal bits included."""
        sources = [
            make_blob_handle(),
            make_tree_handle(),
            Handle.of_blob(b"lit"),
            Handle.of_blob(b""),
        ]
        for source in sources:
            for meta in every_known_meta():
                def init():
                    return Handle(source._payload, source._size, meta)

                assert _outcome(lambda: source._with_meta(meta)) == _outcome(init)

    def test_unpack_agrees_with_init(self):
        """Over every known meta (and a few with reserved bits), the
        frame of a digest, a literal and a literal with a stray padding
        byte: ``unpack`` gives the handle ``__init__`` builds from the
        fields, or the refusal the layout's checks raise, in order."""
        reserved = [1 << 7, 1 << 13, 1 << 14, 1 << 15]
        for meta in [*every_known_meta(), *(m | r for m in (0, 1, 64) for r in reserved)]:
            litlen = meta >> 8 & 31
            size = litlen if meta & 64 else 40
            frames = [
                b"\x07" * DIGEST_BYTES + size.to_bytes(6, "little"),
                (b"a" * litlen).ljust(LITERAL_MAX, b"\x00")[:LITERAL_MAX],
                (b"a" * litlen + b"\x01").ljust(LITERAL_MAX, b"\x00")[:LITERAL_MAX],
            ]
            for body in frames:
                raw = body + meta.to_bytes(2, "little")
                assert _outcome(lambda: Handle.unpack(raw)) == _outcome(
                    lambda: unpack_by_the_rules(raw)
                ), meta


class _Rebuilt(Handle):
    """A handle whose derivations build through ``__init__``."""

    __slots__ = ()

    def _with_meta(self, meta):
        return Handle(self._payload, self._size, meta)


def unpack_by_the_rules(raw: bytes) -> Handle:
    """The frame's own checks, in order, then ``__init__``."""
    if len(raw) != HANDLE_BYTES:
        raise HandleError(f"handles are {HANDLE_BYTES} bytes, got {len(raw)}")
    meta = int.from_bytes(raw[30:32], "little")
    if meta & ~_META_KNOWN:
        raise HandleError(f"reserved metadata bits set: {meta:#06x}")
    if meta & 64:
        litlen = meta >> 8 & 31
        if any(raw[litlen:LITERAL_MAX]):
            raise HandleError("literal padding must be zero")
        return Handle(raw[:litlen], litlen, meta)
    return Handle(raw[:DIGEST_BYTES], int.from_bytes(raw[24:30], "little"), meta)


def _fields(handle: Handle) -> dict:
    """Every slot but the two caches, and the wire bytes."""
    fields = {
        name: getattr(handle, name)
        for name in Handle.__slots__
        if name not in ("_hash", "_packed")
    }
    fields["pack"] = handle.pack()
    return fields


def _outcome(make):
    try:
        handle = make()
    except HandleError as exc:
        return "refused", str(exc)
    return "made", _fields(handle)
