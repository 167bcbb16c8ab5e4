"""Unit and property tests for the 256-bit Fix Handle layout."""

from __future__ import annotations

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
from repro.obs import SpanContext


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
        reply = bytearray(pack_reply(SpanContext(7, 9), make_tree_handle(), b""))
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
        assert definition.content_key() == ref.content_key()

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
            handle.content_key(),
            handle.as_ref().content_key(),
            handle.make_application().content_key(),
            handle.make_application().wrap_strict().content_key(),
        }
        assert len(keys) == 1

    def test_blob_and_tree_keys_differ(self):
        digest = blob_digest(b"collision")
        blob = Handle.blob(digest, 9)
        tree = Handle.tree(digest, 9)
        assert blob.content_key() != tree.content_key()

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
        accepts, the styles are the Enum's own members and the five
        predicates equal their definitions through the enums."""
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
        assert accepted == 152
