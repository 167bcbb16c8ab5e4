"""Tests for the wire format (frames and bundles)."""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import data as core_data
from repro.core import handle as core_handle
from repro.core.errors import SerializationError
from repro.core.handle import HANDLE_BYTES
from repro.core.serialize import decode_bundle, decode_frame, encode_bundle, encode_frame
from repro.core.storage import Repository
from repro.core.thunks import make_application


class TestFrames:
    def test_blob_roundtrip(self, repo):
        handle = repo.put_blob(b"payload" * 20)
        raw = encode_frame(repo, handle)
        dest = Repository("dest")
        decoded, offset = decode_frame(dest, raw)
        assert offset == len(raw)
        assert decoded == handle
        assert dest.get_blob(handle).data == b"payload" * 20

    def test_tree_roundtrip(self, repo):
        child = repo.put_blob(b"c" * 64)
        handle = repo.put_tree([child, child.as_ref()])
        dest = Repository("dest")
        decode_frame(dest, encode_frame(repo, handle))
        assert dest.get_tree(handle).children[0] == child

    def test_literal_frame_is_header_only(self, repo):
        handle = repo.put_blob(b"tiny")
        raw = encode_frame(repo, handle)
        assert len(raw) == 32 + 4
        dest = Repository("dest")
        decoded, _ = decode_frame(dest, raw)
        assert decoded == handle

    def test_thunk_frames_rejected(self, repo):
        fn = repo.put_blob(b"f" * 64)
        thunk = make_application(repo, fn, [])
        with pytest.raises(SerializationError):
            encode_frame(repo, thunk)

    def test_corrupted_payload_rejected(self, repo):
        handle = repo.put_blob(b"p" * 100)
        raw = bytearray(encode_frame(repo, handle))
        raw[-1] ^= 0xFF
        with pytest.raises(SerializationError):
            decode_frame(Repository("dest"), bytes(raw))

    def test_truncated_frame_rejected(self, repo):
        handle = repo.put_blob(b"p" * 100)
        raw = encode_frame(repo, handle)
        with pytest.raises(SerializationError):
            decode_frame(Repository("dest"), raw[:40])


class TestBundles:
    def test_roundtrip_order_and_dedup(self, repo):
        a = repo.put_blob(b"a" * 64)
        b = repo.put_tree([a])
        raw = encode_bundle(repo, [a, b, a.as_ref()])  # duplicate view of a
        dest = Repository("dest")
        handles = decode_bundle(dest, raw)
        assert handles == [a, b]
        assert dest.get_tree(b)[0] == a

    def test_empty_bundle(self, repo):
        raw = encode_bundle(repo, [])
        assert decode_bundle(Repository("dest"), raw) == []

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            decode_bundle(Repository("dest"), b"NOPE\x00\x00\x00\x00")

    def test_trailing_bytes_rejected(self, repo):
        raw = encode_bundle(repo, [repo.put_blob(b"x" * 64)]) + b"extra"
        with pytest.raises(SerializationError):
            decode_bundle(Repository("dest"), raw)

    @given(st.lists(st.binary(max_size=100), max_size=10))
    def test_bundle_property(self, payloads):
        repo = Repository()
        handles = [repo.put_blob(p) for p in payloads]
        dest = Repository("dest")
        decoded = decode_bundle(dest, encode_bundle(repo, handles))
        # Deduplicated by content, order preserved for first occurrences.
        seen = []
        for h in handles:
            if h not in seen:
                seen.append(h)
        assert decoded == seen
        for h in seen:
            assert dest.get_blob(h).data in payloads


@contextlib.contextmanager
def digests_counted():
    """Count the content hashes - Blob and Tree - the body computes."""
    with mock.patch.object(
        core_handle, "blob_digest", wraps=core_handle.blob_digest
    ) as blob, mock.patch.object(
        core_data, "tree_digest", wraps=core_data.tree_digest
    ) as tree:
        yield lambda: blob.call_count + tree.call_count


class TestAFrameIsHashedOnce:
    @given(
        st.lists(st.binary(max_size=100), max_size=8),
        st.lists(st.lists(st.integers(0, 1 << 10), max_size=4), max_size=3),
    )
    def test_a_bundle_of_n_data_hashes_n_times(self, payloads, trees):
        """Every received frame is hashed - as it is verified - and
        only then: n distinct non-literal data cost n hashes, on a
        first decode and on a decode of data already held."""
        source = Repository()
        handles = [source.put_blob(p) for p in payloads]
        for picks in trees:
            handles.append(
                source.put_tree([handles[i % len(handles)] for i in picks if handles])
            )
        n = len({h.key for h in handles if not h.is_literal})
        bundle = encode_bundle(source, handles)
        dest = Repository("dest")
        for _ in range(2):
            with digests_counted() as hashed:
                decode_bundle(dest, bundle)
            assert hashed() == n
            assert len(dest) == n

    @pytest.mark.parametrize("kind", ["blob", "tree"])
    def test_a_refused_frame_stores_nothing(self, repo, kind):
        """A flipped payload byte is refused before anything is stored:
        the store's size, its listing and its rank table are as they
        were, and the intact frame then lists after what was held."""
        child = repo.put_blob(b"child " * 10)
        if kind == "blob":
            handle = repo.put_blob(b"p" * 100)
        else:
            handle = repo.put_tree([child, child.as_ref()])
        dest = Repository("dest")
        decode_bundle(dest, encode_bundle(repo, [child]))
        keys = frozenset({child.key, handle.key})
        before = (len(dest), dest.handles_of(keys), dict(dest._rank))
        raw = encode_frame(repo, handle)
        corrupt = bytearray(raw)
        corrupt[HANDLE_BYTES + 4] ^= 0xFF  # the payload's first byte
        with pytest.raises(SerializationError):
            decode_frame(dest, bytes(corrupt))
        assert (len(dest), dest.handles_of(keys), dict(dest._rank)) == before
        decode_frame(dest, raw)
        assert dest.handles_of(keys) == [child, handle]
