"""Tests for Blobs, Trees, and the content-addressed Repository."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.data import Blob, Tree, verify
from repro.core.errors import HandleError, MissingObjectError
from repro.core.handle import HANDLE_BYTES, Handle
from repro.core.storage import Repository


class TestBlob:
    def test_roundtrip(self):
        blob = Blob(b"hello world")
        assert blob.data == b"hello world"
        assert len(blob) == 11

    def test_equality(self):
        assert Blob(b"a") == Blob(b"a")
        assert Blob(b"a") != Blob(b"b")

    def test_handle_canonicalization(self):
        assert Blob(b"tiny").handle().is_literal
        assert not Blob(b"x" * 64).handle().is_literal

    @given(st.binary(max_size=200))
    def test_verify_property(self, data):
        blob = Blob(data)
        assert verify(blob, blob.handle())


class TestTree:
    def test_children_and_indexing(self):
        a, b = Handle.of_blob(b"a"), Handle.of_blob(b"b")
        tree = Tree([a, b])
        assert len(tree) == 2
        assert tree[0] == a
        assert list(tree) == [a, b]

    def test_rejects_non_handles(self):
        with pytest.raises(HandleError):
            Tree([b"not a handle"])

    def test_serialize_roundtrip(self):
        tree = Tree([Handle.of_blob(b"a"), Handle.of_blob(b"x" * 64).as_ref()])
        raw = tree.serialize()
        assert len(raw) == 2 * HANDLE_BYTES
        assert Tree.deserialize(raw) == tree

    def test_deserialize_bad_length(self):
        with pytest.raises(HandleError):
            Tree.deserialize(b"\x00" * 33)

    def test_handle_depends_on_order(self):
        a, b = Handle.of_blob(b"a"), Handle.of_blob(b"b")
        assert Tree([a, b]).handle() != Tree([b, a]).handle()

    def test_handle_size_is_entry_count(self):
        tree = Tree([Handle.of_blob(b"a")] * 5)
        assert tree.handle().size == 5

    @given(st.lists(st.binary(max_size=40), max_size=8))
    def test_serialize_roundtrip_property(self, payloads):
        tree = Tree([Handle.of_blob(p) for p in payloads])
        assert Tree.deserialize(tree.serialize()) == tree


class TestRepository:
    def test_put_get_blob(self, repo):
        handle = repo.put_blob(b"y" * 100)
        assert repo.get_blob(handle).data == b"y" * 100

    def test_literal_not_stored(self, repo):
        handle = repo.put_blob(b"small")
        assert len(repo) == 0
        assert repo.get_blob(handle).data == b"small"
        assert repo.contains(handle)

    def test_missing_raises(self, repo):
        handle = Handle.of_blob(b"z" * 100)
        assert not repo.contains(handle)
        with pytest.raises(MissingObjectError):
            repo.get(handle)

    def test_get_by_any_view(self, repo):
        handle = repo.put_blob(b"q" * 100)
        assert repo.get(handle.as_ref()).data == b"q" * 100

    def test_put_tree_and_type_checks(self, repo):
        blob = repo.put_blob(b"w" * 100)
        tree = repo.put_tree([blob])
        assert repo.get_tree(tree)[0] == blob
        with pytest.raises(HandleError):
            repo.get_blob(tree)
        with pytest.raises(HandleError):
            repo.get_tree(blob)

    def test_dedup(self, repo):
        h1 = repo.put_blob(b"d" * 100)
        h2 = repo.put_blob(b"d" * 100)
        assert h1 == h2
        assert len(repo) == 1

    def test_results_memoization(self, repo):
        tree = repo.put_tree([])
        encode = tree.make_application().wrap_strict()
        result = repo.put_blob(b"r" * 64)
        assert repo.get_result(encode) is None
        repo.put_result(encode, result)
        assert repo.get_result(encode) == result
        assert repo.result_count() == 1

    def test_result_requires_encode_key(self, repo):
        with pytest.raises(HandleError):
            repo.put_result(repo.put_tree([]), repo.put_blob(b"x"))

    def test_forget_data_keeps_results(self, repo):
        handle = repo.put_blob(b"f" * 100)
        assert repo.forget_data(handle)
        assert not repo.contains(handle)
        assert not repo.forget_data(handle)  # already gone

    def test_forget_literal_is_noop(self, repo):
        assert not repo.forget_data(repo.put_blob(b"lit"))

    def test_data_bytes(self, repo):
        repo.put_blob(b"x" * 100)
        tree = repo.put_tree([Handle.of_blob(b"a"), Handle.of_blob(b"b")])
        assert repo.data_bytes() == 100 + 2 * HANDLE_BYTES
        assert tree in set(repo.handles())  # handles() yields canonical
        assert repo.handles_of({tree.content_key()}) == [tree]

    def test_absorb(self, repo):
        other = Repository("other")
        handle = other.put_blob(b"m" * 100)
        encode = other.put_tree([]).make_application().wrap_strict()
        other.put_result(encode, handle)
        repo.absorb(other)
        assert repo.get_blob(handle).data == b"m" * 100
        assert repo.get_result(encode) == handle

    def test_thread_safety_smoke(self, repo):
        errors = []

        def hammer(seed: int):
            try:
                for i in range(200):
                    payload = bytes([seed]) * (40 + i % 10)
                    handle = repo.put_blob(payload)
                    assert repo.get_blob(handle).data == payload
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
