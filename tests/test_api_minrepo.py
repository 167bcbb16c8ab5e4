"""Tests for the FixAPI capability surface and minimum repositories."""

from __future__ import annotations

import collections

import pytest

from repro.core.api import FixAPI
from repro.core.errors import AccessError, ResourceLimitError
from repro.core.handle import Handle
from repro.core.limits import ResourceLimits
from repro.core import minrepo
from repro.core.minrepo import footprint, transitive_footprint
from repro.core.thunks import make_application, make_identification, strict


@pytest.fixture
def setup(repo):
    """An input tree [a, nested[b], ref] and an API rooted at it."""
    a = repo.put_blob(b"a" * 64)
    b = repo.put_blob(b"b" * 64)
    hidden = repo.put_blob(b"h" * 64)
    nested = repo.put_tree([b])
    root = repo.put_tree([a, nested, hidden.as_ref()])
    api = FixAPI(repo, root)
    return api, root, a, b, nested, hidden


class TestAccessControl:
    def test_can_read_input_tree(self, setup):
        api, root, a, *_ = setup
        children = api.read_tree(root)
        assert children[0] == a

    def test_can_read_children_after_mapping(self, setup):
        api, root, a, b, nested, _ = setup
        api.read_tree(root)
        assert api.read_blob(a) == b"a" * 64
        api.read_tree(nested)
        assert api.read_blob(b) == b"b" * 64

    def test_cannot_read_unmapped_grandchild(self, setup):
        api, root, _, b, _, _ = setup
        api.read_tree(root)
        # b is under nested, which has not been mapped yet
        with pytest.raises(AccessError):
            api.read_blob(b)

    def test_cannot_read_ref(self, setup):
        api, root, *_, hidden = setup
        api.read_tree(root)
        with pytest.raises(AccessError):
            api.read_blob(hidden.as_ref())

    def test_cannot_read_conjured_handle(self, setup, repo):
        api, *_ = setup
        outside = repo.put_blob(b"outside" * 10)
        with pytest.raises(AccessError):
            api.read_blob(outside)

    def test_ref_metadata_is_visible(self, setup):
        api, *_, hidden = setup
        ref = hidden.as_ref()
        assert api.get_size(ref) == 64
        assert api.is_ref(ref)
        assert api.is_blob(ref)

    def test_created_data_is_accessible(self, setup):
        api, *_ = setup
        handle = api.create_blob(b"fresh" * 20)
        assert api.read_blob(handle) == b"fresh" * 20

    def test_created_tree_is_accessible(self, setup, repo):
        api, root, a, *_ = setup
        api.read_tree(root)
        tree = api.create_tree([a])
        assert api.read_tree(tree) == (a,)

    def test_literals_always_readable(self, setup):
        api, *_ = setup
        assert api.read_blob(Handle.of_blob(b"lit")) == b"lit"

    def test_cannot_read_thunk(self, setup, repo):
        api, *_ = setup
        fn = repo.put_blob(b"f" * 64)
        thunk = make_application(repo, fn, [])
        with pytest.raises(AccessError):
            api.read_tree(thunk)


class TestMemoryMetering:
    def test_limit_enforced_on_read(self, repo):
        big = repo.put_blob(b"x" * 1000)
        root = repo.put_tree([big])
        api = FixAPI(repo, root, ResourceLimits(memory_bytes=500))
        api.read_tree(root)
        with pytest.raises(ResourceLimitError):
            api.read_blob(big)

    def test_limit_enforced_on_create(self, repo):
        root = repo.put_tree([])
        api = FixAPI(repo, root, ResourceLimits(memory_bytes=100))
        with pytest.raises(ResourceLimitError):
            api.create_blob(b"y" * 200)

    def test_bytes_used_accumulates(self, repo):
        root = repo.put_tree([])
        api = FixAPI(repo, root)
        api.create_blob(b"z" * 100)
        assert api.bytes_used >= 100


class TestThunkBuilding:
    def test_invoke_builds_application(self, setup, repo):
        api, root, a, *_ = setup
        api.read_tree(root)
        fn = api.create_blob(b"f" * 64)
        thunk = api.invoke(fn, [a])
        assert thunk.is_thunk
        assert api.strict(thunk).is_encode
        assert api.shallow(thunk).is_encode

    def test_selection_builder(self, setup):
        api, root, *_ = setup
        thunk = api.selection(root, 1)
        assert thunk.is_thunk

    def test_identification_builder(self, setup):
        api, *_, hidden = setup
        thunk = api.identification(hidden.as_ref())
        assert thunk.is_thunk


class TestFootprint:
    def test_object_tree_footprint_recurses(self, setup, repo):
        _, root, a, b, nested, hidden = setup
        fp = footprint(repo, root)
        assert root in fp
        assert a in fp
        assert nested in fp
        assert b in fp
        assert hidden not in fp  # refs contribute metadata only
        assert fp.data_bytes > 0

    def test_thunk_footprint_includes_definition(self, repo):
        fn = repo.put_blob(b"f" * 64)
        arg = repo.put_blob(b"a" * 64)
        thunk = make_application(repo, fn, [arg])
        fp = footprint(repo, thunk)
        assert fn in fp
        assert arg in fp

    def test_encode_is_pending(self, repo):
        value = repo.put_blob(b"v" * 64)
        encode = strict(make_identification(value.as_ref()))
        tree = repo.put_tree([encode])
        fp = footprint(repo, tree)
        assert encode in fp.pending
        assert value not in fp  # hidden behind the ref until evaluated

    def test_bare_thunk_children_not_included(self, repo):
        fn = repo.put_blob(b"f" * 64)
        secret = repo.put_blob(b"s" * 64)
        inner = make_application(repo, fn, [secret.as_ref()])
        outer = repo.put_tree([inner])
        fp = footprint(repo, outer)
        assert secret not in fp

    def test_footprint_subset(self, repo):
        a = repo.put_blob(b"a" * 64)
        b = repo.put_blob(b"b" * 64)
        inner = repo.put_tree([a])
        outer = repo.put_tree([a, b, inner])
        small = footprint(repo, inner)
        big = footprint(repo, outer)
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)

def _closure(repo, handle):
    """``transitive_footprint``'s data and pending, by set unions."""
    data, pending, queue = set(), set(), [handle]
    while queue:
        fp = footprint(repo, queue.pop())
        data |= fp.data
        queue += fp.pending - pending
        pending |= fp.pending
    return data, pending


class TestEachEncodeIsWalkedOnce:
    """``transitive_footprint`` walks the root and every distinct nested
    Encode once.  An Encode root's own footprint lists the root as
    pending, which must not queue it for a second walk."""

    @pytest.mark.parametrize("root_is_encode", [True, False])
    def test_footprint_runs_once_per_distinct_encode(
        self, repo, monkeypatch, root_is_encode
    ):
        fn = repo.put_blob(b"f" * 64)
        leaf = strict(make_identification(repo.put_blob(b"l" * 64)))
        shared = strict(make_application(repo, fn, [leaf]))
        left = strict(make_application(repo, fn, [shared, repo.put_blob(b"x" * 64)]))
        right = strict(make_application(repo, fn, [shared]))
        top = strict(make_application(repo, fn, [left, right]))
        encodes = {top, left, right, shared, leaf}
        root = top if root_is_encode else repo.put_tree([top, fn])
        expected = _closure(repo, root)

        walked = collections.Counter()
        real = minrepo.footprint

        def counted(repo, handle):
            walked[handle] += 1
            return real(repo, handle)

        monkeypatch.setattr(minrepo, "footprint", counted)
        fp = transitive_footprint(repo, root)
        assert walked == dict.fromkeys(encodes | {root}, 1)
        assert (fp.data, fp.pending) == expected
        assert fp.pending == encodes
