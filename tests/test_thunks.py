"""Tests for Thunk/Encode constructors and structural accessors."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import HandleError, SelectionError
from repro.core.handle import ThunkStyle
from repro.core.limits import ResourceLimits
from repro.core.thunks import (
    identified_value,
    make_application,
    make_identification,
    make_invocation_tree,
    make_selection,
    make_selection_range,
    pack_index,
    parse_invocation,
    parse_selection,
    shallow,
    strict,
    unpack_index,
)


class TestIndexPacking:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip(self, value):
        assert unpack_index(pack_index(value)) == value

    def test_negative_rejected(self):
        with pytest.raises(SelectionError):
            pack_index(-1)

    def test_indices_are_literals(self):
        assert pack_index(12345).is_literal


class TestInvocation:
    def test_build_and_parse(self, repo):
        fn = repo.put_blob(b"f" * 64)
        a = repo.put_blob(b"a" * 64)
        limits = ResourceLimits(memory_bytes=123456, output_size_hint=77)
        tree = make_invocation_tree(repo, fn, [a], limits)
        invocation = parse_invocation(repo, tree)
        assert invocation.function == fn
        assert invocation.args == (a,)
        assert invocation.limits == limits
        assert len(invocation.args) == 1

    def test_application_thunk_style(self, repo):
        fn = repo.put_blob(b"f" * 64)
        thunk = make_application(repo, fn, [])
        assert thunk.is_thunk
        assert thunk.thunk_style is ThunkStyle.APPLICATION

    def test_parse_too_short(self, repo):
        tree = repo.put_tree([])
        with pytest.raises(HandleError):
            parse_invocation(repo, tree)

    def test_out_of_line_limits(self, repo):
        # Limits blobs are 16 bytes (literal); also accept stored blobs.
        limits = ResourceLimits(memory_bytes=1 << 20)
        stored = repo.put_blob(limits.pack())
        fn = repo.put_blob(b"f" * 64)
        tree = repo.put_tree([stored, fn])
        assert parse_invocation(repo, tree).limits == limits

    def test_limits_handle_is_built_once_per_value(self):
        limits = ResourceLimits(memory_bytes=123456, output_size_hint=77)
        handle = limits.handle()
        assert handle.is_literal and handle.literal_data == limits.pack()
        twin = ResourceLimits(memory_bytes=123456, output_size_hint=77)
        assert twin.handle() is handle
        assert ResourceLimits(memory_bytes=123456).handle() != handle


class TestSelection:
    def test_single_index(self, repo):
        target = repo.put_tree([repo.put_blob(b"a" * 64)])
        thunk = make_selection(repo, target, 0)
        assert thunk.thunk_style is ThunkStyle.SELECTION
        sel = parse_selection(repo, thunk.definition())
        assert sel.target == target
        assert sel.start == 0
        assert sel.end is None

    def test_range(self, repo):
        target = repo.put_blob(b"0123456789" * 10)
        thunk = make_selection_range(repo, target, 3, 7)
        sel = parse_selection(repo, thunk.definition())
        assert (sel.start, sel.end) == (3, 7)

    def test_reversed_range_rejected(self, repo):
        target = repo.put_blob(b"x" * 64)
        with pytest.raises(SelectionError):
            make_selection_range(repo, target, 7, 3)

    def test_parse_wrong_shape(self, repo):
        bad = repo.put_tree([repo.put_blob(b"t" * 64)])
        with pytest.raises(HandleError):
            parse_selection(repo, bad)

    def test_selection_of_ref_target(self, repo):
        # A selection can reference data it cannot read - that's the point.
        target = repo.put_tree([repo.put_blob(b"v" * 64)]).as_ref()
        thunk = make_selection(repo, target, 0)
        assert parse_selection(repo, thunk.definition()).target == target


class TestIdentification:
    def test_roundtrip(self, repo):
        value = repo.put_blob(b"v" * 64)
        thunk = make_identification(value.as_ref())
        assert thunk.thunk_style is ThunkStyle.IDENTIFICATION
        assert identified_value(thunk).key == value.key

    def test_rejects_thunks(self, repo):
        fn = repo.put_blob(b"f" * 64)
        thunk = make_application(repo, fn, [])
        with pytest.raises(HandleError):
            make_identification(thunk)

    def test_identified_value_requires_identification(self, repo):
        fn = repo.put_blob(b"f" * 64)
        with pytest.raises(HandleError):
            identified_value(make_application(repo, fn, []))


class TestEncodes:
    def test_strict_shallow(self, repo):
        fn = repo.put_blob(b"f" * 64)
        thunk = make_application(repo, fn, [])
        assert strict(thunk).is_encode
        assert shallow(thunk).is_encode
        assert strict(thunk) != shallow(thunk)
        assert strict(thunk).unwrap_encode() == thunk
