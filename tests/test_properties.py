"""Cross-cutting property-based tests on the library's core invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FixError, HandleError
from repro.core.eval import Evaluator
from repro.core.handle import HANDLE_BYTES, LITERAL_MAX, Handle, blob_digest
from repro.core.minrepo import footprint
from repro.core.serialize import decode_bundle, encode_bundle
from repro.core.storage import Repository
from repro.core.thunks import (
    make_identification,
    make_selection,
    make_selection_range,
    strict,
)
from repro.dist.gossip import GossipCoordinator, Participant, exchange
from repro.dist.membership import (
    ALIVE,
    DEAD,
    SUSPECT,
    Member,
    MembershipView,
    pack_members,
    unpack_members,
)
from repro.dist.multitenancy import (
    AppProfile,
    Phase,
    density_ratio,
    footprint_aware_packing,
    peak_reservation_packing,
    validate_packing,
)
from repro.dist.objectview import EMPTY_DIGEST, ObjectView
from repro.sim.engine import Simulator, all_of
from repro.sim.resources import Resource
from repro.sim.stats import CpuAccountant, report

# ----------------------------------------------------------------------
# Handle algebra


@st.composite
def data_handles(draw):
    payload = draw(st.binary(max_size=64))
    if len(payload) <= LITERAL_MAX:
        return Handle.of_blob(payload)
    if draw(st.booleans()):
        return Handle.blob(blob_digest(payload), len(payload))
    return Handle.tree(blob_digest(payload), len(payload))


class TestHandleAlgebra:
    @given(data_handles())
    def test_pack_unpack_is_identity(self, handle):
        assert Handle.unpack(handle.pack()) == handle

    @given(data_handles())
    def test_ref_object_involution(self, handle):
        assert handle.as_ref().as_object() == handle.as_object()
        assert handle.as_ref().as_ref() == handle.as_ref()

    @given(data_handles())
    def test_view_changes_preserve_content_key(self, handle):
        assert handle.as_ref().key == handle.key
        ident = handle.make_identification()
        assert ident.key == handle.key
        assert ident.wrap_strict().key == handle.key

    @given(data_handles())
    def test_identification_definition_roundtrip(self, handle):
        ident = handle.make_identification()
        assert ident.definition() == handle.as_object()

    @given(data_handles())
    def test_encode_unwrap_roundtrip(self, handle):
        ident = handle.make_identification()
        for encode in (ident.wrap_strict(), ident.wrap_shallow()):
            assert encode.unwrap_encode() == ident

    @given(st.binary(min_size=HANDLE_BYTES, max_size=HANDLE_BYTES))
    def test_unpack_never_crashes_uncontrolled(self, raw):
        """Arbitrary 32 bytes either parse or raise HandleError."""
        try:
            handle = Handle.unpack(raw)
        except HandleError:
            return
        assert Handle.unpack(handle.pack()) == handle


# ----------------------------------------------------------------------
# Evaluation invariants


class TestEvaluationInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(min_size=31, max_size=64), min_size=1, max_size=6))
    def test_eval_is_idempotent(self, payloads):
        repo = Repository()
        evaluator = Evaluator(repo)
        children = [repo.put_blob(p).as_ref() for p in payloads]
        inner = [strict(make_identification(c)) for c in children]
        tree = repo.put_tree(inner)
        once = evaluator.eval(tree)
        twice = evaluator.eval(once)
        assert once == twice  # eval of a resolved value is the identity

    @settings(max_examples=30, deadline=None)
    @given(
        st.binary(min_size=31, max_size=120),
        st.data(),
    )
    def test_selection_composes_like_slicing(self, payload, data):
        repo = Repository()
        evaluator = Evaluator(repo)
        blob = repo.put_blob(payload)
        start = data.draw(st.integers(min_value=0, max_value=len(payload)))
        end = data.draw(st.integers(min_value=start, max_value=len(payload)))
        sel = strict(make_selection_range(repo, blob, start, end))
        result = evaluator.eval_encode(sel)
        assert repo.get_blob(result).data == payload[start:end]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.binary(min_size=31, max_size=50), min_size=1, max_size=5))
    def test_memoized_and_fresh_agree(self, payloads):
        repo = Repository()
        children = [repo.put_blob(p) for p in payloads]
        target = repo.put_tree(children)
        encode = strict(make_selection(repo, target, len(children) - 1))
        memo = Evaluator(repo, memoize=True).eval_encode(encode)
        fresh = Evaluator(repo, memoize=False).eval_encode(encode)
        assert memo == fresh


# ----------------------------------------------------------------------
# Footprints


class TestFootprintInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=31, max_size=64), min_size=1, max_size=6))
    def test_extending_a_tree_grows_footprint(self, payloads):
        repo = Repository()
        children = [repo.put_blob(p) for p in payloads]
        small = repo.put_tree(children[:1])
        big = repo.put_tree(children[:1] + children[1:] + [small])
        fp_small = footprint(repo, small)
        fp_big = footprint(repo, big)
        assert fp_small.is_subset_of(fp_big)
        assert fp_big.data_bytes >= fp_small.data_bytes

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=31, max_size=64), min_size=1, max_size=6))
    def test_refs_always_shrink_footprints(self, payloads):
        repo = Repository()
        children = [repo.put_blob(p) for p in payloads]
        open_tree = repo.put_tree(children)
        closed_tree = repo.put_tree([c.as_ref() for c in children])
        assert footprint(repo, closed_tree).data_bytes < footprint(
            repo, open_tree
        ).data_bytes


# ----------------------------------------------------------------------
# Wire format fuzzing


class TestWireFuzz:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=200))
    def test_decode_bundle_never_crashes_uncontrolled(self, raw):
        try:
            decode_bundle(Repository(), raw)
        except FixError:
            pass  # every malformed input maps to a library error

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(max_size=80), max_size=6), st.data())
    def test_bitflips_are_detected_or_benign(self, payloads, data):
        repo = Repository()
        handles = [repo.put_blob(p) for p in payloads]
        raw = bytearray(encode_bundle(repo, handles))
        if len(raw) > 8:  # flip one byte somewhere after the magic
            index = data.draw(st.integers(min_value=4, max_value=len(raw) - 1))
            raw[index] ^= 0xFF
            try:
                decoded = decode_bundle(Repository(), bytes(raw))
            except FixError:
                return
            # If it still parses, content addressing guarantees whatever
            # was stored verifies against its handle.
            for handle in decoded:
                if not handle.is_literal:
                    Repository_ = Repository()
                    # decode already verified payload-vs-handle.
                    assert handle.pack()


# ----------------------------------------------------------------------
# Gossip anti-entropy invariants (the digest/delta merge is a join)

#: Random view histories: up to 4 views, each applying learns (and the
#: occasional forget) over a small namespace of objects and machines.
view_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # which view
        st.sampled_from(["learn", "forget"]),
        st.integers(min_value=0, max_value=7),  # object index
        st.integers(min_value=0, max_value=4),  # machine index
        st.one_of(st.none(), st.integers(min_value=1, max_value=1 << 20)),
    ),
    min_size=1,
    max_size=40,
)


def _views_from_ops(ops, count=4):
    views = [ObjectView(f"v{i}") for i in range(count)]
    for index, op, obj, machine, size in ops:
        view = views[index % count]
        name, location = f"obj{obj}", f"m{machine}"
        if op == "learn":
            view.learn(name, location, size)
        else:
            view.forget(name, location)
    return views


def _merge_into_fresh(name, *sources):
    """The join of several views' states, built from full deltas."""
    target = ObjectView(name)
    for source in sources:
        target.merge_delta(source.delta_since(target.digest()))
    return target


class TestGossipMergeAlgebra:
    """merge_delta is an idempotent, commutative, associative join over
    belief states - the algebra that makes epidemic spread converge on
    the union regardless of delivery order or duplication."""

    @settings(max_examples=60, deadline=None)
    @given(view_ops)
    def test_merge_is_idempotent(self, ops):
        views = _views_from_ops(ops)
        delta = views[0].delta_since(EMPTY_DIGEST)
        target = ObjectView("t")
        target.merge_delta(delta)
        once = target.snapshot()
        assert target.merge_delta(delta) == 0  # replay applies nothing
        assert target.snapshot() == once

    @settings(max_examples=60, deadline=None)
    @given(view_ops)
    def test_merge_is_commutative(self, ops):
        views = _views_from_ops(ops)
        ab = _merge_into_fresh("ab", views[0], views[1])
        ba = _merge_into_fresh("ba", views[1], views[0])
        assert ab.snapshot() == ba.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(view_ops)
    def test_merge_is_associative(self, ops):
        a, b, c, _ = _views_from_ops(ops)
        left = _merge_into_fresh(
            "left", _merge_into_fresh("ab", a, b), c
        )
        right = _merge_into_fresh(
            "right", a, _merge_into_fresh("bc", b, c)
        )
        assert left.snapshot() == right.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(view_ops)
    def test_exchange_converges_on_the_join(self, ops):
        """A pairwise exchange leaves both sides equal to their join."""
        views = _views_from_ops(ops, count=2)
        expected = _merge_into_fresh("join", *views).snapshot()
        exchange(Participant(views[0]), Participant(views[1]))
        assert views[0].snapshot() == expected
        assert views[1].snapshot() == expected

    @settings(max_examples=25, deadline=None)
    @given(view_ops, st.integers(min_value=0, max_value=2 ** 31))
    def test_gossip_rounds_converge_every_view_to_the_union(self, ops, seed):
        """Whatever the histories and the (seeded) peer schedule, enough
        rounds converge every view to the union of all beliefs."""
        views = _views_from_ops(ops)
        expected = _merge_into_fresh("union", *views).snapshot()
        coordinator = GossipCoordinator(views, seed=seed)
        coordinator.run(max_rounds=16)
        for view in views:
            assert view.snapshot() == expected


# ----------------------------------------------------------------------
# Membership merge algebra (the liveness side of gossip is also a join)

#: Random membership assertions over a small node namespace.  The
#: namespace is disjoint from the observing view's own name so the SWIM
#: self-defense (beating past a suspicion about oneself) never fires -
#: that transition is deliberately *not* order-independent and is
#: covered by its own unit test.
member_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),  # node index
        st.integers(min_value=1, max_value=50),  # heartbeat
        st.sampled_from([ALIVE, SUSPECT, DEAD]),
        st.integers(min_value=1, max_value=3),  # incarnation
    ),
    min_size=1,
    max_size=30,
)


def _members_from(entries):
    return [
        Member(f"m{i}", hb, status, incarnation)
        for i, hb, status, incarnation in entries
    ]


def _membership_snapshot(view):
    """The merged belief map, minus the observer's own entry."""
    return {m.node: m for m in view.members() if m.node != view.node}


def _merged_membership(name, *maps):
    view = MembershipView(name)
    for members in maps:
        view.merge(members)
    return view


class TestMembershipMergeAlgebra:
    """The per-node member lattice (DEAD > fresher heartbeat > SUSPECT >
    ALIVE) makes the membership merge an idempotent, commutative,
    associative join - the same algebra as the inventory delta merge,
    so liveness converges on the same epidemic schedule as inventory."""

    @settings(max_examples=60, deadline=None)
    @given(member_entries)
    def test_merge_is_idempotent(self, entries):
        members = _members_from(entries)
        view = MembershipView("obs")
        view.merge(members)
        once = _membership_snapshot(view)
        assert view.merge(members) == 0  # replay applies nothing
        assert _membership_snapshot(view) == once

    @settings(max_examples=60, deadline=None)
    @given(member_entries, member_entries)
    def test_merge_is_commutative(self, left, right):
        a = _merged_membership(
            "ab", _members_from(left), _members_from(right)
        )
        b = _merged_membership(
            "ba", _members_from(right), _members_from(left)
        )
        assert _membership_snapshot(a) == _membership_snapshot(b)

    @settings(max_examples=60, deadline=None)
    @given(member_entries, member_entries, member_entries)
    def test_merge_is_associative(self, e1, e2, e3):
        m1, m2, m3 = (_members_from(e) for e in (e1, e2, e3))
        left = _merged_membership(
            "l", _merged_membership("ab", m1, m2).members(), m3
        )
        right = _merged_membership(
            "r", m1, _merged_membership("bc", m2, m3).members()
        )
        # The intermediate views' own entries ride along in members();
        # strip both observers' names before comparing.
        strip = {"l", "r", "ab", "bc"}
        assert {
            n: m for n, m in _membership_snapshot(left).items()
            if n not in strip
        } == {
            n: m for n, m in _membership_snapshot(right).items()
            if n not in strip
        }

    @settings(max_examples=60, deadline=None)
    @given(member_entries, st.randoms(use_true_random=False))
    def test_tombstone_finality_is_per_incarnation(self, entries, rng):
        """Every delivery order converges on the same liveness verdict:
        a node is dead iff its maximal assertion (by the total order) is
        a tombstone.  Within an incarnation no heartbeat resurrects a
        tombstone; across incarnations the higher one wins - which is
        exactly what lets a restarted node rejoin."""
        members = _members_from(entries)
        doomed = set()
        for member in members:
            top = max(
                (m for m in members if m.node == member.node),
                key=lambda m: m.order_key(),
            )
            if top.is_dead:
                doomed.add(member.node)
        shuffled = list(members)
        rng.shuffle(shuffled)
        view = MembershipView("obs")
        for member in shuffled:
            view.merge([member])  # worst case: one entry per frame
        assert view.dead_nodes() == doomed

    @settings(max_examples=60, deadline=None)
    @given(member_entries)
    def test_codec_roundtrip_is_identity(self, entries):
        members = _members_from(entries)
        decoded, offset = unpack_members(pack_members(members))
        key = lambda m: (  # noqa: E731
            m.node, m.incarnation, m.heartbeat, m.status
        )
        assert sorted(decoded, key=key) == sorted(members, key=key)
        assert offset == len(pack_members(members))


class TestEvictionMergeAlgebra:
    """Tombstone eviction composes with the delta merge: an evicted
    location stays gone whatever order (or duplication) deltas arrive
    in, and the surviving beliefs still converge to the join."""

    @settings(max_examples=60, deadline=None)
    @given(view_ops)
    def test_eviction_is_order_independent(self, ops):
        views = _views_from_ops(ops)

        def merged_with_eviction(name, sources):
            target = ObjectView(name)
            target.evict("m0")
            for source in sources:
                target.merge_delta(source.delta_since(target.digest()))
            return target

        forward = merged_with_eviction("f", views)
        backward = merged_with_eviction("b", list(reversed(views)))
        assert forward.snapshot() == backward.snapshot()
        for view in (forward, backward):
            for name in [f"obj{i}" for i in range(8)]:
                assert "m0" not in view.where(name)

    @settings(max_examples=60, deadline=None)
    @given(view_ops)
    def test_replay_after_eviction_applies_nothing(self, ops):
        views = _views_from_ops(ops)
        delta = views[0].delta_since(EMPTY_DIGEST)
        target = ObjectView("t")
        target.evict("m1")
        target.merge_delta(delta)
        once = target.snapshot()
        assert target.merge_delta(delta) == 0
        assert target.snapshot() == once


# ----------------------------------------------------------------------
# Multitenancy packing invariants (paper section 6)

PACK_GB = 1 << 30
PACK_CAPACITY = 8 * PACK_GB

#: Random piecewise profiles: 1-5 phases of 0.25-4 s at 0-8 GB each,
#: clamped so every app individually fits the 8 GB machine.
profile_lists = st.lists(
    st.lists(
        st.tuples(
            st.floats(min_value=0.25, max_value=4.0),  # phase seconds
            st.integers(min_value=0, max_value=8),  # phase GB
        ),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=10,
)


def _apps_from_specs(specs):
    return [
        AppProfile(
            f"app{i}",
            tuple(Phase(seconds, gb * PACK_GB) for seconds, gb in phases),
        )
        for i, phases in enumerate(specs)
    ]


class TestPackingInvariants:
    """Profile knowledge can only help, and never by overcommitting."""

    @settings(max_examples=60, deadline=None)
    @given(profile_lists)
    def test_footprint_never_beats_validate_packing(self, specs):
        """Whatever density footprint awareness finds, every bin stays
        within capacity at every instant - density never comes from
        overcommitting."""
        apps = _apps_from_specs(specs)
        validate_packing(footprint_aware_packing(apps, PACK_CAPACITY))

    @settings(max_examples=60, deadline=None)
    @given(profile_lists)
    def test_footprint_never_uses_more_bins_than_peak(self, specs):
        apps = _apps_from_specs(specs)
        aware = footprint_aware_packing(apps, PACK_CAPACITY)
        peak = peak_reservation_packing(apps, PACK_CAPACITY)
        assert aware.bin_count <= peak.bin_count

    @settings(max_examples=60, deadline=None)
    @given(profile_lists)
    def test_density_ratio_at_least_one(self, specs):
        apps = _apps_from_specs(specs)
        _aware, _peak, ratio = density_ratio(apps, PACK_CAPACITY)
        assert ratio >= 1.0

    @settings(max_examples=60, deadline=None)
    @given(profile_lists)
    def test_every_app_packed_exactly_once(self, specs):
        apps = _apps_from_specs(specs)
        for packing in (
            footprint_aware_packing(apps, PACK_CAPACITY),
            peak_reservation_packing(apps, PACK_CAPACITY),
        ):
            packed = sorted(
                app.name for members in packing.bins for app in members
            )
            assert packed == sorted(app.name for app in apps)


# ----------------------------------------------------------------------
# Simulator conservation laws


class TestSimConservation:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),  # cores
                st.floats(min_value=0.01, max_value=2.0),  # duration
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_busy_never_exceeds_capacity(self, tasks):
        sim = Simulator()
        cores = Resource(sim, 4, name="cores")
        acct = CpuAccountant(sim)

        def job(sim, n, duration):
            yield cores.acquire(n)
            with acct.track("m", "user", n):
                yield sim.timeout(duration)
            cores.release(n)

        done = all_of(sim, [sim.process(job(sim, n, d)) for n, d in tasks])
        sim.run_until(done)
        window = max(sim.now, 1e-9)
        rep = report(acct.core_seconds(), total_cores=4, window_seconds=window)
        assert rep.user + rep.system + rep.iowait + rep.idle == pytest.approx(100)
        # Conservation: accounted busy time equals requested work exactly.
        expected = sum(n * d for n, d in tasks)
        assert acct.core_seconds()["user"] == pytest.approx(expected)
