"""Gossip anti-entropy: digest/delta protocol, coordinator, both runtimes.

Covers the versioned delta state in
:class:`repro.dist.objectview.ObjectView` (``digest`` / ``delta_since``
/ ``merge_delta``, the ``gossip.exchange`` handshake and its converged
short-circuit, forget-retracts-from-deltas), the seeded
:class:`repro.dist.gossip.GossipCoordinator` (replayable schedules,
O(log n) convergence, full-state ablation accounting, staleness
monotonicity), the :class:`~repro.dist.engine.FixpointSim` wiring
(scheduler beliefs age with the round budget), and the executing
runtime's GOSSIP frames (transitive spread, never-connected placement,
concurrency with live delegations).
"""

from __future__ import annotations

import ast
import collections
import contextlib
import dataclasses
import functools
import importlib.util
import math
import random
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codelets.stdlib import blob_int, int_blob
from repro.core import data as core_data
from repro.core import handle as core_handle
from repro.core.errors import FixError, MissingObjectError
from repro.core.gc import RecomputeIndex, collect
from repro.core.minrepo import Footprint, footprint, transitive_footprint
from repro.core.storage import Repository
from repro.core.thunks import make_application
from repro.dist.costmodel import choose
from repro.dist.engine import FixpointSim
from repro.dist.gossip import (
    GossipConfig,
    GossipCoordinator,
    GossipError,
    Participant,
    exchange,
    pack_delta,
    pack_digest,
    unpack_delta,
    unpack_digest,
)
from repro.dist.graph import JobGraph, TaskSpec
from repro.dist.membership import DEAD, Member, pack_members
from repro.dist.objectview import (
    EMPTY_DELTA,
    EMPTY_DIGEST,
    Digest,
    ObjectView,
    _node_wire_weight,
)
from repro.fixpoint import net
from repro.fixpoint.net import FixpointNode, NetworkError, NodeDirectory

MB = 1 << 20
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def seeded_views(n: int, objects_per_node: int = 3):
    """n views, each the sole believer in its own objects."""
    views = [ObjectView(f"node{i:03d}") for i in range(n)]
    for i, view in enumerate(views):
        for j in range(objects_per_node):
            view.learn(f"obj-{i}-{j}", view.node, 1 * MB)
    return views


def union_of(views):
    union = ObjectView("union")
    for view in views:
        union.merge_delta(view.delta_since(union.digest()))
    return union.snapshot()


# ----------------------------------------------------------------------
# The digest/delta protocol on ObjectView


class TestDigestDelta:
    def test_digest_covers_learned_entries(self):
        view = ObjectView("a")
        assert view.digest().versions == {}
        view.learn("x", "m1", 10)
        view.learn("y", "m2", 20)
        digest = view.digest()
        assert digest.versions == {"a": 2}
        assert digest.covers("a", 2)
        assert not digest.covers("a", 3)

    def test_relearning_stamps_nothing(self):
        """Repeat observations are free on the gossip wire."""
        view = ObjectView("a")
        view.learn("x", "m1", 10)
        before = view.digest()
        view.learn("x", "m1", 10)  # same belief, same size
        view.learn("x", "m1")  # no size at all
        assert view.digest() == before

    def test_size_correction_is_news(self):
        view = ObjectView("a")
        view.learn("x", "m1", 10)
        view.learn("x", "m1", 99)  # the size changed: must propagate
        fresh = ObjectView("b")
        fresh.merge_delta(view.delta_since(fresh.digest()))
        assert fresh.believed_size("x") == 99

    def test_delta_since_ships_only_the_uncovered_tail(self):
        view = ObjectView("a")
        view.learn("x", "m1", 10)
        mid = view.digest()
        view.learn("y", "m2", 20)
        delta = view.delta_since(mid)
        assert len(delta) == 1
        assert delta.entries[0][2] == "y"
        assert view.delta_since(view.digest()).is_empty

    def test_merge_is_idempotent_by_version(self):
        view = ObjectView("a")
        view.learn("x", "m1", 10)
        delta = view.delta_since(EMPTY_DIGEST)
        fresh = ObjectView("b")
        assert fresh.merge_delta(delta) == 1
        assert fresh.merge_delta(delta) == 0  # replay applies nothing
        assert fresh.snapshot() == view.snapshot()

    def test_merged_entries_forward_transitively(self):
        """Entries keep their origin stamp, so b can serve a's news to c
        - the property epidemic spread rests on."""
        a, b, c = ObjectView("a"), ObjectView("b"), ObjectView("c")
        a.learn("x", "a", 10)
        exchange(Participant(a), Participant(b))
        exchange(Participant(b), Participant(c))
        assert c.knows("x", "a")
        assert c.believed_size("x") == 10
        # And c's coverage means a has nothing left to send it.
        assert a.delta_since(c.digest()).is_empty

    def test_forgotten_entries_never_gossip_onward(self):
        """forget retracts the stamp from future deltas (no tombstones),
        while coverage stays advanced so peers don't re-send it."""
        a = ObjectView("a")
        a.learn("x", "m1", 10)
        a.learn("doomed", "m2", 20)
        a.forget("doomed", "m2")
        fresh = ObjectView("b")
        fresh.merge_delta(a.delta_since(fresh.digest()))
        assert "doomed" not in fresh.snapshot()
        assert fresh.snapshot() == a.snapshot()
        # Coverage includes the retracted stamp: nothing to re-send.
        assert a.delta_since(fresh.digest()).is_empty

    def test_forget_keeps_a_foreign_corroborated_belief(self):
        """A rollback retracts only this view's own assertion.  When the
        same belief carries a foreign stamp (the holder itself, or a
        third party, said so), it survives the forget - stripping the
        foreign stamp would leave its version covered by our digest
        forever, making a true fact permanently unlearnable via gossip.
        """
        caller, holder = ObjectView("caller"), ObjectView("holder")
        caller.learn("k", "holder", 10)  # the optimistic advance
        holder.learn("k", "holder", 10)  # the holder's own assertion...
        caller.merge_delta(holder.delta_since(caller.digest()))  # ...merged
        caller.forget("k", "holder")
        assert caller.knows("k", "holder")  # corroborated: kept
        # And the foreign stamp still forwards to third parties.
        third = ObjectView("third")
        third.merge_delta(caller.delta_since(third.digest()))
        assert third.knows("k", "holder")

    def test_exchange_still_produces_the_union(self, make_cluster=None):
        from repro.sim.cluster import Cluster, MachineSpec
        from repro.sim.engine import Simulator

        sim = Simulator()
        cluster = Cluster(
            sim, [MachineSpec("node0", cores=4), MachineSpec("node1", cores=4)]
        )
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        v0, v1 = ObjectView("node0"), ObjectView("node1")
        v0.refresh_local(cluster)
        v1.refresh_local(cluster)
        exchange(Participant(v0), Participant(v1))
        for view in (v0, v1):
            assert view.where("a") == {"node0"}
            assert view.where("b") == {"node1"}


class TestConvergedExchangeRegression:
    """The satellite regression: the old exchange re-sent full state on
    every handshake; the digest short-circuit must make a handshake
    between converged views ~free."""

    def test_converged_exchange_ships_zero_entries(self):
        a, b = ObjectView("a"), ObjectView("b")
        for i in range(50):
            a.learn(f"obj{i}", "a", 1 * MB)
        first = exchange(Participant(a), Participant(b))
        assert first.entries_shipped == 50
        again = exchange(Participant(a), Participant(b))
        assert again.entries_shipped == 0
        # Only digests (+ empty-delta framing) cross the wire...
        assert again.delta_bytes <= 16
        # ...orders of magnitude below the full state the old code sent.
        assert again.bytes_shipped < first.bytes_shipped / 20

    def test_wire_codec_matches_the_accounting(self):
        """Digest/Delta wire_bytes must equal the real serialization the
        executing runtime ships (repro.dist.gossip codec)."""
        view = ObjectView("a")
        view.learn(b"\x07" * 32, "b", 7)  # content-key-style bytes name
        view.learn("string-name", "c")  # sizeless str name
        delta = view.delta_since(EMPTY_DIGEST)
        raw = pack_delta(delta)
        assert len(raw) == delta.wire_bytes()
        decoded, offset = unpack_delta(raw)
        assert decoded == delta
        assert offset == len(raw)
        digest = view.digest()
        raw = pack_digest(digest)
        assert len(raw) == digest.wire_bytes()
        decoded, offset = unpack_digest(raw)
        assert decoded == digest
        assert offset == len(raw)

    def test_unpackable_name_type_is_a_gossip_error(self):
        view = ObjectView("a")
        view.learn(("tuple", "name"), "b", 1)  # fine in simulation...
        with pytest.raises(GossipError):
            pack_delta(view.delta_since(EMPTY_DIGEST))  # ...not on a wire


# ----------------------------------------------------------------------
# Byte accounting is the real codec's, and the kept digest never stale


#: Node names the accounting must weigh like the codec does: multi-byte
#: UTF-8, and a ``#`` that is not an epoch separator.
ODD_NODES = ("n0", "nœud-é", "节点-二", "m#1", "ß" * 9)
ODD_NAMES = ("obj", "objet-ü", b"", b"\x07" * 32, "名" * 5, b"\xff\x00key")


def assert_bytes_are_the_codecs(views):
    """Every value the views can hand each other, priced two ways."""
    digests = [view.digest() for view in views] + [EMPTY_DIGEST]
    for digest in digests:
        assert digest.wire_bytes() == len(pack_digest(digest))
    for view in views:
        for digest in digests:
            delta = view.delta_since(digest)
            assert delta.wire_bytes() == len(pack_delta(delta))
            assert unpack_delta(pack_delta(delta))[0] == delta


def apply_op(views, op):
    kind, who, other, name, size = op
    view = views[who % len(views)]
    peer = views[other % len(views)]
    if kind == "learn":
        view.learn(name, peer.node, size)
    elif kind == "forget":
        view.forget(name, peer.node)
    elif kind == "exchange" and view is not peer:
        exchange(Participant(view), Participant(peer))
    elif kind == "merge":
        view.merge_delta(peer.delta_since(EMPTY_DIGEST))
    elif kind == "epoch":
        view.advance_epoch(view.epoch + 1)


OP_KINDS = ("learn", "learn", "learn", "forget", "exchange", "merge", "epoch")
OPS = st.tuples(
    st.sampled_from(OP_KINDS),
    st.integers(0, 7),
    st.integers(0, 7),
    st.one_of(st.text(max_size=12), st.binary(max_size=12)),
    st.one_of(st.none(), st.integers(0, 2**64 - 1)),
)


class TestByteAccountingIsTheCodecs:
    def test_the_shared_empty_delta(self):
        assert EMPTY_DELTA.is_empty and len(EMPTY_DELTA) == 0
        assert EMPTY_DELTA.wire_bytes() == len(pack_delta(EMPTY_DELTA)) == 8
        assert unpack_delta(pack_delta(EMPTY_DELTA))[0] == EMPTY_DELTA
        view = ObjectView("a")
        view.learn("x", "a", 1)
        assert view.delta_since(view.digest()) is EMPTY_DELTA
        # ...also when the peer is merely *ahead*, not equal:
        ahead = Digest({"a": 5, "b": 2})
        assert view.delta_since(ahead) is EMPTY_DELTA
        assert view.merge_delta(EMPTY_DELTA) == 0
        assert EMPTY_DELTA.versions == {} and EMPTY_DELTA.entries == ()

    @given(
        st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=4, unique=True),
        st.lists(st.integers(1, 3), min_size=4, max_size=4),
        st.lists(OPS, max_size=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_history_prices_like_the_codec(self, nodes, epochs, ops):
        views = [
            ObjectView(node, epoch=epoch) for node, epoch in zip(nodes, epochs)
        ]
        for op in ops:
            apply_op(views, op)
        assert_bytes_are_the_codecs(views)

    def test_seeded_histories_with_odd_names(self):
        seen = set()
        for seed in range(25):
            rng = random.Random(seed)
            views = [
                ObjectView(node, epoch=rng.randint(1, 3))
                for node in rng.sample(ODD_NODES, 4)
            ]
            for _ in range(40):
                apply_op(
                    views,
                    (
                        rng.choice(OP_KINDS),
                        rng.randrange(4),
                        rng.randrange(4),
                        rng.choice(ODD_NAMES),
                        rng.choice((None, 0, 7, 2**40)),
                    ),
                )
                if rng.random() < 0.25:
                    assert_bytes_are_the_codecs(views)
            assert_bytes_are_the_codecs(views)
            for view in views:
                everything = view.delta_since(EMPTY_DIGEST)
                for origin, _version, name, _location, size in everything.entries:
                    if origin.endswith(("#2", "#3", "#4")):
                        seen.add("epoch origin")
                    if not origin.isascii():
                        seen.add("multi-byte origin")
                    seen.add(type(name).__name__)
                    seen.add("sizeless" if size is None else "sized")
        assert seen >= {
            "epoch origin", "multi-byte origin", "str", "bytes", "sizeless", "sized",
        }

    def test_the_kept_digest_is_dropped_by_everything_that_moves_it(self):
        a, b = ObjectView("nœud"), ObjectView("b")

        def retaken(view):
            """A fresh digest that equals the vector and prices right."""
            digest = view.digest()
            assert digest.versions == view._vector
            assert digest.versions is not view._vector
            assert digest.wire_bytes() == len(pack_digest(digest))
            assert view.digest() is digest  # nothing moved in between
            return digest

        empty = retaken(a)
        a.learn("x", "nœud", 1)  # _record
        first = retaken(a)
        assert first is not empty and empty.versions == {}
        assert first.wire_bytes() > empty.wire_bytes()
        a.learn("x", "nœud", 1)  # a duplicate stamps nothing
        assert a.digest() is first

        b.learn("y", "b")
        before = retaken(a)
        a.merge_delta(b.delta_since(a.digest()))  # entries: _record
        merged = retaken(a)
        assert merged is not before and merged.versions == {"nœud": 1, "b": 1}
        assert merged.wire_bytes() == before.wire_bytes() + 2 + 1 + 8
        a.merge_delta(b.delta_since(EMPTY_DIGEST))  # a replay moves nothing
        assert a.digest() is merged

        b.learn("z", "b")
        b.forget("z", "b")  # b's cap is 2, its log holds no entry for it
        gap = b.delta_since(a.digest())
        assert len(gap) == 0 and gap.versions == {"b": 2}
        a.merge_delta(gap)  # caps only: the cap advance
        assert retaken(a).versions == {"nœud": 1, "b": 2}

        before = retaken(a)
        assert a.advance_epoch(2) == 1  # restamps under "nœud#2"
        assert retaken(a).versions == {"nœud": 1, "b": 2, "nœud#2": 1}
        assert before.versions == {"nœud": 1, "b": 2}  # old value untouched
        a.evict("b"), a.readmit("b"), a.compact(), a.forget("x", "nœud")
        assert retaken(a).versions == {"nœud": 1, "b": 2, "nœud#2": 1}


# ----------------------------------------------------------------------
# A round is its handshakes: the four Participant steps, priced by the
# codec, drawn from the same seeded population


def reference_round(coordinator):
    """``GossipCoordinator.round`` written out the long way: the peers
    filter it used to build, the four :class:`Participant` steps in
    order, and every value priced by ``len(pack_*)`` - no
    ``wire_bytes()``, no shared handshake core."""
    active = [
        Participant(view, coordinator._membership.get(view.node))
        for view in coordinator._views
        if view.node not in coordinator._dead
    ]
    for party in active:
        if party.membership is not None:
            party.membership.beat()
    stats = dict(
        pairs=[], digest_bytes=0, delta_bytes=0, entries_shipped=0,
        membership_bytes=0,
    )
    for party in active:
        peers = [p for p in active if p is not party]
        if not peers:
            continue
        for peer in coordinator.rng.sample(
            peers, min(coordinator.fanout, len(peers))
        ):
            digest, members = party.syn()
            ack_digest, delta, ack_members = peer.on_syn(digest, members)
            push = party.on_ack(ack_digest, delta, ack_members)
            peer.on_push(push)
            stats["pairs"].append((party.view.node, peer.view.node))
            stats["digest_bytes"] += len(pack_digest(digest))
            stats["digest_bytes"] += len(pack_digest(ack_digest))
            stats["delta_bytes"] += len(pack_delta(delta)) + len(pack_delta(push))
            stats["entries_shipped"] += len(delta.entries) + len(push.entries)
            for map_ in (members, ack_members):
                if map_ is not None:
                    stats["membership_bytes"] += len(pack_members(map_))
    for party in active:
        if party.membership is not None:
            party.membership.tick()
    stats["pairs"] = tuple(stats["pairs"])
    return stats


class TestRoundEquivalence:
    @pytest.mark.parametrize("membership", [False, True])
    @pytest.mark.parametrize("fanout", [1, 3])
    def test_round_equals_the_reference_round(self, membership, fanout):
        """Two identically seeded 12-view groups, one driven by
        ``round()`` and one by the reference, with learns between
        rounds and (membership on) a kill and a restart."""
        real, mirror = (
            GossipCoordinator(
                seeded_views(12),
                fanout=fanout,
                seed=11,
                membership=membership,
                suspect_after=2,
                confirm_after=2,
            )
            for _ in range(2)
        )
        writes = random.Random(5)
        for index in range(24):
            node = f"node{writes.randrange(12):03d}"
            if membership and index == 4:
                real.kill("node003"), mirror.kill("node003")
            if membership and index == 16:
                for coordinator in (real, mirror):
                    fresh = coordinator.restart("node003")
                    fresh.learn("reborn", "node003", 3 * MB)
            for coordinator in (real, mirror):
                for view in coordinator.views:
                    if view.node == node and node not in coordinator._dead:
                        view.learn(f"late-{index}", node, index * MB)
                        view.learn(f"sizeless-{index}", node)
            stats = real.round()
            want = reference_round(mirror)
            got = {field: getattr(stats, field) for field in want}
            assert got == want, f"round {index}"
            assert stats.index == index
            assert stats.bytes_shipped == (
                want["digest_bytes"] + want["delta_bytes"] + want["membership_bytes"]
            )
            for mine, theirs in zip(real.views, mirror.views):
                assert mine.snapshot() == theirs.snapshot(), f"round {index}"
                assert mine.digest() == theirs.digest()
        assert bool(stats.membership_bytes) == membership
        if membership:
            assert real.readmitted("node003") == mirror.readmitted("node003")
            assert len(real.readmitted("node003")) == 11

    def test_a_lone_participant_draws_nothing(self):
        coordinator = GossipCoordinator(seeded_views(3), seed=1)
        state = coordinator.rng.getstate()
        stats = coordinator.round(participants={"node001"})
        assert stats.pairs == () and stats.bytes_shipped == 0
        assert coordinator.rng.getstate() == state

    def test_exchange_is_the_rounds_handshake(self):
        a, b = seeded_views(2)
        stats = exchange(Participant(a), Participant(b))
        assert (stats.entries_shipped, stats.membership_bytes) == (6, 0)
        coordinator = GossipCoordinator(seeded_views(2), seed=0)
        first = coordinator.round()
        assert first.pairs[0] == ("node000", "node001")
        # the second pair of the round is already converged
        assert first.entries_shipped == stats.entries_shipped
        assert first.delta_bytes == stats.delta_bytes + 2 * EMPTY_DELTA.wire_bytes()


class _CountingDict(dict):
    """A view's ``_log`` or ``_vector`` that counts every Python-level
    read (``==`` against another dict stays inside C and is not one)."""

    reads = 0

    def _read(name):
        def method(self, *args):
            self.reads += 1
            return getattr(dict, name)(self, *args)

        return method

    get = _read("get")
    __getitem__ = _read("__getitem__")
    __iter__ = _read("__iter__")
    items = _read("items")
    values = _read("values")
    setdefault = _read("setdefault")


class TestAHandshakeCostsItsNews:
    def test_converged_handshake_weighs_no_origin_and_reads_no_log(self):
        views = seeded_views(6, objects_per_node=20)
        GossipCoordinator(views, seed=2).run()
        a, b = Participant(views[0]), Participant(views[1])
        settled = exchange(a, b)  # every kept value is in place now
        for view in views[:2]:
            view._log = _CountingDict(view._log)
            view._vector = _CountingDict(view._vector)
        digests = (views[0].digest(), views[1].digest())
        weighed = _node_wire_weight.cache_info()
        for _ in range(3):
            assert exchange(a, b) == settled
        assert settled.entries_shipped == 0
        assert settled.delta_bytes == 2 * len(pack_delta(EMPTY_DELTA))
        assert _node_wire_weight.cache_info() == weighed  # not even a hit
        assert [view._log.reads for view in views[:2]] == [0, 0]
        assert [view._vector.reads for view in views[:2]] == [0, 0]  # no walk
        assert (views[0].digest(), views[1].digest()) == digests
        assert views[0].digest() is digests[0] and views[1].digest() is digests[1]

    def test_one_entry_of_news_reads_one_log(self):
        views = seeded_views(6, objects_per_node=20)
        GossipCoordinator(views, seed=2).run()
        a, b = Participant(views[0]), Participant(views[1])
        views[0].learn("news", "node000", 5)
        for view in views[:2]:
            view._log = _CountingDict(view._log)
        stats = exchange(a, b)
        assert stats.entries_shipped == 1
        # a reads its own origin's log once for the PUSH; b's only
        # "read" is the setdefault that files the entry.
        assert [view._log.reads for view in views[:2]] == [1, 1]
        assert views[1].knows("news", "node000")


# ----------------------------------------------------------------------
# The coordinator


class TestCoordinator:
    def test_fixed_seed_replays_identical_schedules(self):
        runs = []
        for _ in range(2):
            coordinator = GossipCoordinator(seeded_views(12), seed=7)
            coordinator.run_rounds(5)
            runs.append(
                [
                    (round.pairs, round.bytes_shipped, round.entries_shipped)
                    for round in coordinator.rounds
                ]
            )
        assert runs[0] == runs[1]

    def test_different_seeds_pick_different_peers(self):
        a = GossipCoordinator(seeded_views(12), seed=1)
        b = GossipCoordinator(seeded_views(12), seed=2)
        a.round(), b.round()
        assert a.rounds[0].pairs != b.rounds[0].pairs

    @pytest.mark.parametrize("n", [2, 8, 32, 100])
    def test_convergence_in_log_rounds(self, n):
        """After ceil(log2(n)) + c rounds every view equals the union -
        epidemic doubling, not O(n) token passing."""
        views = seeded_views(n)
        expected_union = union_of(views)
        coordinator = GossipCoordinator(views, fanout=1, seed=0)
        budget = math.ceil(math.log2(n)) + 4
        rounds = coordinator.run(max_rounds=budget)
        assert rounds <= budget
        for view in views:
            assert view.snapshot() == expected_union

    def test_run_raises_when_budget_too_small(self):
        views = seeded_views(32)
        coordinator = GossipCoordinator(views, seed=0)
        with pytest.raises(GossipError):
            coordinator.run(max_rounds=1)
        # The budget is exact: no extra round ran (or was accounted)
        # past it before the failure surfaced.
        assert len(coordinator.rounds) == 1

    def test_run_succeeds_on_an_exact_budget(self):
        """Convergence reached *by* the last budgeted round counts -
        the final round's outcome must be checked, not discarded."""
        rounds_needed = GossipCoordinator(seeded_views(32), seed=0).run()
        coordinator = GossipCoordinator(seeded_views(32), seed=0)
        assert coordinator.run(max_rounds=rounds_needed) == rounds_needed
        assert len(coordinator.rounds) == rounds_needed

    def test_full_state_ablation_ships_more_bytes(self):
        """Same schedule - the ablation (the bench's local baseline)
        re-sends everything every handshake, the delta protocol only
        the news."""
        spec = importlib.util.spec_from_file_location(
            "_bench_gossip", BENCHMARKS / "bench_gossip.py"
        )
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        delta_coord = GossipCoordinator(seeded_views(16), seed=3)
        delta_coord.run()
        full_views = seeded_views(16)
        full_bytes = bench.full_state_bytes(full_views, delta_coord.rounds)
        union = union_of(full_views)
        assert all(view.snapshot() == union for view in full_views)
        assert delta_coord.total_bytes < full_bytes / 2

    def test_late_joiner_catches_up(self):
        views = seeded_views(8)
        coordinator = GossipCoordinator(views, seed=0)
        coordinator.run()
        joiner = ObjectView("late")
        joiner.learn("late-obj", "late", 1 * MB)
        coordinator.add_view(joiner)
        coordinator.run()
        assert joiner.snapshot() == views[0].snapshot()
        assert views[0].knows("late-obj", "late")


class TestStaleness:
    """A view excluded from k rounds prices placements worse - more
    believed-missing bytes - than a converged one, monotonically in k:
    the unit-level companion of benchmarks/bench_gossip.py."""

    def excluded_missing_bytes(self, k: int) -> int:
        """Run 6 rounds of fresh data + gossip; the watcher view sits
        out the *last* k rounds.  Returns the bytes the watcher believes
        machine m0 is missing for the full object set afterwards."""
        machines = [ObjectView(f"m{i}") for i in range(4)]
        watcher = ObjectView("watcher")
        coordinator = GossipCoordinator(machines + [watcher], seed=11)
        names = []
        total_rounds = 6
        for step in range(total_rounds):
            # One new object materializes everywhere each step (a
            # replicated output): a fresh view knows m0 holds it.
            name = f"out-{step}"
            names.append(name)
            for machine in machines:
                machine.learn(name, machine.node, 1 * MB)
            participants = None
            if step >= total_rounds - k:
                participants = {m.node for m in machines}  # watcher out
            coordinator.run_rounds(2, participants)
        needs = [(name, 1 * MB) for name in names]
        return watcher.price_moves(needs, ["m0"])["m0"]

    def test_excluded_view_prices_monotonically_worse(self):
        missing = [self.excluded_missing_bytes(k) for k in range(4)]
        assert missing[0] == 0  # fully gossiped: nothing believed missing
        for fresher, staler in zip(missing, missing[1:]):
            assert staler >= fresher
        assert missing[-1] > missing[0]  # staleness has a real price


# ----------------------------------------------------------------------
# FixpointSim wiring: beliefs age with the round budget


def two_step_graph():
    graph = JobGraph()
    graph.add_data("big0", 10 * MB, "node0")
    graph.add_data("big1", 10 * MB, "node1")
    graph.add_task(
        TaskSpec(
            name="a",
            fn="f",
            inputs=("big0",),
            output="a.out",
            output_size=4 * MB,
            compute_seconds=0.1,
        )
    )
    graph.add_task(
        TaskSpec(
            name="b",
            fn="f",
            inputs=("a.out", "big1"),
            output="b.out",
            output_size=8,
            compute_seconds=0.1,
        )
    )
    return graph


class TestFixpointSimGossip:
    def test_gossiped_run_completes_and_spreads_outputs(self):
        platform = FixpointSim.build(
            nodes=3,
            cores=4,
            gossip=GossipConfig(startup_rounds=3, rounds_per_output=2, seed=0),
        )
        result = platform.run(two_step_graph())
        assert set(result.task_finish) == {"a", "b"}
        # The global view never snapshotted the registry, yet gossip
        # carried the outputs to it.
        assert platform.scheduler.view.where("a.out")
        assert platform.gossip.rounds  # rounds actually ran

    def test_zero_round_budget_means_the_scheduler_stays_stale(self):
        """rounds_per_output=0 is the aging extreme: outputs exist on
        machines (and in machine views) but the global belief never
        hears of them - staleness as a knob, correctness intact."""
        platform = FixpointSim.build(
            nodes=3,
            cores=4,
            gossip=GossipConfig(startup_rounds=3, rounds_per_output=0, seed=0),
        )
        result = platform.run(two_step_graph())
        assert set(result.task_finish) == {"a", "b"}
        assert not platform.scheduler.view.where("a.out")
        # Ground truth has the replica; only the belief lags.
        assert platform.cluster.locate("a.out")

    def test_without_gossip_behaviour_is_unchanged(self):
        platform = FixpointSim.build(nodes=3, cores=4)
        assert platform.gossip is None
        result = platform.run(two_step_graph())
        assert set(result.task_finish) == {"a", "b"}
        assert platform.scheduler.view.where("a.out")


# ----------------------------------------------------------------------
# Executing runtime: GOSSIP frames over real channels

FAT_INC_SOURCE = (
    '"""'
    + "p" * 600
    + '"""\n'
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    n = int.from_bytes(fix.read_blob(entries[2]), 'little')\n"
    "    return fix.create_blob((n + 1).to_bytes(8, 'little'))\n"
)


class TestNetGossip:
    def test_gossip_frames_cross_the_wire_and_count(self):
        a, b = FixpointNode("alpha"), FixpointNode("beta")
        channel = a.connect(b)  # connect itself is one gossip round
        before = channel.total_bytes
        assert before > 0  # the inventory handshake is real traffic now
        blob = a.repo.put_blob(b"fresh" * 100)
        traffic = a.gossip_with("beta")
        assert traffic.entries_sent >= 1  # the new blob's belief shipped
        assert b.view.knows(blob.content_key(), "alpha")
        assert b.view.believed_size(blob.content_key()) == blob.byte_size()
        assert channel.total_bytes - before == traffic.bytes_shipped

    def test_converged_peers_gossip_for_digest_bytes_only(self):
        a, b = FixpointNode("alpha"), FixpointNode("beta")
        channel = a.connect(b)
        connect_bytes = channel.total_bytes
        traffic = a.gossip_with("beta")
        assert traffic.entries_sent == 0
        assert traffic.entries_received == 0
        # Digests + framing (plus the membership piggyback: a u64
        # incarnation + u64 heartbeat per member), a tiny fraction of
        # the connect handshake.
        assert traffic.bytes_shipped < max(280, connect_bytes / 4)

    def test_transitive_spread_reaches_unconnected_nodes(self):
        """alpha learns what gamma holds through beta - no alpha-gamma
        channel ever existed."""
        alpha, beta, gamma = (
            FixpointNode("alpha"),
            FixpointNode("beta"),
            FixpointNode("gamma"),
        )
        alpha.connect(beta)
        beta.connect(gamma)
        fn = gamma.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        beta.gossip_with("gamma")
        alpha.gossip_with("beta")
        assert "gamma" not in alpha.peers
        assert alpha.view.knows(fn.content_key(), "gamma")
        assert alpha.view.believed_size(fn.content_key()) > 600

    def test_literal_results_stay_out_of_every_view(self):
        """A literal result is never stored or shipped, so no view may
        believe anyone holds it: after delegations and gossip, every
        view is exactly the union of what the stores hold."""
        hub = FixpointNode("hub")
        peers = [FixpointNode("peer-a"), FixpointNode("peer-b")]
        for peer in peers:
            fn = peer.runtime.compile(FAT_INC_SOURCE, "fat-inc")
            hub.connect(peer)
        nodes = [hub, *peers]
        try:
            for n in range(5):
                encode = make_application(
                    hub.repo, fn, [hub.repo.put_blob(int_blob(n))]
                ).wrap_strict()
                result = hub.delegate_best(encode)
                assert result.is_literal
                assert blob_int(hub.repo.get_blob(result).data) == n + 1
            for _ in range(6):
                for node in nodes:
                    node.gossip_sweep()
            truth = collections.defaultdict(set)
            for node in nodes:
                for key, _size in node.repo.sizes_beyond(()):
                    truth[key].add(node.name)
            for node in nodes:
                assert node.view.snapshot() == truth, node.name
        finally:
            for node in nodes:
                node.close()

    def test_gossip_unknown_peer_raises(self):
        lonely = FixpointNode("lonely")
        from repro.fixpoint.net import NetworkError

        with pytest.raises(NetworkError):
            lonely.gossip_with("nobody")


# ----------------------------------------------------------------------
# A handshake stamps what the node newly stores, not the store


def reference_refresh(node):
    """``FixpointNode._refresh_self`` the long way: re-hash the whole
    store (what ``holdings()`` did then), ``learn`` every datum, and let
    the dedup in ``learn`` throw the repeats away."""
    for handle in node.repo.handles():
        node.view.learn(handle.content_key(), node.name, handle.byte_size())
    return 0  # the count only feeds a span attribute (tests/test_obs.py)


#: A codelet whose result is a stored (non-literal) Blob, so a reply
#: ships data and the server notes what the caller now holds.
TWICE_SOURCE = (
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    return fix.create_blob(fix.read_blob(entries[2]) * 2)\n"
)


class _Twin:
    """Three meshed nodes stamping themselves with ``refresh`` (None:
    the shipped ``_refresh_self``), driven one scripted op at a time."""

    NAMES = ("n0", "n1", "n2")
    KNOBS = dict(suspect_after=2, confirm_after=2)

    def __init__(self, refresh=None):
        self.refresh = refresh
        self.directory = NodeDirectory()
        self.nodes = {}
        self.retired = []
        self.put = {}  # name -> data the soup stored there
        self.dropped = {}  # name -> data it dropped and not yet re-put
        for name in self.NAMES:
            self.spawn(name, 1)
        for index, name in enumerate(self.NAMES):
            for other in self.NAMES[index + 1 :]:
                self.nodes[name].connect(self.nodes[other])

    def spawn(self, name, incarnation):
        node = FixpointNode(
            name, directory=self.directory, incarnation=incarnation, **self.KNOBS
        )
        if self.refresh is not None:
            node._refresh_self = functools.partial(self.refresh, node)
        self.nodes[name], self.put[name], self.dropped[name] = node, [], []
        return node

    def close(self):
        for node in [*self.nodes.values(), *self.retired]:
            node.close()

    def store(self, name, datum):
        self.put[name].append(datum)
        return self.nodes[name].repo.put(datum)

    def meet(self, a, b):
        """One handshake ``a`` -> ``b``, dialing when the link is gone."""
        channel = self.nodes[a].peers.get(b)
        if channel is None or channel.closed:
            self.nodes[a].connect(self.nodes[b])  # the dial is a round
            return "dialed"
        return self.nodes[a].gossip_with(b)

    def apply(self, op):
        """Run one op; what it returns is compared across the twins."""
        try:
            return getattr(self, "op_" + op[0])(*op[1:])
        except FixError as exc:
            return type(exc).__name__

    def op_blob(self, name, payload):
        return self.store(name, core_data.Blob(payload))

    def op_tree(self, name, values):
        repo = self.nodes[name].repo
        return self.store(
            name, core_data.Tree([repo.put_blob(int_blob(v)) for v in values])
        )

    def op_dup(self, name, pick):
        if self.put[name]:
            return self.store(name, self.put[name][pick % len(self.put[name])])

    def op_drop(self, name, pick, retract):
        """The provider deletes a datum it can recompute; with
        ``retract`` it also stops advertising it (what a GC pass does)."""
        if not self.put[name]:
            return None
        node = self.nodes[name]
        datum = self.put[name][pick % len(self.put[name])]
        self.dropped[name].append(datum)
        if retract:
            node.view.forget(datum.handle().content_key(), name)
        return node.repo.forget_data(datum.handle())

    def op_reput(self, name):
        back = [self.nodes[name].repo.put(d) for d in self.dropped[name]]
        self.dropped[name].clear()
        return back

    def op_absorb(self, name, payloads):
        side = Repository("side")
        side.put_tree([side.put_blob(payload) for payload in payloads])
        self.nodes[name].repo.absorb(side)

    def op_delegate(self, a, b, payload):
        """``b`` learns what ``a`` holds from the request it served, and
        gossip brings that belief *about a* back to ``a``."""
        node = self.nodes[a]
        fn = node.runtime.compile(TWICE_SOURCE, "twice")
        encode = make_application(
            node.repo, fn, [node.repo.put_blob(payload)]
        ).wrap_strict()
        result = node.delegate(b, encode)
        assert node.repo.get_blob(result).data == payload * 2
        return result

    def op_gossip(self, a, b):
        return self.meet(a, b)

    def op_sweep(self, name):
        return self.nodes[name].gossip_sweep()

    def op_crash(self, name, payload):
        """Die for real, get buried, come back one incarnation up with
        an empty view and something on disk."""
        survivors = [self.nodes[n] for n in self.NAMES if n != name]
        self.retired.append(self.nodes[name])
        self.nodes[name].crash()
        for _ in range(12):
            if all(s.membership.is_dead(name) for s in survivors):
                break
            for survivor in survivors:
                survivor.gossip_sweep()
        reborn = self.spawn(name, survivors[0].membership.incarnation(name) + 1)
        self.store(name, core_data.Blob(payload))
        traffic = [reborn.rejoin(survivors[0])]
        traffic.extend(survivor.gossip_sweep() for survivor in survivors)
        return traffic

    def op_accuse(self, victim, accuser):
        """A false tombstone: the accuser evicts a live node, which
        hears of it on the rejoin handshake and ``_on_self_refute``s."""
        accused, by = self.nodes[victim], self.nodes[accuser]
        by.membership.merge(
            [
                Member(
                    victim,
                    accused.membership.heartbeat(),
                    DEAD,
                    by.membership.incarnation(victim),
                )
            ]
        )
        return accused.rejoin(by), accused.incarnation

    def op_evict_self(self, name):
        return self.nodes[name].view.evict(name)

    def op_readmit_self(self, name):
        return self.nodes[name].view.readmit(name)

    def fingerprint(self):
        state = {}
        for name, node in self.nodes.items():
            everything = node.view.delta_since(Digest({}))
            state[name] = (
                node.view.snapshot(),
                node.view.digest(),
                everything.entries,  # every stamp, in log order
                everything.versions,
                node.view.stats()["log_entries"],
                {
                    peer: (channel.bytes_ab, channel.bytes_ba)
                    for peer, channel in sorted(node.peers.items())
                },
            )
        return state


def soup(seed, length=60):
    """A seeded script over every op kind (each at least twice).  What
    wipes a belief is healed a few ops later - a dropped datum is
    re-put, a self-evicted view readmitted - and then gossiped, so the
    stamp-it-again path runs in every soup."""
    rng = random.Random(seed)
    names = _Twin.NAMES

    def payload():
        return rng.randbytes(rng.randint(31, 200))

    def pair():
        return tuple(rng.sample(names, 2))

    makers = {
        "blob": lambda: (rng.choice(names), payload()),
        "tree": lambda: (
            rng.choice(names),
            [rng.randrange(1 << 30) for _ in range(rng.randint(0, 6))],
        ),
        "dup": lambda: (rng.choice(names), rng.randrange(100)),
        "drop": lambda: (rng.choice(names), rng.randrange(100), rng.random() < 0.6),
        "absorb": lambda: (rng.choice(names), [payload(), payload()]),
        "delegate": lambda: (*pair(), payload()),
        "gossip": pair,
        "sweep": lambda: (rng.choice(names),),
        "crash": lambda: (rng.choice(names), payload()),
        "accuse": pair,
        "evict_self": lambda: (rng.choice(names),),
    }
    weights = dict.fromkeys(makers, 2)
    weights.update(blob=8, tree=5, gossip=10, drop=5, crash=0)  # 2 crashes, no more
    kinds = 2 * list(makers)
    kinds += rng.choices(
        list(weights), list(weights.values()), k=length - len(kinds)
    )
    rng.shuffle(kinds)
    script, healing = [], []
    for kind in kinds:
        op = (kind, *makers[kind]())
        script.append(op)
        if kind in ("drop", "evict_self"):
            healing.append([rng.randint(0, 4), op[1]])
        for wait in healing[:]:
            wait[0] -= 1
            if wait[0] < 0:
                healing.remove(wait)
                name = wait[1]
                other = rng.choice([n for n in names if n != name])
                script += [("reput", name), ("readmit_self", name)]
                script.append(("gossip", name, other))
    return script


def run_twins(script, candidate=None):
    """Drive a reference-stamped cluster and a ``candidate``-stamped one
    (None: the shipped code) through ``script``; after every op the two
    must be indistinguishable - beliefs, digests, every stamp in log
    order, log sizes, and every byte on every channel."""
    twins = []
    try:
        twins.append(_Twin(reference_refresh))
        twins.append(_Twin(candidate))
        reference, shipped = twins
        assert shipped.fingerprint() == reference.fingerprint(), "mesh"
        for step, op in enumerate(script):
            assert shipped.apply(op) == reference.apply(op), (step, op)
            assert shipped.fingerprint() == reference.fingerprint(), (step, op)
    finally:
        for twin in twins:
            twin.close()


def _stamp_news(node, wanted):
    news = node.repo.sizes_beyond(node.view.holdings(node.name))
    for key, size in wanted(news):
        node.view.learn(key, node.name, size)
    return len(news)


def skips_trees(node):
    return _stamp_news(
        node, lambda news: [pair for pair in news if not pair[0].startswith(b"T")]
    )


def stamps_in_key_order(node):
    """What iterating a set of keys (instead of the store) would do."""
    return _stamp_news(node, sorted)


def stamps_each_key_once(node):
    """A cursor/journal design with no invalidation: a key stamped once
    is never stamped again, so one dropped, retracted and re-put (or a
    view that was wiped) stays unadvertised."""
    done = node.__dict__.setdefault("_stamped_once", set())
    stamped = _stamp_news(
        node, lambda news: [pair for pair in news if pair[0] not in done]
    )
    done.update(node.repo._data)
    return stamped


class TestRefreshStampsWhatTheScanStamped:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_stamps_as_the_full_scan(self, seed):
        run_twins(soup(seed))

    @pytest.mark.parametrize(
        "mutant", [skips_trees, stamps_in_key_order, stamps_each_key_once]
    )
    def test_the_oracle_catches_a_wrong_refresh(self, mutant):
        with pytest.raises(AssertionError):
            run_twins(soup(0), mutant)

    def test_retracted_and_re_put_is_stamped_again(self):
        """The self-healing case by hand: dropped + retracted + re-put
        is news again (the journal mutant's blind spot)."""
        script = [
            ("blob", "n0", b"recomputable" * 4),
            ("gossip", "n0", "n1"),
            ("drop", "n0", 0, True),
            ("gossip", "n0", "n1"),
            ("reput", "n0"),
            ("gossip", "n0", "n1"),
        ]
        run_twins(script)
        with pytest.raises(AssertionError):
            run_twins(script, stamps_each_key_once)


# ----------------------------------------------------------------------
# The log is the only record of who asserted what


class _MirroredView(ObjectView):
    """The bookkeeping ``ObjectView`` had before it read retractions off
    the log, kept as the reference: ``_stamps`` mirrors the log as
    ``(name, location) -> [(origin, version)]``, ``forget`` decides by
    it, the compaction trigger weighs the log against ``len(_stamps)``,
    and ``stats`` re-sums the sets and the logs.  ``learn``,
    ``merge_delta``, ``advance_epoch`` and every read are the shipped
    ones (the ``_replicas`` they keep is never read here)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._stamps = {}

    def _record(self, origin, version, name, location, size):
        self._vector[origin] = max(self._vector.get(origin, 0), version)
        self._digest = None
        self._log.setdefault(origin, []).append((version, name, location, size))
        self._stamps.setdefault((name, location), []).append((origin, version))
        self._log_total += 1
        if self._log_total >= 64 and self._log_total > 4 * max(
            1, len(self._stamps)
        ):
            self._compact_locked()

    def forget(self, name, location):
        with self._lock:
            stamps = self._stamps.get((name, location), [])
            own = {}
            for origin, version in stamps:
                if origin in self._own_origins:
                    own.setdefault(origin, set()).add(version)
            for origin, versions in own.items():
                log = self._log.get(origin)
                if log:
                    kept = [entry for entry in log if entry[0] not in versions]
                    self._log_total -= len(log) - len(kept)
                    self._log[origin] = kept
            foreign = [s for s in stamps if s[0] not in self._own_origins]
            if foreign:
                self._stamps[(name, location)] = foreign
                return
            self._stamps.pop((name, location), None)
            locations = self._locations.get(name)
            if locations is not None:
                locations.discard(location)
                if not locations:
                    del self._locations[name]
            held = self._holdings.get(location)
            if held is not None:
                held.discard(name)

    def evict(self, location):
        with self._lock:
            if location in self._evicted:
                return 0
            self._evicted.add(location)
            names = self._holdings.pop(location, set())
            for name in names:
                locations = self._locations.get(name)
                if locations is not None:
                    locations.discard(location)
                    if not locations:
                        del self._locations[name]
            for origin, log in self._log.items():
                kept = [entry for entry in log if entry[2] != location]
                if len(kept) != len(log):
                    self._log_total -= len(log) - len(kept)
                    self._log[origin] = kept
            for key in [k for k in self._stamps if k[1] == location]:
                del self._stamps[key]
            return len(names)

    def _compact_locked(self):
        dropped = 0
        for origin, log in self._log.items():
            if len(log) <= 1:
                continue
            latest = {}
            for index, (_version, name, location, _size) in enumerate(log):
                latest[(name, location)] = index
            if len(latest) == len(log):
                continue
            keep = set(latest.values())
            self._log[origin] = [
                entry for index, entry in enumerate(log) if index in keep
            ]
            dropped += len(log) - len(keep)
        if dropped:
            self._log_total -= dropped
            self._compactions += 1
            stamps = {}
            for origin, log in self._log.items():
                for version, name, location, _size in log:
                    stamps.setdefault((name, location), []).append((origin, version))
            self._stamps = stamps
        return dropped

    def stats(self):
        with self._lock:
            return {
                "entries": len(self._locations),
                "replicas": sum(len(locs) for locs in self._locations.values()),
                "log_entries": sum(len(log) for log in self._log.values()),
                "origins": len(self._vector),
                "evicted": len(self._evicted),
                "compactions": self._compactions,
                "epoch": self.epoch,
            }


VIEW_NODES = ("a", "b", "c")
VIEW_LOCATIONS = VIEW_NODES + ("d",)  # "d" asserts nothing itself
VIEW_NAMES = ("x", "y", "z", b"k", 7)


def apply_view_op(views, op):
    """One op on one world of three views; what it returns is compared."""
    kind, who, *args = op
    view = views[who]
    if kind == "learn":
        return view.learn(*args)
    if kind == "burst":  # size-is-news, over and over: superseded entries
        name, location, sizes = args
        for size in sizes:
            view.learn(name, location, size)
    elif kind == "merge":  # overlapping (since nothing) and replayed
        source, everything, times = args
        since = EMPTY_DIGEST if everything else view.digest()
        delta = views[source].delta_since(since)
        return [view.merge_delta(delta) for _ in range(times)]
    elif kind == "epoch":
        return view.advance_epoch(view.epoch + 1)
    else:  # forget, evict, readmit, compact
        return getattr(view, kind)(*args)


def view_fingerprint(view):
    everything = view.delta_since(EMPTY_DIGEST)
    return (
        view.snapshot(),
        view.digest(),
        everything.entries,  # every stamp of every origin, in log order
        everything.versions,
        view.stats(),  # all seven keys
        {location: view.holdings(location) for location in VIEW_LOCATIONS},
        {name: view.where(name) for name in VIEW_NAMES},
    )


def view_soup(seed, length=400):
    """A seeded script over every op kind: new, repeated and
    size-is-news ``learn``s over a small pool (so most ``forget``s hit a
    belief some view asserted), and enough superseded entries to trip
    the compaction trigger many times."""
    rng = random.Random(seed)

    def who():
        return rng.randrange(len(VIEW_NODES))

    def pair():
        return rng.choice(VIEW_NAMES), rng.choice(VIEW_LOCATIONS)

    makers = {
        "learn": lambda: (who(), *pair(), rng.choice((None, 1, 2, 3))),
        "burst": lambda: (
            who(),
            *pair(),
            [rng.randrange(1 << 20) for _ in range(rng.randint(8, 40))],
        ),
        "forget": lambda: (who(), *pair()),
        "merge": lambda: (who(), who(), rng.random() < 0.4, rng.randint(1, 2)),
        "evict": lambda: (who(), rng.choice(VIEW_LOCATIONS)),
        "readmit": lambda: (who(), rng.choice(VIEW_LOCATIONS)),
        "epoch": lambda: (who(),),
        "compact": lambda: (who(),),
    }
    weights = dict(
        learn=10, burst=3, forget=8, merge=8, evict=1, readmit=3, epoch=1, compact=1
    )
    script = []
    for kind in rng.choices(list(weights), list(weights.values()), k=length):
        op = (kind, *makers[kind]())
        if kind == "epoch":  # retract what both of the view's origins say
            mine = (op[1], rng.choice(VIEW_NAMES), VIEW_NODES[op[1]])
            script += [("learn", *mine, 1), op, ("forget", *mine)]
        else:
            script.append(op)
    return script


def _forget_case(view, name, location):
    """Which of ``forget``'s cases the reference is about to run."""
    origins = {origin for origin, _version in view._stamps.get((name, location), ())}
    if not origins:
        return ["never held"]
    foreign = origins - view._own_origins
    cases = ["foreign-corroborated" if foreign else "own only"]
    if len(origins - foreign) > 1:
        cases.append("own, two epochs")
    return cases


def run_views(script, candidate=ObjectView):
    """Drive a world of reference views and one of ``candidate`` views
    through ``script``; after every op each view must be
    indistinguishable from its reference.  Returns what the script
    exercised: ``forget``'s cases, and how many compactions the trigger
    (not an explicit ``compact``) ran."""
    reference = [_MirroredView(node) for node in VIEW_NODES]
    shipped = [candidate(node) for node in VIEW_NODES]
    seen = collections.Counter()
    for step, op in enumerate(script):
        view = reference[op[1]]
        if op[0] == "forget":
            seen.update(_forget_case(view, *op[2:]))
        before = view.stats()["compactions"]
        assert apply_view_op(shipped, op) == apply_view_op(reference, op), (step, op)
        if op[0] != "compact":
            seen["triggered compactions"] += view.stats()["compactions"] - before
        for ours, theirs in zip(shipped, reference):
            assert view_fingerprint(ours) == view_fingerprint(theirs), (step, op)
    return seen


def _forget_as(origins):
    """An ``ObjectView`` whose ``forget`` takes ``origins(view)`` for the
    origins this view asserted under."""

    class Mutant(ObjectView):
        def forget(self, name, location):
            with self._lock:
                own, self._own_origins = self._own_origins, origins(self)
                try:
                    super().forget(name, location)
                finally:
                    self._own_origins = own

    return Mutant


class _EvictKeepsTheCount(ObjectView):
    def evict(self, location):
        purged = super().evict(location)
        self._replicas += purged
        return purged


#: Strips every origin's entries: a foreign stamp is lost for good.
_ForgetStripsForeign = _forget_as(lambda view: set(view._log))
#: The epoch before ``advance_epoch`` counts as someone else's say.
_ForgetKnowsOneEpoch = _forget_as(lambda view: {view._origin})

_WHO = st.integers(0, len(VIEW_NODES) - 1)
_NAME, _WHERE = st.sampled_from(VIEW_NAMES), st.sampled_from(VIEW_LOCATIONS)
VIEW_OPS = st.one_of(
    st.tuples(st.just("learn"), _WHO, _NAME, _WHERE, st.sampled_from((None, 1, 2))),
    st.tuples(st.just("forget"), _WHO, _NAME, _WHERE),
    st.tuples(  # long enough to trip the compaction trigger on its own
        st.just("burst"), _WHO, _NAME, _WHERE,
        st.lists(st.integers(0, 1 << 20), min_size=60, max_size=80),
    ),
    st.tuples(st.just("merge"), _WHO, _WHO, st.booleans(), st.integers(1, 2)),
    st.tuples(st.sampled_from(("evict", "readmit")), _WHO, _WHERE),
    st.tuples(st.sampled_from(("epoch", "compact")), _WHO),
)


class TestTheLogIsTheOnlyRecord:
    """``ObjectView`` reads a retraction off its per-origin logs and
    keeps the believed-pair count as one int; the reference keeps the
    ``_stamps`` mirror it used to.  Same beliefs, stamps, log order,
    compaction moments and gauges, op for op."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_beliefs_as_the_mirror(self, seed):
        seen = run_views(view_soup(seed))
        for case in ("never held", "own only", "own, two epochs", "foreign-corroborated"):
            assert seen[case] >= 1, (case, seen)
        assert seen["triggered compactions"] >= 2, seen

    @pytest.mark.parametrize(
        "mutant", [_EvictKeepsTheCount, _ForgetStripsForeign, _ForgetKnowsOneEpoch]
    )
    def test_the_oracle_catches_a_wrong_retraction(self, mutant):
        with pytest.raises(AssertionError):
            run_views(view_soup(0), mutant)

    @given(st.lists(VIEW_OPS, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_the_counts_are_the_sums(self, ops):
        views = [ObjectView(node) for node in VIEW_NODES]
        for op in ops:
            apply_view_op(views, op)
            for view in views:
                assert view._replicas == sum(map(len, view._locations.values()))
                assert view._log_total == sum(map(len, view._log.values()))


def _count_calls(monkeypatch, owner, name, calls, tag=lambda args: None):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name, tag(args)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def blob_or_tree():
    """A non-literal Blob (31 B - 64 KiB) or a Tree of 0-16 literals."""
    blobs = st.builds(
        lambda unit, repeat: core_data.Blob((unit * repeat)[: 1 << 16]),
        st.binary(min_size=31, max_size=64),
        st.integers(1, 2115),
    )
    trees = st.lists(st.integers(0, 1 << 30), max_size=16).map(
        lambda values: core_data.Tree(
            [core_handle.Handle.of_blob(int_blob(v)) for v in values]
        )
    )
    return st.one_of(blobs, trees)


class TestARefreshCostsItsNews:
    def test_converged_handshake_hashes_and_learns_nothing(self, monkeypatch):
        a, b = FixpointNode("alpha"), FixpointNode("beta")
        for node in (a, b):
            for i in range(450):
                node.repo.put_blob(b"%s/%d " % (node.name.encode(), i) * 6)
            for i in range(50):
                node.repo.put_tree([node.repo.put_blob(int_blob(i))] * (i % 17))
            assert len(node.repo) >= 500
        a.connect(b)
        a.gossip_with("beta")  # converged from here on
        calls = collections.Counter()
        _count_calls(monkeypatch, core_handle, "blob_digest", calls)
        _count_calls(monkeypatch, core_data, "tree_digest", calls)
        _count_calls(monkeypatch, Repository, "handles", calls)
        _count_calls(
            monkeypatch, ObjectView, "learn", calls, tag=lambda args: args[0].node
        )
        for _ in range(3):
            traffic = a.gossip_with("beta")
            assert (traffic.entries_sent, traffic.entries_received) == (0, 0)
        b.gossip_with("alpha")
        assert not calls

        fresh = [b"fresh-%d " % i * 8 for i in range(7)]
        for payload in fresh:
            a.repo.put_blob(payload)
        assert calls.pop(("blob_digest", None)) == len(fresh)  # the puts
        traffic = a.gossip_with("beta")
        assert traffic.entries_sent == len(fresh)
        assert calls == {("learn", "alpha"): len(fresh)}
        calls.clear()
        b.gossip_with("alpha")
        assert not calls

    @settings(max_examples=60, deadline=None)
    @given(st.lists(blob_or_tree(), min_size=1, max_size=10), st.integers(0, 1023))
    def test_the_listing_is_the_handles_without_the_hashing(self, data_in, mask):
        repo = Repository()

        def check():
            want = [(h.content_key(), h.byte_size()) for h in repo.handles()]
            assert repo.sizes_beyond(()) == want
            known = {key for i, (key, _) in enumerate(want) if mask >> i & 1}
            assert repo.sizes_beyond(known) == [
                pair for pair in want if pair[0] not in known
            ]
            assert repo.data_bytes() == sum(size for _, size in want)
            return want

        for datum in data_in:
            repo.put(datum)
        before = check()
        middle, _size = before[len(before) // 2]
        datum = repo._data[middle]
        assert repo.forget_data(datum.handle())
        assert check() == [pair for pair in before if pair[0] != middle]
        repo.put(datum)
        assert [key for key, _ in check()][-1] == middle  # re-put goes last


# ----------------------------------------------------------------------
# A quote prices its footprint, not the store


def reference_footprint(repo, handle):
    """``transitive_footprint`` as it was: the same closure, then
    ``data_bytes`` by re-hashing every stored datum to find the few the
    closure names."""
    data, pending, queue = set(), set(), [handle]
    while queue:
        fp = footprint(repo, queue.pop())
        data |= fp.data
        queue += fp.pending - pending
        pending |= fp.pending
    total = 0
    for resident in repo.handles():
        if resident.content_key() in data:
            total += resident.byte_size()
    return Footprint(frozenset(data), frozenset(pending), total)


def price_like_the_parent(node, encode, fp, local, candidates, prefer_local):
    """``FixpointNode._place`` as it was, from ``local`` on."""
    if prefer_local and fp.data <= local.keys():
        return fp, None
    if candidates is None:
        candidates = node._candidates()
    if not candidates:
        if prefer_local:
            raise MissingObjectError(encode, node.name)
        raise NetworkError(f"{node.name}: no peers to delegate to")
    dead = node.membership.dead_nodes()
    needs = [
        (key, local.get(key, node.view.believed_size(key))) for key in fp.data
    ]
    prices = node.view.price_moves(needs, candidates)
    unshippable = [(key, 1) for key, _ in needs if key not in local]
    stranded = node.view.price_moves(unshippable, candidates)
    viable = [
        peer for peer in candidates if stranded[peer] == 0
    ] or list(candidates)
    return fp, choose(
        viable,
        prices.__getitem__,
        lambda peer: node.outstanding.get(peer, 0),
        exclude=dead,
    )


def reference_place(node, encode, candidates=None, prefer_local=False):
    """The whole store re-hashed into a holdings dict for every quote."""
    fp = reference_footprint(node.repo, encode)
    local = {h.content_key(): h.byte_size() for h in node.repo.handles()}
    return price_like_the_parent(
        node, encode, fp, local, candidates, prefer_local
    )


REFERENCE_QUOTE = (
    (net, "transitive_footprint", reference_footprint),
    (FixpointNode, "_place", reference_place),
)


class _QuoteTwin(_Twin):
    """``_Twin`` plus the placement entry points.  ``patches`` - (owner,
    name, stand-in) triples - are in force while one of its ops runs;
    the twins take turns, so a patched class never serves the other."""

    def __init__(self, patches=()):
        self.patches = patches
        super().__init__()

    def spawn(self, name, incarnation):
        node = super().spawn(name, incarnation)
        self.twice = node.runtime.compile(TWICE_SOURCE, "twice")
        return node

    def apply(self, op):
        with contextlib.ExitStack() as stack:
            for owner, name, stand_in in self.patches:
                stack.enter_context(mock.patch.object(owner, name, stand_in))
            return super().apply(op)

    def pool(self):
        """Everything any node was given, in a fixed order."""
        return [datum for name in self.NAMES for datum in self.put[name]]

    def encode(self, a, payload, picks=(), dropped=False):
        """On ``a``: twice(``payload``, ...) - the codelet reads only
        its first argument, the rest are footprint: data any node was
        given (``a`` may hold it, believe it elsewhere, or never have
        heard of it) and, with ``dropped``, what ``a`` dropped and has
        not re-put."""
        node, pool = self.nodes[a], self.pool()
        extra = [pool[pick % len(pool)] for pick in picks if pool]
        if dropped:
            extra += self.dropped[a]
        args = [node.repo.put_blob(payload), *(d.handle() for d in extra)]
        return make_application(node.repo, self.twice, args).wrap_strict()

    def checked(self, a, payload, result):
        assert self.nodes[a].repo.get_blob(result).data == payload * 2
        return result

    def op_copy(self, name, pick):
        """A replica: ``name`` stores something another node was given."""
        pool = self.pool()
        if pool:
            return self.store(name, pool[pick % len(pool)])

    def op_bounce(self, a, b, payload):
        """The result is a stored Blob that lands back on ``a``, where
        later picks can name it."""
        result = self.op_delegate(a, b, payload)
        self.put[a].append(core_data.Blob(payload * 2))
        return result

    def op_quote(self, a, *spec):
        node, encode = self.nodes[a], self.encode(a, *spec)
        return net.transitive_footprint(node.repo, encode), node.quote_best(encode)

    def op_delegate_best(self, a, payload, *spec):
        encode = self.encode(a, payload, *spec)
        return self.checked(a, payload, self.nodes[a].delegate_best(encode))

    def op_eval_anywhere(self, a, payload, *spec):
        encode = self.encode(a, payload, *spec)
        return self.checked(a, payload, self.nodes[a].eval_anywhere(encode))

    def op_scatter(self, a, batch):
        """Every peer's ``eval`` waits until ``scatter`` has returned:
        quote k sees exactly the k - 1 dispatches before it, never a
        reply that happened to be absorbed in between."""
        hub = self.nodes[a]
        dispatched = threading.Event()

        def gated(real):
            def eval_(encode):
                assert dispatched.wait(10)
                return real(encode)

            return eval_

        with contextlib.ExitStack() as stack:
            stack.callback(dispatched.set)
            for name, peer in self.nodes.items():
                if name != a:
                    stack.enter_context(
                        mock.patch.object(
                            peer.runtime, "eval", gated(peer.runtime.eval)
                        )
                    )
            futures = hub.scatter([self.encode(a, *spec) for spec in batch])
            dispatched.set()
            outcomes = []
            for future, (payload, *_rest) in zip(futures, batch):
                try:
                    outcomes.append(
                        (future.peer, self.checked(a, payload, future.result(10)))
                    )
                except FixError as exc:
                    outcomes.append((future.peer, type(exc).__name__))
        return outcomes

    def op_eval_many(self, a, here, there, also_here):
        """Two locally complete encodes around one that is not: a single
        dispatch, so no quote depends on when a reply lands."""
        batch = [(here,), there, (also_here,)]
        results = self.nodes[a].eval_many([self.encode(a, *s) for s in batch])
        return [
            self.checked(a, payload, result)
            for (payload, *_rest), result in zip(batch, results)
        ]

    def fingerprint(self):
        """Beliefs and bytes.  Not ``_Twin``'s log order: after a
        scatter the hub absorbs its peers' replies in whichever order
        their threads finish."""
        return {
            name: (
                node.view.snapshot(),
                {
                    peer: (channel.bytes_ab, channel.bytes_ba)
                    for peer, channel in sorted(node.peers.items())
                },
            )
            for name, node in self.nodes.items()
        }


def quote_soup(seed, length=50):
    """A seeded script over every placement entry point (each at least
    twice) between puts, replicas, gossip, and drops of footprint keys
    that are quoted while gone and re-put a few ops later."""
    rng = random.Random(seed)
    names = _Twin.NAMES

    def payload():
        return rng.randbytes(rng.randint(31, 200))

    def spec():
        """(payload, picks, dropped): up to three extra arguments."""
        picks = [rng.randrange(1000) for _ in range(rng.randint(0, 3))]
        return payload(), picks, rng.random() < 0.3

    makers = {
        "blob": lambda: (rng.choice(names), payload()),
        "tree": lambda: (
            rng.choice(names),
            [rng.randrange(1 << 30) for _ in range(rng.choice((0, 0, 3, 6)))],
        ),
        "copy": lambda: (rng.choice(names), rng.randrange(1000)),
        "drop": lambda: (rng.choice(names), rng.randrange(100), rng.random() < 0.5),
        "gossip": lambda: tuple(rng.sample(names, 2)),
        "bounce": lambda: (*rng.sample(names, 2), payload()),
        "quote": lambda: (rng.choice(names), *spec()),
        "delegate_best": lambda: (rng.choice(names), *spec()),
        "eval_anywhere": lambda: (rng.choice(names), *spec()),
        "scatter": lambda: (rng.choice(names), [spec() for _ in range(4)]),
        "eval_many": lambda: (rng.choice(names), payload(), spec(), payload()),
    }
    weights = dict.fromkeys(makers, 2)
    weights.update(blob=6, copy=4, gossip=6, drop=4, quote=8, scatter=1, eval_many=1)
    kinds = 2 * list(makers)
    kinds += rng.choices(
        list(weights), list(weights.values()), k=length - len(kinds)
    )
    rng.shuffle(kinds)
    script, healing = [], []
    for kind in kinds:
        op = (kind, *makers[kind]())
        script.append(op)
        if kind == "drop":
            script.append(("quote", op[1], payload(), [], True))
            healing.append([rng.randint(0, 4), op[1]])
        for wait in healing[:]:
            wait[0] -= 1
            if wait[0] < 0:
                healing.remove(wait)
                script += [("reput", wait[1]), ("quote", wait[1], *spec())]
    return script


def run_quote_twins(script, patches=()):
    """Drive a mesh quoting the old way and one running ``patches``
    (none: the shipped code) through ``script``; after every op they
    must have returned the same thing - a ``Footprint`` field for field,
    a ``Quote`` by ``==`` - and agree on every belief and channel byte."""
    twins = []
    try:
        twins.append(_QuoteTwin(REFERENCE_QUOTE))
        twins.append(_QuoteTwin(patches))
        reference, shipped = twins
        assert shipped.fingerprint() == reference.fingerprint(), "mesh"
        for step, op in enumerate(script):
            assert shipped.apply(op) == reference.apply(op), (step, op)
            assert shipped.fingerprint() == reference.fingerprint(), (step, op)
    finally:
        for twin in twins:
            twin.close()


def counts_absent_keys(repo, handle):
    """Mutant: ``data_bytes`` read off the handles the walk met, so a
    key that is not stored here counts at its handle's size."""
    fp = reference_footprint(repo, handle)
    return dataclasses.replace(fp, data_bytes=footprint(repo, handle).data_bytes)


def believed_is_local(node, encode, candidates=None, prefer_local=False):
    """Mutant: a size the view believes stands in for one the store
    holds, so ``unshippable`` shrinks and a footprint can look complete."""
    fp = net.transitive_footprint(node.repo, encode)
    local = {
        key: size
        for key in fp.data
        if (size := node.view.believed_size(key))
    }
    local.update(node.repo.held_sizes(fp.data))
    return price_like_the_parent(
        node, encode, fp, local, candidates, prefer_local
    )


def answers_for_the_whole_store(repo, keys):
    """Mutant: ``held_sizes`` returns keys it was not asked about."""
    return dict(repo.sizes_beyond(()))


QUOTE_MUTANTS = {
    "counts_absent_keys": ((net, "transitive_footprint", counts_absent_keys),),
    "believed_is_local": ((FixpointNode, "_place", believed_is_local),),
    "answers_for_the_whole_store": (
        (Repository, "held_sizes", answers_for_the_whole_store),
    ),
}


class TestAQuoteIsTheQuoteTheScanGave:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_quotes_as_the_full_scan(self, seed):
        run_quote_twins(quote_soup(seed))

    @pytest.mark.parametrize("mutant", sorted(QUOTE_MUTANTS))
    def test_the_oracle_catches_a_wrong_quote(self, mutant):
        with pytest.raises(AssertionError):
            run_quote_twins(quote_soup(0), QUOTE_MUTANTS[mutant])

    def test_a_believed_key_still_strands_the_peers_without_it(self):
        """``unshippable`` by hand: n0 holds ``big`` (so does n2) and
        has only heard of ``small`` (n1's).  n2 is cheaper by bytes but
        would be stranded without ``small``; only a quote that knows n0
        cannot ship it sends the work to n1."""
        script = [
            ("blob", "n1", b"small" * 8),
            ("blob", "n2", b"big" * 400),
            ("copy", "n0", 1),
            ("gossip", "n0", "n1"),
            ("gossip", "n0", "n2"),
            ("quote", "n0", b"p" * 40, [0, 1], False),
        ]
        run_quote_twins(script)
        with pytest.raises(AssertionError):
            run_quote_twins(script, QUOTE_MUTANTS["believed_is_local"])
        twin = _QuoteTwin()
        try:
            _fp, quote = [twin.apply(op) for op in script][-1]
            assert quote.candidate == "n1" and quote.move_bytes > 1200
        finally:
            twin.close()


def hub_with_resident(resident):
    """A hub storing ``resident`` objects (50 of them Trees) connected
    to two peers that, like it, hold the twice codelet; and four encodes
    on the hub, each with a fresh stored argument."""
    hub, left, right = (FixpointNode(n) for n in ("hub", "left", "right"))
    twice = [
        node.runtime.compile(TWICE_SOURCE, "twice") for node in (hub, left, right)
    ][0]
    for i in range(resident - 50):
        hub.repo.put_blob(b"resident/%d " % i * 6)
    for i in range(50):
        hub.repo.put_tree([hub.repo.put_blob(int_blob(i))] * (i % 17))
    assert len(hub.repo) >= resident
    hub.connect(left)
    hub.connect(right)
    encodes = [
        make_application(
            hub.repo, twice, [hub.repo.put_blob(b"argument %d " % i * 4)]
        ).wrap_strict()
        for i in range(4)
    ]
    return [hub, left, right], encodes


class TestAQuoteCostsItsFootprint:
    def test_quotes_hash_nothing_and_a_dispatch_scans_once(self, monkeypatch):
        """Neither a quote nor a dispatch re-hashes the store.  A scatter
        of 4 never calls ``Repository.handles``, and it hashes the same
        data - the peers' results and what each receiver verifies -
        whether the hub holds 500 objects or 1 000."""
        nodes = []
        calls = collections.Counter()
        _count_calls(monkeypatch, core_handle, "blob_digest", calls)
        _count_calls(monkeypatch, core_data, "tree_digest", calls)
        _count_calls(monkeypatch, Repository, "handles", calls)
        _count_calls(
            monkeypatch,
            net,
            "transitive_footprint",
            calls,
            tag=lambda args: args[0] is nodes[0].repo,
        )
        digests = []
        for resident in (500, 1000):
            nodes, encodes = hub_with_resident(resident)
            hub = nodes[0]
            calls.clear()
            for _ in range(5):
                for encode in encodes:
                    assert hub.quote_best(encode).candidate == "left"
            assert calls == {("transitive_footprint", True): 20}
            calls.clear()

            for future in hub.scatter(encodes):
                future.result(10)
            digests.append(
                [calls.pop((name, None), 0) for name in ("blob_digest", "tree_digest")]
            )
            assert calls == {
                ("transitive_footprint", True): 4,
                ("transitive_footprint", False): 4,
            }
            calls.clear()

            # delegate_best hands its quote's footprint to the dispatch.
            hub.delegate_best(encodes[0])
            assert calls["transitive_footprint", True] == 1
            assert not calls["handles", None]
            for node in nodes:
                node.close()
        assert digests[0] == digests[1]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(blob_or_tree(), min_size=1, max_size=10),
        st.integers(0, 1023),
        st.lists(st.binary(min_size=25, max_size=25), max_size=3),
    )
    def test_held_sizes_is_the_listing_asked_by_key(self, data_in, mask, absent):
        repo = Repository()

        def check():
            listing = repo.sizes_beyond(())
            present = [key for i, (key, _) in enumerate(listing) if mask >> i & 1]
            for keys in (present, absent, present + absent, [], dict(listing)):
                assert repo.held_sizes(keys) == {
                    k: s for k, s in listing if k in keys
                }
            return dict(listing)

        for datum in data_in:
            repo.put(datum)
        before = check()
        middle = list(before)[len(before) // 2]
        datum = repo._data[middle]
        assert repo.forget_data(datum.handle())
        assert repo.held_sizes(before) == check() == {
            k: s for k, s in before.items() if k != middle
        }
        repo.put(datum)
        assert check() == before

    @settings(max_examples=60, deadline=None)
    @given(st.lists(blob_or_tree(), min_size=1, max_size=10), st.integers(0, 1023))
    def test_data_bytes_is_what_the_scan_summed(self, data_in, mask):
        """A Tree naming every datum is the footprint; ``mask`` picks
        the ones forgotten again: named, not stored, and worth 0."""
        repo = Repository()
        handles = [repo.put(datum) for datum in data_in]
        root = repo.put_tree(handles)
        gone = {h for i, h in enumerate(handles) if mask >> i & 1}
        for handle in gone:
            repo.forget_data(handle)
        fp = transitive_footprint(repo, root)
        assert fp == reference_footprint(repo, root)
        held = {root, *handles} - gone
        assert fp.data_bytes == sum(
            h.byte_size() for h in held if not h.is_literal
        )
        assert fp.data >= {h.content_key() for h in gone if not h.is_literal}


# ----------------------------------------------------------------------
# The shipping filter asks the store by key


def store_ops():
    """A script of store writes and removals: puts of Blobs and Trees
    (a Tree names earlier handles), drops, absorbs of another store, and
    GC passes over a recipe index that covers a picked subset."""
    pick = st.integers(0, 1 << 10)
    return st.lists(
        st.one_of(
            st.tuples(st.just("put"), blob_or_tree()),
            st.tuples(st.just("tree"), st.lists(pick, max_size=6)),
            st.tuples(st.just("forget"), pick),
            st.tuples(st.just("absorb"), st.lists(blob_or_tree(), max_size=4)),
            st.tuples(st.just("gc"), st.integers(0, 1023), st.integers(0, 1 << 17)),
        ),
        min_size=1,
        max_size=12,
    )


@settings(max_examples=60, deadline=None)
@given(
    store_ops(),
    st.integers(0, (1 << 32) - 1),
    st.lists(
        st.tuples(st.sampled_from(b"BT"), st.binary(min_size=24, max_size=24)).map(
            lambda pair: bytes([pair[0]]) + pair[1]
        ),
        max_size=3,
    ),
)
def check_handles_of_is_the_scan_asked_by_key(ops, mask, absent):
    """``handles_of(keys)`` is the hashing scan filtered to ``keys``,
    in the same order, for every store the ops build and for key sets
    that mix held, forgotten and never-stored keys."""
    repo = Repository()
    named = []  # every handle a put returned, stored now or not
    encode = Repository().put_tree([]).make_application().wrap_strict()

    def check():
        scan = list(repo.handles())
        held = {h.content_key() for i, h in enumerate(scan) if mask >> i & 1}
        gone = {h.content_key() for h in named} - {h.content_key() for h in scan}
        for keys in (held, set(absent), held | gone | set(absent), set(), gone):
            assert repo.handles_of(frozenset(keys)) == [
                h for h in scan if h.content_key() in keys
            ]

    for op in ops:
        if op[0] == "put":
            named.append(repo.put(op[1]))
        elif op[0] == "tree":
            children = [named[p % len(named)] for p in op[1] if named]
            named.append(repo.put_tree(children))
        elif op[0] == "forget" and named:
            repo.forget_data(named[op[1] % len(named)])
        elif op[0] == "absorb":
            other = Repository("other")
            named += [other.put(datum) for datum in op[1]]
            repo.absorb(other)
        elif op[0] == "gc":
            picked = [h for i, h in enumerate(repo.handles()) if op[1] >> i & 1]
            index = RecomputeIndex({h.content_key(): encode for h in picked})
            collect(repo, index, op[2])
        check()


HANDLES_OF = Repository.handles_of


def sorted_by_key(repo, keys):
    """Mutant: the right handles, in key order rather than store order
    (a bundle could then name a Tree before its children)."""
    return sorted(HANDLES_OF(repo, keys), key=core_handle.Handle.content_key)


def trees_sized_in_bytes(repo, keys):
    """Mutant: a Tree's handle sized by its wire bytes, not its entries."""
    return [
        core_handle.Handle.tree(h.content_key()[1:], h.byte_size())
        if h.is_tree
        else h
        for h in HANDLES_OF(repo, keys)
    ]


HANDLES_OF_MUTANTS = {
    "sorted_by_key": sorted_by_key,
    "trees_sized_in_bytes": trees_sized_in_bytes,
}


class TestTheShippingFilterAsksByKey:
    def test_handles_of_is_the_scan_asked_by_key(self):
        check_handles_of_is_the_scan_asked_by_key()

    @pytest.mark.parametrize("mutant", sorted(HANDLES_OF_MUTANTS))
    def test_the_property_catches_a_wrong_listing(self, mutant):
        with mock.patch.object(
            Repository, "handles_of", HANDLES_OF_MUTANTS[mutant]
        ), pytest.raises(AssertionError):
            check_handles_of_is_the_scan_asked_by_key()

    def test_only_gc_walks_the_store_by_hashing(self):
        """``Repository.handles`` re-hashes every stored datum; outside
        ``core/gc.py`` the runtime asks the store by key instead.  Found
        by an AST sweep of ``src/repro`` for zero-argument
        ``.handles()`` calls."""
        root = Path(net.__file__).resolve().parents[1]
        callers = set()
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "handles"
                    and not node.args
                    and not node.keywords
                ):
                    callers.add(path.relative_to(root).as_posix())
        assert callers == {"core/gc.py"}


@pytest.mark.stress
class TestGossipConcurrencyStress:
    """Concurrent gossip rounds + live delegation traffic on a 5-node
    mesh: no deadlock (bounded waits throughout), no lost inventory
    entries (after quiescing, anti-entropy makes every view agree on
    everything every node holds)."""

    NODES = 5
    DELEGATIONS = 4  # per node
    GOSSIP_ROUNDS = 6  # per node, concurrent with the delegations

    def test_concurrent_gossip_and_delegations(self):
        directory = NodeDirectory()
        nodes = [
            FixpointNode(f"n{i}", workers=2, directory=directory)
            for i in range(self.NODES)
        ]
        try:
            for i, node in enumerate(nodes):
                for other in nodes[i + 1 :]:
                    node.connect(other)  # full mesh
            fn = nodes[0].runtime.compile(FAT_INC_SOURCE, "fat-inc")
            errors = []
            futures = []
            futures_lock = threading.Lock()

            def delegate_traffic(node, base):
                try:
                    for j in range(self.DELEGATIONS):
                        encode = make_application(
                            node.repo,
                            fn,
                            [node.repo.put_blob(int_blob(base + j))],
                        ).wrap_strict()
                        with futures_lock:
                            futures.append(
                                (base + j, node, node.scatter([encode])[0])
                            )
                except BaseException as exc:  # pragma: no cover - failure
                    errors.append(exc)

            def gossip_traffic(node, index):
                try:
                    for j in range(self.GOSSIP_ROUNDS):
                        offset = 1 + j % (self.NODES - 1)  # never self
                        node.gossip_with(f"n{(index + offset) % self.NODES}")
                except BaseException as exc:  # pragma: no cover - failure
                    errors.append(exc)

            threads = []
            for index, node in enumerate(nodes):
                threads.append(
                    threading.Thread(
                        target=delegate_traffic,
                        args=(node, index * 100),
                        daemon=True,
                    )
                )
                threads.append(
                    threading.Thread(
                        target=gossip_traffic, args=(node, index), daemon=True
                    )
                )
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "stress threads deadlocked"
            assert not errors, f"stress traffic died: {errors[0]!r}"
            for value, node, future in futures:
                result = future.result(timeout=30)
                assert blob_int(node.repo.get_blob(result).data) == value + 1
            # Quiesced: a full anti-entropy sweep must reconcile every
            # view with every node's real holdings - nothing lost.
            for node in nodes:
                for other in nodes:
                    if other is not node:
                        node.gossip_with(other.name)
            for node in nodes:
                for other in nodes:
                    for key, size in other.runtime.holdings().items():
                        assert node.view.knows(key, other.name), (
                            f"{node.name} lost {other.name}'s entry"
                        )
        finally:
            for node in nodes:
                node.close()


class TestGossipLearnedPlacement:
    """Acceptance: a FixpointNode places work on a peer it learned about
    only via gossip - never directly connected at quote time."""

    def test_quote_prices_and_delegation_dials_a_gossip_learned_node(self):
        directory = NodeDirectory()
        alpha = FixpointNode("alpha", directory=directory)
        beta = FixpointNode("beta", directory=directory)
        gamma = FixpointNode("gamma", directory=directory)
        alpha.connect(beta)
        beta.connect(gamma)
        # gamma acquires the fat codelet *after* all connects: only
        # gossip can tell alpha about it.
        fn = gamma.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        beta.gossip_with("gamma")
        alpha.gossip_with("beta")
        assert "gamma" not in alpha.peers
        arg = alpha.repo.put_blob(int_blob(41))
        encode = make_application(alpha.repo, fn, [arg]).wrap_strict()
        quote = alpha.quote_best(encode)
        assert quote.candidate == "gamma"  # priced without a channel
        result = alpha.eval_anywhere(encode)
        assert blob_int(alpha.repo.get_blob(result).data) == 42
        assert gamma.delegations_served == 1
        assert beta.delegations_served == 0
        assert "gamma" in alpha.peers  # dialed on demand to place the work

    def test_concurrent_dials_share_one_channel(self):
        """Racing connects of the same pair - from either end - must
        agree on a single channel (and so a single sequence space);
        two channels would split the pair's frames and wedge delivery."""
        for trial in range(20):
            a = FixpointNode(f"a{trial}")
            b = FixpointNode(f"b{trial}")
            barrier = threading.Barrier(2)
            errors = []

            def dial(src, dst):
                try:
                    barrier.wait(timeout=10)
                    src.connect(dst)
                except BaseException as exc:  # pragma: no cover - failure
                    errors.append(exc)

            threads = [
                threading.Thread(target=dial, args=(a, b), daemon=True),
                threading.Thread(target=dial, args=(b, a), daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
                assert not thread.is_alive()
            assert not errors, f"racing connect died: {errors[0]!r}"
            assert a.peers[b.name] is b.peers[a.name]

    def test_without_a_directory_unreachable_names_are_not_candidates(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        gamma = FixpointNode("gamma")
        alpha.connect(beta)
        beta.connect(gamma)
        fn = gamma.runtime.compile(FAT_INC_SOURCE, "fat-inc")
        beta.gossip_with("gamma")
        alpha.gossip_with("beta")
        assert alpha.view.knows(fn.content_key(), "gamma")
        # Knowledge without an endpoint: placement must stick to peers
        # it can actually reach.
        assert "gamma" not in alpha._candidates()

    def test_a_dial_mid_scan_leaves_the_candidates_whole(self):
        """``_candidates`` asks the membership about each peer, and that
        takes a lock, so another thread can dial a gossip-learned peer
        (``connect`` inserts into ``peers``) or evict a dead one between
        two peers of the scan.  It used to iterate the live dict and
        die with ``RuntimeError: dictionary changed size during
        iteration``; the dial here happens on the first lookup."""
        alpha, beta, gamma, delta = (
            FixpointNode(name) for name in ("alpha", "beta", "gamma", "delta")
        )
        alpha.connect(beta)
        alpha.connect(gamma)
        undisturbed = alpha._candidates()
        is_dead = alpha.membership.is_dead
        dials = [delta]

        def dial_then_look_up(peer):
            if dials:
                alpha.connect(dials.pop())
            return is_dead(peer)

        with mock.patch.object(alpha.membership, "is_dead", dial_then_look_up):
            candidates = alpha._candidates()
        assert "delta" in alpha.peers  # the dial landed mid-scan
        assert undisturbed == ["beta", "gamma"]
        assert [name for name in candidates if name != "delta"] == undisturbed
