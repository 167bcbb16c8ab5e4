"""The shared placement policy: one cost model for both runtimes.

Covers :mod:`repro.dist.costmodel` (pricing, tie-breaks, hints), the
incremental holdings/size index in :class:`repro.dist.objectview.ObjectView`
(consistency through ``learn`` / ``sync_from_cluster`` / ``exchange``,
staleness pricing), and the acceptance property of the unification: the
simulated :class:`DataflowScheduler` and the executing
:class:`repro.fixpoint.net.FixpointNode` pick the *same* machine when
they hold the same beliefs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SchedulingError
from repro.core.minrepo import transitive_footprint
from repro.core.thunks import make_application
from repro.dist import costmodel
from repro.dist import scheduler as scheduler_module
from repro.dist.costmodel import (
    Quote,
    bid,
    choose,
    price_held,
    price_moves,
    quote,
)
from repro.dist.gossip import Participant, exchange
from repro.dist.graph import TaskSpec
from repro.dist.membership import ALIVE, Member, MembershipView
from repro.dist.objectview import ObjectView
from repro.dist.scheduler import DataflowScheduler
from repro.fixpoint.net import FixpointNode
from repro.sim.cluster import Cluster, MachineSpec
from repro.sim.engine import Simulator

MB = 1 << 20


def make_cluster(nodes=3, cores=4):
    sim = Simulator()
    cluster = Cluster(
        sim, [MachineSpec(f"node{i}", cores=cores) for i in range(nodes)]
    )
    return sim, cluster


def make_task(*inputs, output_size=8):
    return TaskSpec(
        name="t",
        fn="f",
        inputs=inputs,
        output="t.out",
        output_size=output_size,
        compute_seconds=0.0,
    )


class TestPriceMoves:
    def locations(self, table):
        return lambda name: table.get(name, ())

    def test_prices_missing_bytes_per_candidate(self):
        table = {"a": {"m1"}, "b": {"m2"}, "c": {"m1", "m2"}}
        prices = price_moves(
            [("a", 10), ("b", 20), ("c", 5)],
            self.locations(table),
            ["m1", "m2", "m3"],
        )
        assert prices == {"m1": 20, "m2": 10, "m3": 35}

    def test_unknown_object_charges_everyone(self):
        prices = price_moves(
            [("ghost", 7)], self.locations({}), ["m1", "m2"]
        )
        assert prices == {"m1": 7, "m2": 7}

    def test_locations_outside_candidates_ignored(self):
        table = {"a": {"elsewhere"}}
        prices = price_moves([("a", 10)], self.locations(table), ["m1"])
        assert prices == {"m1": 10}

    def test_duplicate_needs_counted_twice(self):
        """Mirrors ObjectView.bytes_missing, which sums per occurrence."""
        prices = price_moves(
            [("a", 10), ("a", 10)], self.locations({"a": {"m1"}}), ["m1", "m2"]
        )
        assert prices == {"m1": 0, "m2": 20}


class TestChoose:
    def test_cheapest_bytes_win(self):
        best = choose(
            ["m1", "m2"], {"m1": 100, "m2": 5}.__getitem__, lambda m: 0
        )
        assert best.candidate == "m2"
        assert best.move_bytes == 5

    def test_ties_spread_by_load_then_name(self):
        prices = {"m1": 10, "m2": 10, "m3": 10}
        loads = {"m1": 2, "m2": 0, "m3": 0}
        best = choose(prices, prices.__getitem__, loads.__getitem__)
        assert best.candidate == "m2"  # load beats m1, name beats m3

    def test_output_hint_prices_the_journey(self):
        prices = {"m1": 0, "m2": 3}
        best = choose(
            prices,
            prices.__getitem__,
            lambda m: 0,
            output_size=100,
            consumer_location="m2",
        )
        assert best.candidate == "m2"
        assert best.hint_bytes == 0  # at the consumer, the output stays put
        assert quote("m1", 0, 0, output_size=100, consumer_location="m2") == Quote(
            "m1", 0, 100, 0
        )

    def test_empty_candidates_is_an_error(self):
        with pytest.raises(SchedulingError, match="no candidate"):
            choose([], lambda m: 0, lambda m: 0)

    def test_all_candidates_excluded_names_the_cause(self):
        """Nothing to place on and everything tombstoned are different
        failures; the message says which, and how many."""
        with pytest.raises(SchedulingError, match="all 2 candidate.*excluded"):
            choose(["m1", "m2"], lambda m: 0, lambda m: 0, exclude={"m1", "m2"})


class TestSparsePricing:
    """``price_held`` is the one accumulation loop; the dense
    ``price_moves`` is a view of it."""

    TABLE = {"a": {"m1"}, "b": {"m2", "elsewhere"}, "c": {"m1", "m2"}, "z": {"m3"}}
    NEEDS = [("a", 10), ("b", 20), ("c", 5), ("z", 0), ("ghost", 7)]

    def locations(self, name):
        return self.TABLE.get(name, ())

    def test_held_lists_only_believed_holders_among_the_candidates(self):
        total, held = price_held(
            self.NEEDS, self.locations, {"m1", "m2", "m3", "m4"}
        )
        assert total == 42
        # m3 holds only the zero-size object, m4 nothing, and
        # "elsewhere" is not a candidate.
        assert held == {"m1": 15, "m2": 25, "m3": 0}

    def test_dense_prices_are_total_minus_held(self):
        candidates = ["m1", "m2", "m3", "m4"]
        total, held = price_held(self.NEEDS, self.locations, set(candidates))
        dense = price_moves(self.NEEDS, self.locations, candidates)
        assert dense == {m: total - held.get(m, 0) for m in candidates}
        assert list(dense) == candidates  # candidate order is kept

    def test_view_exposes_both_forms(self):
        view = ObjectView("sched")
        for name, locations in self.TABLE.items():
            for location in locations:
                view.learn(name, location)
        candidates = ["m1", "m2", "m3", "m4"]
        contenders, move_bytes = view.bid(self.NEEDS, frozenset(candidates))
        assert sorted(contenders) == ["m1", "m2"]  # m3 holds 0 bytes
        assert [move_bytes(m) for m in candidates] == [27, 17, 42, 42]
        assert view.price_moves(self.NEEDS, candidates) == {
            "m1": 27, "m2": 17, "m3": 42, "m4": 42,
        }


def contenders(candidates, held, **options):
    """``bid``'s contenders when each machine in ``held`` is believed to
    hold one object of that size, nothing else."""
    needs = [(machine, size) for machine, size in held.items()]
    return bid(needs, lambda name: (name,), candidates, **options)[0]


class TestContenders:
    """The dominance pre-filter in :func:`bid`: who can still be the
    argmin."""

    MACHINES = ["m1", "m2", "m3", "m4"]

    def test_live_holders_only(self):
        assert sorted(contenders(self.MACHINES, {"m2": 5, "m4": 1})) == ["m2", "m4"]

    def test_zero_byte_holder_is_not_a_contender_among_real_ones(self):
        assert list(contenders(self.MACHINES, {"m2": 5, "m3": 0})) == ["m2"]

    def test_nothing_held_means_everyone(self):
        assert list(contenders(self.MACHINES, {})) == self.MACHINES
        assert list(contenders(self.MACHINES, {"m3": 0})) == self.MACHINES

    def test_every_holder_tombstoned_means_everyone(self):
        assert (
            list(contenders(self.MACHINES, {"m2": 5}, exclude={"m2"}))
            == self.MACHINES
        )

    def test_hinted_consumer_joins_the_holders(self):
        got = contenders(self.MACHINES, {"m2": 5}, consumer_location="m4")
        assert sorted(got) == ["m2", "m4"]
        # ...once, even when it is a holder itself
        got = contenders(self.MACHINES, {"m2": 5}, consumer_location="m2")
        assert list(got) == ["m2"]

    def test_consumer_outside_the_candidates_is_never_added(self):
        got = contenders(self.MACHINES, {"m2": 5}, consumer_location="client")
        assert list(got) == ["m2"]


class TestHoldingsIndex:
    def assert_consistent(self, view, names, locations):
        """Forward map, inverted holdings index, and knows() agree."""
        for name in names:
            for loc in locations:
                assert view.knows(name, loc) == (loc in view.where(name))
                assert (name in view.holdings(loc)) == view.knows(name, loc)

    def test_learn_maintains_index(self):
        view = ObjectView("n0")
        view.learn("x", "m1", 10)
        view.learn("x", "m2", 10)
        view.learn("y", "m1", 4)
        assert view.holdings("m1") == {"x", "y"}
        assert view.holdings("m2") == {"x"}
        assert view.holdings("m3") == set()
        assert view.bytes_held("m1") == 14
        assert view.believed_size("x") == 10
        assert view.believed_size("ghost") == 0
        self.assert_consistent(view, ["x", "y"], ["m1", "m2", "m3"])

    def test_sync_from_cluster_maintains_index(self):
        sim, cluster = make_cluster()
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        cluster.add_object("b", 20, "node2")
        view = ObjectView("node0")
        view.sync_from_cluster(cluster)
        assert view.holdings("node1") == {"b"}
        assert view.bytes_held("node2") == 20
        self.assert_consistent(view, ["a", "b"], ["node0", "node1", "node2"])

    def test_exchange_maintains_index_and_sizes(self):
        sim, cluster = make_cluster()
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        v0, v1 = ObjectView("node0"), ObjectView("node1")
        v0.refresh_local(cluster)
        v1.refresh_local(cluster)
        exchange(Participant(v0), Participant(v1))
        for view in (v0, v1):
            assert view.holdings("node0") == {"a"}
            assert view.holdings("node1") == {"b"}
            assert view.believed_size("a") == 10
            assert view.believed_size("b") == 20
            self.assert_consistent(view, ["a", "b"], ["node0", "node1"])

    def test_bytes_missing_many_matches_per_machine(self):
        sim, cluster = make_cluster(nodes=4)
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        cluster.add_object("c", 30, "node1")
        view = ObjectView("sched")
        view.sync_from_cluster(cluster)
        names = ["a", "b", "c"]
        machines = cluster.machine_names()
        many = view.bytes_missing_many(cluster, names, machines)
        assert many == {
            m: view.bytes_missing(cluster, names, m) for m in machines
        }


class TestStaleness:
    def test_missed_replica_prices_a_redundant_fetch(self):
        """A replica the view never saw must cost a (redundant) transfer,
        never a failure - beliefs price, ground truth settles."""
        sim, cluster = make_cluster()
        cluster.add_object("x", 10 * MB, "node0")
        cluster.add_object("y", 1 * MB, "node1")
        view = ObjectView("sched")
        view.sync_from_cluster(cluster)
        cluster.add_object("x", 10 * MB, "node1")  # replica the view missed
        # Belief says node1 must fetch x; ground truth says it is free.
        assert view.bytes_missing(cluster, ["x", "y"], "node1") == 10 * MB
        assert cluster.bytes_missing(["x", "y"], "node1") == 0
        # The stale scheduler therefore places at node0 and pays y's
        # journey - the staleness-induced redundant transfer.
        sched = DataflowScheduler(cluster, view)
        task = TaskSpec(
            name="t",
            fn="f",
            inputs=("x", "y"),
            output="t.out",
            output_size=8,
            compute_seconds=0.1,
        )
        placement = sched.place(task)
        assert placement.machine == "node0"
        assert placement.predicted_move_bytes == 1 * MB

    def test_engine_survives_view_staleness_end_to_end(self):
        """Replicas created by fetches are invisible to the scheduler's
        view (only outputs are learned) - the run must still complete and
        the view must provably lag ground truth."""
        from repro.dist.engine import FixpointSim
        from repro.dist.graph import JobGraph

        platform = FixpointSim.build(nodes=3, cores=4)
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
        # b consumes a.out next to big1: a.out gets fetched to node1...
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
        result = platform.run(graph)
        assert set(result.task_finish) == {"a", "b"}
        # ...so ground truth has a replica at node1 that the scheduler's
        # view never learned (fetch replicas are not note_output'd).
        view = platform.scheduler.view
        locations = platform.cluster.locate("a.out")
        assert "node1" in locations
        assert view.where("a.out") == {"node0"}
        # Pricing a follow-up at node1 with the stale view charges the
        # redundant fetch; ground truth knows it would be free.
        assert (
            view.bytes_missing(platform.cluster, ["a.out"], "node1") == 4 * MB
        )
        assert platform.cluster.bytes_missing(["a.out"], "node1") == 0


SOURCE_CONCAT = (
    "def _fix_apply(fix, input):\n"
    "    entries = fix.read_tree(input)\n"
    "    blobs = [fix.read_blob(e) for e in entries[2:]]\n"
    "    return fix.create_blob(b''.join(blobs))\n"
)


class TestOnePolicyBothRuntimes:
    """Acceptance: given the same believed view, the executing runtime's
    delegation and the simulated scheduler resolve to the same machine
    (both go through :func:`repro.dist.costmodel.choose`)."""

    def build_nodes(self):
        alpha = FixpointNode("alpha")
        beta = FixpointNode("beta")
        gamma = FixpointNode("gamma")
        big = bytes(range(256)) * 4  # 1 KiB, lives on beta (and alpha ships none of it)
        small = b"s" * 40  # 40 B, lives on gamma and alpha
        hbig = beta.repo.put_blob(big)
        hsmall = gamma.repo.put_blob(small)
        alpha.repo.put_blob(small)
        fn_beta = beta.runtime.compile(SOURCE_CONCAT, "concat")
        fn_gamma = gamma.runtime.compile(SOURCE_CONCAT, "concat")
        assert fn_beta == fn_gamma  # content-addressed: one handle
        alpha.connect(beta)
        alpha.connect(gamma)
        encode = make_application(
            alpha.repo, fn_beta, [hbig, hsmall]
        ).wrap_strict()
        return alpha, beta, gamma, encode

    def mirror_into_scheduler(self, alpha, encode, peers=("beta", "gamma")):
        """Rebuild alpha's exact beliefs as a cluster + ObjectView."""
        fp = transitive_footprint(alpha.repo, encode)
        local = alpha.runtime.holdings()
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec(peer, cores=4) for peer in peers])
        view = ObjectView("sched")
        names = []
        for key in sorted(fp.data):
            name = key.hex()
            size = local.get(key, alpha.view.believed_size(key))
            holders = alpha.view.where(key) & set(peers)
            # The registry needs some location; data only alpha holds
            # starts at the (non-machine) client endpoint.
            for location in holders or {"client"}:
                cluster.add_object(name, size, location)
            for location in holders:
                view.learn(name, location, size)
            names.append(name)
        sched = DataflowScheduler(cluster, view)
        task = TaskSpec(
            name="t",
            fn="f",
            inputs=tuple(names),
            output="t.out",
            output_size=8,
            compute_seconds=0.1,
        )
        return sched, task

    def test_both_pick_the_same_machine(self):
        alpha, beta, gamma, encode = self.build_nodes()
        net_quote = alpha.quote_best(encode)
        sched, task = self.mirror_into_scheduler(alpha, encode)
        placement = sched.place(task)
        # Same winner AND the same believed price, down to the byte.
        assert placement.machine == net_quote.candidate == "beta"
        assert placement.predicted_move_bytes == net_quote.move_bytes
        # The choice is real: eval_anywhere delegates to that machine
        # and the evaluation succeeds there.
        result = alpha.eval_anywhere(encode)
        assert beta.delegations_served == 1
        assert gamma.delegations_served == 0
        payload = alpha.repo.get_blob(result).data
        assert payload == bytes(range(256)) * 4 + b"s" * 40

    def test_load_feedback_moves_both_the_same_way(self):
        """Tip the tie-break with load on both sides: same flip."""
        alpha, beta, gamma, encode = self.build_nodes()
        # Make beta and gamma equal-priced by giving gamma the big blob
        # too (alpha learns of it late - another inventory exchange).
        big = bytes(range(256)) * 4
        hbig = gamma.repo.put_blob(big)
        alpha.view.learn(hbig.content_key(), "gamma", hbig.byte_size())
        small = b"s" * 40
        hsmall = alpha.repo.put_blob(small)
        alpha.view.learn(hsmall.content_key(), "beta", hsmall.byte_size())
        alpha.view.learn(hsmall.content_key(), "gamma", hsmall.byte_size())
        assert alpha.quote_best(encode).candidate == "beta"  # name tie-break
        alpha.outstanding["beta"] = 3
        assert alpha.quote_best(encode).candidate == "gamma"  # load wins
        sched, task = self.mirror_into_scheduler(alpha, encode)
        sched.task_started("beta")
        assert sched.place(task).machine == "gamma"


class TestOnePolicyManySeeds:
    """The agreement test over seeded belief soups: alpha holds every
    datum (nothing is unshippable, as in the simulator), believes a
    random subset of its peers holds each one and carries random
    in-flight loads; the scheduler mirrored from those beliefs and
    loads must pick the same machine at the same price."""

    SEEDS = range(12)
    SIZES = (40, 40, 64, 64, 1024)  # above the literal limit, tie-prone

    def soup(self, seed):
        rng = random.Random(seed)
        alpha = FixpointNode("alpha")
        peers = [FixpointNode(f"p{i}") for i in range(rng.randint(2, 5))]
        for peer in peers:
            alpha.connect(peer)
        function = alpha.runtime.compile(SOURCE_CONCAT, "concat")
        data = [
            alpha.repo.put_blob(bytes([i]) * rng.choice(self.SIZES))
            for i in range(rng.randint(1, 6))
        ]
        encode = make_application(alpha.repo, function, data).wrap_strict()
        names = [peer.name for peer in peers]
        local = alpha.repo.held_sizes(transitive_footprint(alpha.repo, encode).data)
        density = rng.choice((0.0, 0.2, 0.5))  # 0.0: nobody holds a byte
        for key, size in sorted(local.items()):
            for name in names:
                if rng.random() < density:
                    alpha.view.learn(key, name, size)
        loads = {name: rng.choice((0, 0, 1, 2)) for name in names}
        alpha.outstanding.update(loads)
        return alpha, peers, encode, loads

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_winner_same_bytes(self, seed):
        alpha, peers, encode, loads = self.soup(seed)
        try:
            net_quote = alpha.quote_best(encode)
            sched, task = TestOnePolicyBothRuntimes().mirror_into_scheduler(
                alpha, encode, peers=[peer.name for peer in peers]
            )
            for name, load in loads.items():
                for _ in range(load):
                    sched.task_started(name)
            placement = sched.place(task)
            assert (placement.machine, placement.predicted_move_bytes) == (
                net_quote.candidate,
                net_quote.move_bytes,
            )
        finally:
            for node in (alpha, *peers):
                node.close()

    def test_the_soups_reach_ties_and_holders(self):
        """The seeds are not all one shape: some winners hold nothing
        (all tie), some hold part of the footprint, and some win on
        load against a peer of the same price."""
        seen = dict.fromkeys(("all_tie", "holder_wins", "load_decides"), 0)
        for seed in self.SEEDS:
            alpha, peers, encode, loads = self.soup(seed)
            try:
                fp = transitive_footprint(alpha.repo, encode)
                local = alpha.repo.held_sizes(fp.data)
                total = sum(local.values())
                prices = alpha.view.price_moves(
                    local.items(), [peer.name for peer in peers]
                )
                best = alpha.quote_best(encode)
                seen["all_tie"] += best.move_bytes == total
                seen["holder_wins"] += best.move_bytes < total
                seen["load_decides"] += any(
                    price == best.move_bytes and loads[name] > best.load
                    for name, price in prices.items()
                )
            finally:
                for node in (alpha, *peers):
                    node.close()
        assert all(count >= 2 for count in seen.values()), seen


class TestForget:
    """``ObjectView.forget``: the rollback path for optimistic advances."""

    def test_forget_retracts_location_and_holdings(self):
        view = ObjectView("alpha")
        view.learn("obj", "beta", 100)
        view.learn("obj", "gamma", 100)
        view.forget("obj", "beta")
        assert not view.knows("obj", "beta")
        assert view.where("obj") == {"gamma"}
        assert "obj" not in view.holdings("beta")

    def test_forget_keeps_size_knowledge(self):
        """Size is per-object, not per-replica: a wrong location belief
        does not invalidate what we know the object weighs."""
        view = ObjectView("alpha")
        view.learn("obj", "beta", 4096)
        view.forget("obj", "beta")
        assert view.believed_size("obj") == 4096
        # Pricing still charges the right weight once re-learned.
        view.learn("obj", "gamma")
        assert view.price_moves([("obj", 4096)], ["beta", "gamma"]) == {
            "beta": 4096,
            "gamma": 0,
        }

    def test_forget_last_location_empties_where(self):
        view = ObjectView("alpha")
        view.learn("obj", "beta", 10)
        view.forget("obj", "beta")
        assert view.where("obj") == set()
        assert len(view) == 0

    def test_forget_unknown_is_a_noop(self):
        view = ObjectView("alpha")
        view.forget("never-seen", "beta")  # must not raise
        view.learn("obj", "beta", 10)
        view.forget("obj", "gamma")  # wrong location: no change
        assert view.knows("obj", "beta")


class TestViewConcurrency:
    """The view's lock: learn/forget racing price_moves stays coherent.

    The executing runtime absorbs delegation replies on serving threads
    while the dispatcher quotes placements; without the internal lock
    the pricing pass iterates location sets that mutate under it.
    """

    def test_concurrent_learn_forget_and_price_moves(self):
        import threading

        view = ObjectView("alpha")
        names = [f"obj{i}" for i in range(50)]
        for name in names:
            view.learn(name, "beta", 10)
        needs = [(name, 10) for name in names]
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    for name in names:
                        view.learn(name, "gamma", 10)
                    for name in names:
                        view.forget(name, "gamma")
            except BaseException as exc:  # pragma: no cover - the failure
                errors.append(exc)

        thread = threading.Thread(target=churn, daemon=True)
        thread.start()
        try:
            for _ in range(300):
                prices = view.price_moves(needs, ["beta", "gamma", "delta"])
                # Atomic pass: beta always holds everything, delta never
                # does, and gamma is either fully charged or not per
                # object - never a torn read that breaks the invariant.
                assert prices["beta"] == 0
                assert prices["delta"] == 500
                assert 0 <= prices["gamma"] <= 500
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not errors, f"churn thread died: {errors[0]!r}"


# ----------------------------------------------------------------------
# Same-decision oracle: sparse pricing (``bid``) + winner-only Quote
# (what the scheduler runs) against the dense, Quote-per-candidate policy


def reference_quote(
    candidate, move_bytes, load, *, output_size=0, consumer_location=None
):
    """``costmodel.quote`` as it stood before the one-pass ``choose``,
    kept here so the oracle does not share the hint rule with its subject."""
    hint_bytes = (
        output_size
        if consumer_location is not None and candidate != consumer_location
        else 0
    )
    return Quote(
        candidate=candidate,
        move_bytes=move_bytes,
        hint_bytes=hint_bytes,
        load=load,
    )


def reference_sort_key(q: Quote) -> Tuple[int, int, str]:
    return (q.move_bytes + q.hint_bytes, q.load, q.candidate)


def reference_choose(
    candidates,
    move_bytes,
    load,
    *,
    output_size=0,
    consumer_location=None,
    exclude=None,
):
    """``costmodel.choose`` as it stood before the one-pass rewrite: a
    ``Quote`` for every live candidate, then ``min``.  The reference
    implementation the property and the seeded loop compare against."""
    quotes = [
        reference_quote(
            candidate,
            move_bytes(candidate),
            load(candidate),
            output_size=output_size,
            consumer_location=consumer_location,
        )
        for candidate in candidates
        if exclude is None or candidate not in exclude
    ]
    if not quotes:
        raise SchedulingError("no candidate locations to place on")
    return min(quotes, key=reference_sort_key)


OUTSIDE = ["ext0", "ext1"]  # believed locations that are not machines


@dataclass
class Case:
    """One placement question: beliefs, loads, hint, tombstones."""

    machines: List[str]
    sizes: Dict[str, int]
    #: ``(object, location)`` in the order the view learns them.
    beliefs: List[Tuple[str, str]]
    needs: List[str]
    loads: Dict[str, int]
    use_hints: bool
    output_size: int
    consumer: Optional[str]
    dead: FrozenSet[str]

    @property
    def sized_needs(self) -> List[Tuple[str, int]]:
        return [(name, self.sizes[name]) for name in self.needs]

    @property
    def hinted_consumer(self) -> Optional[str]:
        return self.consumer if self.use_hints else None

    def holders(self) -> List[str]:
        """Machines believed to hold at least one needed object."""
        return sorted(
            {
                location
                for name, location in self.beliefs
                if name in self.needs and location in self.loads
            }
        )

    def view(self, order: Optional[random.Random] = None) -> ObjectView:
        beliefs = list(self.beliefs)
        if order is not None:
            order.shuffle(beliefs)
        view = ObjectView("sched")
        for name, location in beliefs:
            view.learn(name, location, self.sizes[name])
        return view


def random_case(rng: random.Random) -> Case:
    """Small numbers on purpose: sizes 0-8 and loads 0-2 make byte ties,
    load ties and zero-byte holders the common case, not the rare one."""
    machines = [f"m{i}" for i in range(rng.randint(1, 8))]
    sizes = {
        f"o{i}": rng.choice((0, 0, 1, 1, 2, 3, 5, 8))
        for i in range(rng.randint(1, 6))
    }
    places = machines + OUTSIDE
    beliefs = [
        (name, location)
        for name in sizes
        for location in rng.sample(places, rng.randint(0, min(3, len(places))))
    ]
    needs = [rng.choice(sorted(sizes)) for _ in range(rng.randint(1, 6))]
    case = Case(
        machines=machines,
        sizes=sizes,
        beliefs=beliefs,
        needs=needs,  # drawn with replacement: duplicates happen
        loads={m: rng.randint(0, 2) for m in machines},
        use_hints=rng.random() < 0.6,
        output_size=rng.choice((0, 0, 1, 4, 30)),
        consumer=None,
        dead=frozenset(),
    )
    holders = case.holders()
    case.consumer = rng.choice(
        [None, rng.choice(machines), OUTSIDE[0]] + holders[:1]
    )
    case.dead = frozenset(
        rng.choice(
            [
                [],
                [],
                holders[:1],
                holders,
                rng.sample(machines, rng.randint(0, len(machines))),
                machines,
            ]
        )
    )
    return case


def outcome(decide, *args):
    try:
        return decide(*args)
    except SchedulingError:
        return "SchedulingError"


def decide_reference(case: Case, view: ObjectView) -> Quote:
    dense = view.price_moves(case.sized_needs, case.machines)
    return reference_choose(
        case.machines,
        dense.__getitem__,
        case.loads.__getitem__,
        output_size=case.output_size,
        consumer_location=case.hinted_consumer,
        exclude=case.dead,
    )


def decide_sparse(case: Case, view: ObjectView) -> Quote:
    """The sparse path on its own: ``bid`` -> ``choose``, the calls a
    placement makes."""
    return choose(
        *view.bid(
            case.sized_needs,
            frozenset(case.machines),
            consumer_location=case.hinted_consumer,
            exclude=case.dead,
        ),
        case.loads.__getitem__,
        output_size=case.output_size,
        consumer_location=case.hinted_consumer,
        exclude=case.dead,
    )


def build_scheduler(
    case: Case, view: ObjectView, **options
) -> Tuple[DataflowScheduler, TaskSpec]:
    """The case as a real scheduler (hints, loads and tombstones wired)
    and the task that asks its question."""
    cluster = Cluster(
        Simulator(), [MachineSpec(m, cores=1) for m in case.machines]
    )
    for name, size in case.sizes.items():
        # The registry wants some location; beliefs are the view's.
        cluster.add_object(name, size, OUTSIDE[0])
    membership = MembershipView("sched")
    membership.merge([Member(m, 1, ALIVE) for m in case.machines])
    for machine in sorted(case.dead):
        membership.declare_dead(machine)
    scheduler = DataflowScheduler(
        cluster,
        view,
        use_hints=case.use_hints,
        outstanding=dict(case.loads),
        membership=membership,
        **options,
    )
    return scheduler, make_task(*case.needs, output_size=case.output_size)


def decide_placed(case: Case, view: ObjectView) -> Quote:
    """The scheduler itself, with the Quote it got from ``choose``."""
    scheduler, task = build_scheduler(case, view)
    quotes = []

    def spy(*args, **kwargs):
        quotes.append(costmodel.choose(*args, **kwargs))
        return quotes[-1]

    with mock.patch.object(scheduler_module, "choose", spy):
        placement = scheduler.place(task, case.consumer)
    (best,) = quotes
    assert placement.machine == best.candidate
    assert placement.predicted_move_bytes == best.move_bytes
    return best


def check_same_decision(case: Case, reorder: random.Random) -> object:
    """Every path gives the reference's Quote - all four fields - or
    fails where it fails, whatever order the beliefs arrived in."""
    want = outcome(decide_reference, case, case.view())
    for view in (case.view(), case.view(reorder)):
        assert outcome(decide_sparse, case, view) == want, case
        assert outcome(decide_placed, case, view) == want, case
    return want


class TestSameDecisionOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.randoms(use_true_random=False))
    def test_every_path_equals_the_dense_reference(self, rng, reorder):
        check_same_decision(random_case(rng), reorder)

    def test_two_thousand_seeded_cases(self):
        """The same property without a shrinker, plus proof that the
        generator reaches every corner the sparse path has."""
        rng = random.Random(18)
        seen = dict.fromkeys(
            (
                "refused",
                "hint_priced",
                "consumer_outside",
                "consumer_holds",
                "all_holders_dead",
                "zero_byte_holder_ties",
                "duplicate_needs",
            ),
            0,
        )
        for _ in range(2000):
            case = random_case(rng)
            want = check_same_decision(case, random.Random(rng.random()))
            holders = case.holders()
            if want == "SchedulingError":
                assert case.dead >= set(case.machines)
                seen["refused"] += 1
                continue
            assert want.candidate not in case.dead
            seen["hint_priced"] += want.hint_bytes > 0
            seen["consumer_outside"] += case.hinted_consumer in OUTSIDE
            seen["consumer_holds"] += case.hinted_consumer in holders
            seen["all_holders_dead"] += bool(holders) and case.dead >= set(holders)
            seen["duplicate_needs"] += len(set(case.needs)) < len(case.needs)
            total = sum(size for _name, size in case.sized_needs)
            seen["zero_byte_holder_ties"] += (
                want.candidate in holders and want.move_bytes == total
            )
        assert all(count >= 20 for count in seen.values()), seen

    def test_no_locality_ablation_draws_what_the_dense_path_drew(self):
        """The ``locality=False`` twin: the ablation takes the machine
        ``rng.choice`` over the live machines gives - the seeded stream
        the fig-8b rows replay - and reports that machine's
        ``bytes_missing``, tombstones or not."""
        rng = random.Random(23)
        seen = dict.fromkeys(("some_dead", "refused", "drew_a_holder"), 0)
        for seed in range(500):
            case = random_case(rng)
            view = case.view()
            scheduler, task = build_scheduler(
                case, view, locality=False, seed=seed
            )
            live = [m for m in case.machines if m not in case.dead]
            if not live:
                with pytest.raises(SchedulingError, match="confirmed dead"):
                    scheduler.place(task, case.consumer)
                seen["refused"] += 1
                continue
            draws = random.Random(seed)
            for _ in range(2):  # the stream, not just its first draw
                want = draws.choice(live)
                placement = scheduler.place(task, case.consumer)
                assert placement.machine == want, case
                assert placement.predicted_move_bytes == view.bytes_missing(
                    scheduler.cluster, case.needs, want
                ), case
                seen["drew_a_holder"] += want in case.holders()
            seen["some_dead"] += bool(case.dead)
        assert all(count >= 20 for count in seen.values()), seen

    def test_explain_leads_with_the_placement(self):
        """``explain`` is ``place`` with its working shown: same winner,
        same price, every contender quoted in ``choose`` order, and a
        machine that holds nothing listed only when all of them tie."""
        rng = random.Random(29)
        seen = dict.fromkeys(("all_tie", "holders_only", "refused"), 0)
        for _ in range(500):
            case = random_case(rng)
            scheduler, task = build_scheduler(case, case.view())
            quotes = scheduler.explain(task, case.consumer)
            assert quotes == sorted(quotes, key=reference_sort_key), case
            assert not case.dead & {q.candidate for q in quotes}, case
            if case.dead >= set(case.machines):
                assert quotes == []
                seen["refused"] += 1
                continue
            placement = scheduler.place(task, case.consumer)
            assert (quotes[0].candidate, quotes[0].move_bytes) == (
                placement.machine, placement.predicted_move_bytes,
            ), case
            total = sum(size for _name, size in case.sized_needs)
            empty_handed = [
                q.candidate
                for q in quotes
                if q.move_bytes == total and q.candidate != case.hinted_consumer
            ]
            if total and any(q.move_bytes < total for q in quotes):
                assert not empty_handed, case
                seen["holders_only"] += 1
            else:
                live = set(case.machines) - case.dead
                assert {q.candidate for q in quotes} == live, case
                seen["all_tie"] += 1
        assert all(count >= 20 for count in seen.values()), seen


# ----------------------------------------------------------------------
# ``bid`` with unshippable keys against the runtime's dense formula


def pick_unshippable(case: Case, rng: random.Random) -> List[str]:
    """Some of the task's distinct inputs, as the keys the placing node
    does not hold (zero-size ones included: they weigh 1 as keys)."""
    keys = sorted(set(case.needs))
    return rng.sample(keys, rng.randint(0, len(keys)))


def decide_dense(case: Case, view: ObjectView, unshippable) -> Quote:
    """``FixpointNode._place`` before ``bid``: a dense ``price_moves``
    for bytes, another over ``(key, 1)`` for strandedness, then
    ``choose`` over the viable candidates (all of them if none is)."""
    prices = view.price_moves(case.sized_needs, case.machines)
    stranded = view.price_moves([(key, 1) for key in unshippable], case.machines)
    viable = [m for m in case.machines if stranded[m] == 0] or case.machines
    return choose(
        viable,
        prices.__getitem__,
        case.loads.__getitem__,
        output_size=case.output_size,
        consumer_location=case.hinted_consumer,
        exclude=case.dead,
    )


def decide_bid(case: Case, view: ObjectView, unshippable) -> Quote:
    return choose(
        *view.bid(
            case.sized_needs,
            dict.fromkeys(case.machines),
            unshippable=unshippable,
            consumer_location=case.hinted_consumer,
            exclude=case.dead,
        ),
        case.loads.__getitem__,
        output_size=case.output_size,
        consumer_location=case.hinted_consumer,
        exclude=case.dead,
    )


def check_bid(case: Case, unshippable) -> object:
    """``choose(*bid(...))`` is the dense formula's Quote, and the
    scheduler (no unshippable keys) explains what it places."""
    view = case.view()
    want = outcome(decide_dense, case, view, unshippable)
    assert outcome(decide_bid, case, view, unshippable) == want, (
        case,
        unshippable,
    )
    scheduler, task = build_scheduler(case, view)
    quotes = scheduler.explain(task, case.consumer)
    placed = outcome(scheduler.place, task, case.consumer)
    if placed == "SchedulingError":
        assert quotes == [], case
    else:
        assert (quotes[0].candidate, quotes[0].move_bytes) == (
            placed.machine,
            placed.predicted_move_bytes,
        ), case
    return want


class TestBidIsTheDenseFormula:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.randoms(use_true_random=False))
    def test_bid_equals_the_dense_reference(self, rng, pick):
        case = random_case(rng)
        check_bid(case, pick_unshippable(case, pick))

    def test_two_thousand_seeded_cases(self):
        """The property without a shrinker, and proof the generator
        reaches the corners the two named mutants live in: a zero-size
        unshippable key that strands a machine (bytes would miss it)
        and a hinted consumer that wins holding nothing."""
        rng = random.Random(27)
        seen = dict.fromkeys(
            ("some_stranded", "none_viable", "zero_size_strands", "consumer_wins"),
            0,
        )
        for _ in range(2000):
            case = random_case(rng)
            unshippable = pick_unshippable(case, rng)
            want = check_bid(case, unshippable)
            view = case.view()
            keys = view.price_moves([(k, 1) for k in unshippable], case.machines)
            viable = [m for m in case.machines if keys[m] == 0]
            sized = [(k, case.sizes[k]) for k in unshippable]
            by_bytes = view.price_moves(sized, case.machines)
            seen["some_stranded"] += 0 < len(viable) < len(case.machines)
            seen["none_viable"] += bool(unshippable) and not viable
            if want == "SchedulingError":
                continue
            seen["zero_size_strands"] += bool(viable) and any(
                keys[m] and not by_bytes[m] for m in case.machines
            )
            total = sum(size for _name, size in case.sized_needs)
            seen["consumer_wins"] += (
                want.candidate == case.hinted_consumer
                and want.move_bytes == total
                and total > 0
            )
        assert all(count >= 20 for count in seen.values()), seen


class TestPlacementCostIsItsContenders:
    """Cost as a count, not a stopwatch, at 100 and at 1 000 candidates:
    every decision builds one Quote and reads the load of its contenders
    only - every machine's just when all of them tie on bytes."""

    class CountingLoads(dict):
        reads = 0

        def __getitem__(self, key):
            self.reads += 1
            return super().__getitem__(key)

    def build(self, machines, **options):
        names = [f"node{i:04d}" for i in range(machines)]
        cluster = Cluster(Simulator(), [MachineSpec(n, cores=1) for n in names])
        cluster.add_object("a", 10, names[7])
        cluster.add_object("b", 20, names[42])
        cluster.add_object("c", 5, names[7])
        cluster.add_object("c", 5, names[42])
        cluster.add_object("elsewhere", 9, "client")
        view = ObjectView("sched")
        view.sync_from_cluster(cluster)
        loads = self.CountingLoads(dict.fromkeys(names, 1))
        scheduler = DataflowScheduler(
            cluster, view, outstanding=loads, **options
        )
        return names, scheduler, loads

    @pytest.fixture
    def quotes_built(self, monkeypatch):
        built = []

        class CountingQuote(Quote):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(costmodel, "Quote", CountingQuote)
        return built

    @pytest.mark.parametrize("machines", [100, 1000])
    def test_sparse_path_reads_its_two_holders(self, machines, quotes_built):
        names, scheduler, loads = self.build(machines)
        best = choose(
            *scheduler.view.bid(
                [("a", 10), ("b", 20), ("c", 5)], frozenset(names)
            ),
            loads.__getitem__,
        )
        assert (best.candidate, best.move_bytes) == (names[42], 10)
        assert loads.reads == 2  # the contenders, not the cluster
        assert len(quotes_built) == 1

    @pytest.mark.parametrize("machines", [100, 1000])
    def test_narrow_task_builds_one_quote(self, machines, quotes_built):
        names, scheduler, loads = self.build(machines)
        placement = scheduler.place(make_task("a", "b", "c"))
        assert (placement.machine, placement.predicted_move_bytes) == (
            names[42], 10,
        )
        assert len(quotes_built) == 1
        assert loads.reads == 2  # the two holders, not the cluster

    def test_hinted_consumer_that_holds_nothing_is_the_third_read(
        self, quotes_built
    ):
        names, scheduler, loads = self.build(1000, use_hints=True)
        placement = scheduler.place(make_task("a", "b", "c"), names[500])
        # Output hint 8 < the 10 bytes node0042 saves: the holder wins,
        # but the consumer had to be priced to know.
        assert (placement.machine, placement.predicted_move_bytes) == (
            names[42], 10,
        )
        assert loads.reads == 3
        assert len(quotes_built) == 1

    @pytest.mark.parametrize("machines", [100, 1000])
    def test_no_holder_task_scans_everyone_and_spreads_by_load(
        self, machines, quotes_built
    ):
        names, scheduler, loads = self.build(machines)
        dict.__setitem__(loads, names[-1], 0)
        dict.__setitem__(loads, names[-2], 0)
        placement = scheduler.place(make_task("elsewhere"))
        # All tie on bytes: least load wins, then the smaller name.
        assert (placement.machine, placement.predicted_move_bytes) == (
            names[-2], 9,
        )
        assert loads.reads == machines
        assert len(quotes_built) == 1


class TestSharedLoadMapIsValidatedOnce:
    """A shared ``outstanding=`` map that lacks a machine is refused at
    construction: a placement reads its contenders' loads only, so the
    hole would otherwise surface for some tasks and not for others."""

    def build(self, outstanding):
        _sim, cluster = make_cluster(nodes=4)
        cluster.add_object("held", 10, "node0")
        cluster.add_object("elsewhere", 9, "client")
        view = ObjectView("sched")
        view.sync_from_cluster(cluster)
        return DataflowScheduler(cluster, view, outstanding=outstanding)

    def test_missing_machines_are_named(self):
        with pytest.raises(SchedulingError, match="node2, node3") as info:
            self.build({"node0": 0, "node1": 0})
        assert "node0" not in str(info.value)

    @pytest.mark.parametrize("inputs", [("held",), ("elsewhere",)])
    def test_holder_and_all_tie_tasks_meet_the_same_refusal(self, inputs):
        """``held`` has one contender (node0, which *is* in the map) and
        ``elsewhere`` ties all four machines: neither gets as far as a
        placement, so neither can succeed where the other fails."""
        with pytest.raises(SchedulingError, match="node2"):
            self.build({"node0": 0, "node1": 0, "node3": 0}).place(
                make_task(*inputs)
            )

    def test_complete_shared_map_is_used_not_copied(self):
        shared = {f"node{i}": 0 for i in range(4)}
        scheduler = self.build(shared)
        scheduler.task_started(scheduler.place(make_task("held")).machine)
        assert shared["node0"] == 1


class TestLoadFeedbackErrors:
    def test_unknown_machine_is_a_typed_error_on_both_sides(self):
        _sim, cluster = make_cluster()
        scheduler = DataflowScheduler(cluster, ObjectView("sched"))
        with pytest.raises(SchedulingError, match="nowhere"):
            scheduler.task_started("nowhere")
        with pytest.raises(SchedulingError, match="nowhere"):
            scheduler.task_finished("nowhere")
