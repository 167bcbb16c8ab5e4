"""Churn: one node dies - how long does its ghost haunt placement?

The bug this PR fixes: inventory gossip never invalidates, so a dead
node's believed holdings kept winning placement quotes *forever* - every
consumer of its outputs was scheduled onto (or fetched from) a corpse.
This bench measures the failure-handling loop end to end, in three
shapes:

* **detection ladder** - rounds from a kill until every survivor has
  tombstoned the dead node (= no observer's placement can choose it
  again) stay bounded by suspect + confirm + the same ~log2(n) epidemic
  spread inventory pays, not O(n) and never unbounded;
* **lost work completes on survivors** - delegations in flight toward
  the dead node fail fast (closed channels wake parked waiters), roll
  back their optimistic view advance, and ``retry_elsewhere`` re-quotes
  them onto survivors through the same cost model as any dispatch;
* **bounded long-run state** - re-learning what a view already believes
  logs nothing: a content key's size never changes, so the traffic Fix
  produces leaves one log entry per belief however often it repeats;
* **rejoin readmission ladder** - rounds from a restart (one SWIM
  incarnation past the tombstone) until every survivor readmits the
  node stay on the same O(log n) epidemic schedule as detection, the
  rejoined node's fresh-epoch holdings win placements again, and its
  pre-death beliefs stay buried (no resurrection).

Nothing is persisted: the ladders are printed and asserted on.  The
32-node rows are also pinned, run after run, by ``benchmarks/perf``'s
``dist.membership.rounds_to_tombstone`` / ``rounds_to_readmit`` /
``bytes_32n``; growth in n is measured only here.
"""

from __future__ import annotations

import math

from repro.dist.costmodel import choose
from repro.dist.gossip import GossipCoordinator
from repro.dist.objectview import ObjectView

MB = 1 << 20

CLUSTER_SIZES = [4, 10, 32]
SUSPECT_AFTER = 3
CONFIRM_AFTER = 3
DETECTION_BUDGET = 64


# ----------------------------------------------------------------------
# Detection ladder: rounds from kill to universal tombstone


def _seeded_coordinator(n: int):
    views = [ObjectView(f"node{i:03d}") for i in range(n)]
    for i, view in enumerate(views):
        view.learn(f"obj-{i}", view.node, 4 * MB)
    coordinator = GossipCoordinator(
        views,
        fanout=1,
        seed=3,
        membership=True,
        suspect_after=SUSPECT_AFTER,
        confirm_after=CONFIRM_AFTER,
    )
    # Warm up: every heartbeat (and every belief) has spread before the
    # failure - the worst case for the ghost, best case for its data.
    coordinator.run(max_rounds=DETECTION_BUDGET)
    return views, coordinator


def _placement_for(observer, detector, target, machines):
    """One scheduler-style decision: cheapest believed holder of
    ``target``, dead candidates excluded by the shared cost model."""
    prices = observer.price_moves([(target, 4 * MB)], machines)
    return choose(
        machines,
        prices.__getitem__,
        lambda m: 0,
        exclude=detector.dead_nodes(),
    ).candidate


def detection_experiment(n: int):
    views, coordinator = _seeded_coordinator(n)
    victim = views[-1].node
    target = f"obj-{n - 1}"  # the object only the victim holds
    survivors = [v for v in views if v.node != victim]
    machines = [v.node for v in views]

    # The bug, demonstrated: before detection, every observer's
    # placement still quotes the corpse as the cheapest holder.
    haunted = sum(
        1
        for view in survivors
        if _placement_for(
            view,
            coordinator.membership_view(view.node),
            target,
            machines,
        )
        == victim
    )

    coordinator.kill(victim)
    rounds = 0
    while len(coordinator.declared_dead(victim)) < len(survivors):
        coordinator.round()
        rounds += 1
        if rounds >= DETECTION_BUDGET:
            raise AssertionError(
                f"{n}-node cluster never tombstoned {victim}"
            )

    # The fix, demonstrated: no observer can place on the dead node
    # (its beliefs are evicted AND the cost model excludes it), and no
    # survivor tombstoned another survivor.
    for view in survivors:
        detector = coordinator.membership_view(view.node)
        assert detector.dead_nodes() == {victim}
        assert view.is_evicted(victim)
        assert (
            _placement_for(view, detector, target, machines) != victim
        )

    last = coordinator.rounds[-1]
    handshake_bytes = last.membership_bytes / max(1, len(last.pairs))
    return {
        "nodes": n,
        "haunted_before": haunted,
        "rounds_to_tombstone": rounds,
        "log2n": math.ceil(math.log2(n)),
        "bound": SUSPECT_AFTER
        + CONFIRM_AFTER
        + 2 * math.ceil(math.log2(n))
        + 4,
        "membership_bytes_per_handshake": handshake_bytes,
    }


# ----------------------------------------------------------------------
# Rejoin ladder: rounds from restart to universal readmission


def rejoin_experiment(n: int):
    """Kill -> converge the tombstone -> restart one incarnation up ->
    measure rounds until every survivor readmits the node, then prove
    placement trusts it again and the dead epoch stays dead."""
    views, coordinator = _seeded_coordinator(n)
    victim = views[-1].node
    old_target = f"obj-{n - 1}"  # held only by the victim's first life
    survivors = [v for v in views if v.node != victim]
    machines = [v.node for v in views]

    coordinator.kill(victim)
    rounds = 0
    while len(coordinator.declared_dead(victim)) < len(survivors):
        coordinator.round()
        rounds += 1
        if rounds >= DETECTION_BUDGET:
            raise AssertionError(
                f"{n}-node cluster never tombstoned {victim}"
            )

    fresh = coordinator.restart(victim)
    new_target = "obj-reborn"
    fresh.learn(new_target, victim, 4 * MB)  # the reboot's own disk

    readmit_rounds = 0
    while len(coordinator.readmitted(victim)) < len(survivors):
        coordinator.round()
        readmit_rounds += 1
        if readmit_rounds >= DETECTION_BUDGET:
            raise AssertionError(
                f"{n}-node cluster never readmitted {victim}"
            )
    # Let the fresh epoch's inventory finish its own epidemic spread.
    spread_rounds = 0
    while any(
        view.where(new_target) != {victim} for view in survivors
    ):
        coordinator.round()
        spread_rounds += 1
        if spread_rounds >= DETECTION_BUDGET:
            raise AssertionError(
                f"{victim}'s fresh holdings never reached every survivor"
            )

    for view in survivors:
        detector = coordinator.membership_view(view.node)
        assert not detector.is_dead(victim)
        assert not view.is_evicted(victim)
        # Readmitted: the rejoined node wins placement for its fresh
        # holdings again...
        assert (
            _placement_for(view, detector, new_target, machines) == victim
        )
        # ...while the first life's beliefs stayed buried.
        assert view.where(old_target) == set()

    return {
        "nodes": n,
        "rounds_to_readmit": readmit_rounds,
        "rounds_to_respread": readmit_rounds + spread_rounds,
        "log2n": math.ceil(math.log2(n)),
        "bound": 2 * math.ceil(math.log2(n)) + 6,
    }


# ----------------------------------------------------------------------
# Lost work: kill a peer mid-scatter, re-delegate, complete on survivors


def lost_work_experiment():
    from repro.codelets.stdlib import blob_int, int_blob
    from repro.fixpoint.net import FixpointNode, NetworkError
    from repro.obs import Obs

    obs = Obs("churn")
    nodes = [
        FixpointNode(f"n{i}", obs=obs, suspect_after=2, confirm_after=2)
        for i in range(4)
    ]
    caller, victim = nodes[0], nodes[-1]
    try:
        for i, node in enumerate(nodes):
            for other in nodes[i + 1 :]:
                node.connect(other)
        caller.peers[victim.name].latency = 0.1  # frames park in flight

        fn = caller.runtime.stdlib["add_u8"]
        encodes = [
            caller.runtime.invoke(
                fn,
                [
                    caller.repo.put_blob(int_blob(i, 1)),
                    caller.repo.put_blob(int_blob(i + 1, 1)),
                ],
            ).wrap_strict()
            for i in range(12)
        ]
        futures = caller.scatter(encodes)
        victim.crash()
        for _ in range(8):  # detection runs concurrently with the work
            for node in nodes[:-1]:
                node.gossip_sweep()

        retried = 0
        for index, future in enumerate(futures):
            try:
                result = future.result(timeout=30.0)
            except NetworkError:
                retry = caller.retry_elsewhere(future)
                assert retry.peer != victim.name
                result = retry.result(timeout=30.0)
                retried += 1
            assert blob_int(caller.repo.get_blob(result).data) == (
                2 * index + 1
            )

        assert all(
            node.membership.is_dead(victim.name) for node in nodes[:-1]
        )
        counters = obs.export()["metrics"]["counters"]

        def total(name):
            return sum(s["value"] for s in counters.get(name, []))

        return {
            "delegations": len(futures),
            "retried": retried,
            "rollbacks": total("delegation_rollbacks_total"),
            "retries_counted": total("delegation_retries_total"),
            "evictions": total("membership_evictions_total"),
        }
    finally:
        for node in nodes:
            node.close()


# ----------------------------------------------------------------------
# Long-run state: re-learning the same beliefs logs nothing


def bounded_state_experiment(relearns: int = 20_000):
    """16 names on each of 4 peers, re-learned over and over, each name
    at its one size (a content key's size is fixed by its content)."""
    view = ObjectView("long-lived")
    for i in range(relearns):
        name = (i // 4) % 16
        view.learn(f"hot-{name}", f"peer{i % 4}", 1 + name)
    stats = view.stats()
    # A follower that merges the whole log sees the same beliefs.
    follower = ObjectView("follower")
    follower.merge_delta(view.delta_since(follower.digest()))
    assert follower.snapshot() == view.snapshot()
    return {
        "relearns": relearns,
        "replicas": stats["replicas"],
        "log_entries": stats["log_entries"],
    }


# ----------------------------------------------------------------------


def test_churn_detection_recovery_and_bounded_state(benchmark, run_once):
    def experiment():
        ladder = [detection_experiment(n) for n in CLUSTER_SIZES]
        rejoin = [rejoin_experiment(n) for n in CLUSTER_SIZES]
        lost = lost_work_experiment()
        state = bounded_state_experiment()
        return ladder, rejoin, lost, state

    ladder, rejoin, lost, state = run_once(benchmark, experiment)

    print("\n nodes  haunted  rounds-to-tombstone  bound  member-B/handshake")
    for row in ladder:
        print(
            f"{row['nodes']:6d} {row['haunted_before']:8d} "
            f"{row['rounds_to_tombstone']:20d} {row['bound']:6d} "
            f"{row['membership_bytes_per_handshake']:18,.0f}"
        )
    print("\n nodes  rounds-to-readmit  rounds-to-respread  bound")
    for row in rejoin:
        print(
            f"{row['nodes']:6d} {row['rounds_to_readmit']:18d} "
            f"{row['rounds_to_respread']:19d} {row['bound']:6d}"
        )
    print(
        f"lost work: {lost['retried']}/{lost['delegations']} delegations "
        f"re-delegated, {lost['rollbacks']:.0f} rollbacks, "
        f"{lost['evictions']:.0f} evictions"
    )
    print(
        f"long-run state: {state['relearns']:,d} re-learns of "
        f"{state['replicas']} beliefs -> {state['log_entries']} log entries"
    )

    # The bug was real: before detection, the corpse's data held every
    # survivor's placement hostage.
    for row in ladder:
        assert row["haunted_before"] == row["nodes"] - 1, row

    # Bounded detection, O(log n)-style: suspect + confirm + epidemic
    # spread, with slack - and nowhere near linear in cluster size.
    for row in ladder:
        assert row["rounds_to_tombstone"] <= row["bound"], row
    by_nodes = {row["nodes"]: row for row in ladder}
    assert (
        by_nodes[32]["rounds_to_tombstone"]
        <= by_nodes[4]["rounds_to_tombstone"]
        + 2 * (by_nodes[32]["log2n"] - by_nodes[4]["log2n"])
        + 4
    )
    # Membership piggyback is O(nodes) bytes, not O(objects): one
    # handshake swaps two full maps at a few dozen bytes per node.
    for row in ladder:
        assert row["membership_bytes_per_handshake"] < row["nodes"] * 64

    # Readmission rides the same epidemic schedule as detection minus
    # the suspect/confirm lag (the rejoin assertion is direct evidence,
    # not inferred silence): O(log n)-ish rounds, nowhere near linear.
    for row in rejoin:
        assert 1 <= row["rounds_to_readmit"] <= row["bound"], row
        assert row["rounds_to_respread"] <= row["bound"] + 2 * row["log2n"], row
    by_nodes = {row["nodes"]: row for row in rejoin}
    assert (
        by_nodes[32]["rounds_to_readmit"]
        <= by_nodes[4]["rounds_to_readmit"]
        + 2 * (by_nodes[32]["log2n"] - by_nodes[4]["log2n"])
        + 4
    )

    # Every delegation completed on a survivor; the in-flight ones were
    # genuinely lost (rolled back) and genuinely re-delegated.
    assert lost["retried"] >= 1
    assert lost["rollbacks"] >= lost["retried"]
    assert lost["retries_counted"] == lost["retried"]
    assert lost["evictions"] >= 3  # each survivor evicted the victim

    # Long-lived views stay bounded: 20k re-learns of 16 x 4 beliefs
    # leave one log entry each.
    assert state["replicas"] == state["log_entries"] == 64
