"""Gossip anti-entropy: convergence, delta savings, staleness waste.

The ROADMAP flagged the pairwise inventory handshake as the
large-cluster blocker: all-pairs is O(n^2) and every one re-shipped
full state.  This bench measures what the epidemic digest/delta replacement
buys, in three shapes:

* **convergence** - rounds until every view equals the union grow
  ~logarithmically in cluster size (a 100-node cluster converges in
  <= 10 rounds), not linearly;
* **delta vs full state** - the same seeded schedule shipping only
  uncovered entries moves a fraction of the ablation's bytes, and a
  converged round is ~digest-only;
* **staleness-induced redundant transfers** - a scheduler that last
  synchronized at connect time prices data as missing that a fresh
  replica already holds, so placements re-fetch bytes that never needed
  to move; gossip rounds between outputs drive that waste down.  The
  bench counts exactly those bytes (believed-missing minus truly-missing
  at the chosen machine) and asserts gossip < connect-time-only.
"""

from __future__ import annotations

import math

from repro.dist.costmodel import choose
from repro.dist.gossip import GossipCoordinator
from repro.dist.objectview import EMPTY_DIGEST, ObjectView

MB = 1 << 20

CLUSTER_SIZES = [4, 10, 32, 100]
OBJECTS_PER_NODE = 3
CONVERGENCE_BUDGET = 64


def seeded_views(n: int):
    views = [ObjectView(f"node{i:03d}") for i in range(n)]
    for i, view in enumerate(views):
        for j in range(OBJECTS_PER_NODE):
            view.learn(f"obj-{i}-{j}", view.node, 1 * MB)
    return views


def convergence_rounds(n: int):
    coordinator = GossipCoordinator(seeded_views(n), fanout=1, seed=0)
    rounds = coordinator.run(max_rounds=CONVERGENCE_BUDGET)
    return rounds, coordinator


def full_state_bytes(views, rounds) -> int:
    """The ablation baseline: replay ``rounds`` (a coordinator's
    schedule, pair for pair) on fresh ``views``, re-shipping both full
    states on every handshake with no digests first - what the
    pre-digest exchange did.  Returns the bytes that crossed."""
    by_node = {view.node: view for view in views}
    shipped = 0
    for stats in rounds:
        for initiator, responder in stats.pairs:
            mine = by_node[initiator].delta_since(EMPTY_DIGEST)
            theirs = by_node[responder].delta_since(EMPTY_DIGEST)
            by_node[responder].merge_delta(mine)
            by_node[initiator].merge_delta(theirs)
            shipped += mine.wire_bytes() + theirs.wire_bytes()
    return shipped


def run_convergence_ladder():
    rows = []
    for n in CLUSTER_SIZES:
        rounds, delta_coord = convergence_rounds(n)
        rows.append(
            {
                "nodes": n,
                "rounds": rounds,
                "log2n": math.ceil(math.log2(n)),
                "delta_bytes": delta_coord.total_bytes,
                "full_bytes": full_state_bytes(
                    seeded_views(n), delta_coord.rounds
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Staleness-induced redundant transfers

MACHINES = 8
STEPS = 24
INPUT_WINDOW = 4  # a consumer reads the last K outputs
OUTPUT_SIZE = 4 * MB


def redundancy_experiment(gossip_rounds_per_step: int):
    """Outputs materialize (and replicate) machine by machine; after each
    step a scheduler places a consumer of the last few outputs.

    Returns the accumulated *redundant* transfer bytes: inputs the
    scheduler's belief prices as missing at the chosen machine although
    ground truth already has a replica there.  ``gossip_rounds_per_step
    = 0`` is the connect-time-only regime (the view synchronized once,
    at the start, and never again).
    """
    machine_names = [f"m{i}" for i in range(MACHINES)]
    machine_views = {name: ObjectView(name) for name in machine_names}
    scheduler = ObjectView("scheduler")
    truth = ObjectView("truth")
    coordinator = GossipCoordinator(
        list(machine_views.values()) + [scheduler], fanout=1, seed=5
    )

    # Initial data everyone knows (the connect-time handshake).
    for index, name in enumerate(machine_names):
        machine_views[name].learn(f"seed-{index}", name, 1 * MB)
        truth.learn(f"seed-{index}", name, 1 * MB)
    coordinator.run_rounds(math.ceil(math.log2(MACHINES)) + 2)
    assert scheduler.knows("seed-0", "m0")

    outputs = []
    redundant = 0
    for step in range(STEPS):
        # A new output materializes on its producer, and a consumer
        # fetch replicates it one machine over - the replica a stale
        # view never hears about.
        name = f"out-{step}"
        producer = machine_names[step % MACHINES]
        replica = machine_names[(step + 3) % MACHINES]
        for location in (producer, replica):
            machine_views[location].learn(name, location, OUTPUT_SIZE)
            truth.learn(name, location, OUTPUT_SIZE)
        outputs.append(name)
        coordinator.run_rounds(gossip_rounds_per_step)

        # Place a consumer of the last few outputs by believed bytes.
        needs = [(n, OUTPUT_SIZE) for n in outputs[-INPUT_WINDOW:]]
        believed = scheduler.price_moves(needs, machine_names)
        actual = truth.price_moves(needs, machine_names)
        chosen = choose(
            machine_names, believed.__getitem__, lambda m: 0
        ).candidate
        # Redundant: priced as moving, but ground truth holds it there.
        redundant += believed[chosen] - actual[chosen]
    return redundant


def test_gossip_convergence_and_staleness(benchmark, run_once):
    def experiment():
        ladder = run_convergence_ladder()
        stale_waste = redundancy_experiment(gossip_rounds_per_step=0)
        gossip_waste = redundancy_experiment(gossip_rounds_per_step=2)
        return ladder, stale_waste, gossip_waste

    ladder, stale_waste, gossip_waste = run_once(benchmark, experiment)

    print(
        "\n nodes  rounds  ceil(log2)   delta bytes    full-state bytes"
    )
    for row in ladder:
        print(
            f"{row['nodes']:6d} {row['rounds']:7d} {row['log2n']:11d} "
            f"{row['delta_bytes']:13,d} {row['full_bytes']:19,d}"
        )
    print(
        f"redundant transfer bytes: connect-time-only "
        f"{stale_waste / MB:8.1f} MiB vs gossip {gossip_waste / MB:8.1f} MiB"
    )

    by_nodes = {row["nodes"]: row for row in ladder}

    # O(log n), not O(n): every size converges within ceil(log2 n) + 4
    # rounds, and the 100-node cluster within the acceptance bound.
    for row in ladder:
        assert row["rounds"] <= row["log2n"] + 4, row
    assert by_nodes[100]["rounds"] <= 10
    # Sub-linear growth: 25x the machines must cost at most the *log*
    # ratio in rounds (plus slack for the epidemic tail), nowhere near
    # the 25x a linear token-passing scheme would pay.
    log_ratio = math.log2(100) / math.log2(4)
    assert by_nodes[100]["rounds"] <= by_nodes[4]["rounds"] * log_ratio + 2

    # Delta rounds ship fewer bytes than the full-state ablation on the
    # identical schedule - increasingly so at scale.
    for row in ladder:
        assert row["delta_bytes"] < row["full_bytes"], row
    assert by_nodes[100]["delta_bytes"] < by_nodes[100]["full_bytes"] / 2

    # Staleness has a measurable price, and gossip pays it down: the
    # connect-time-only regime re-ships data a fresh replica already
    # held, every window of the run.
    assert stale_waste > 0
    assert gossip_waste < stale_waste
