"""Tests for the object view, dataflow scheduler, and distributed engine."""

from __future__ import annotations

import pytest

from repro.dist.engine import FixpointSim
from repro.dist.gossip import Participant, exchange
from repro.dist.graph import EXTERNAL, JobGraph, TaskSpec
from repro.dist.objectview import ObjectView
from repro.dist.scheduler import DataflowScheduler
from repro.sim.cluster import Cluster, MachineSpec
from repro.sim.engine import Simulator
from repro.sim.storage_service import StorageService

MB = 1 << 20


def make_cluster(nodes=3, cores=4):
    sim = Simulator()
    cluster = Cluster(sim, [MachineSpec(f"node{i}", cores=cores) for i in range(nodes)])
    return sim, cluster


def simple_task(name, inputs, output_size=8, compute=0.1, **kw):
    return TaskSpec(
        name=name,
        fn="f",
        inputs=tuple(inputs),
        output=f"{name}.out",
        output_size=output_size,
        compute_seconds=compute,
        **kw,
    )


class TestObjectView:
    def test_learn_and_where(self):
        view = ObjectView("node0")
        view.learn("x", "node1")
        assert view.where("x") == {"node1"}
        assert view.where("ghost") == set()
        assert view.knows("x", "node1")
        assert not view.knows("x", "node2")

    def test_view_can_be_stale(self):
        sim, cluster = make_cluster()
        cluster.add_object("x", 100, "node0")
        view = ObjectView("node1")
        view.sync_from_cluster(cluster)
        cluster.add_object("x", 100, "node2")  # replica the view hasn't seen
        assert view.where("x") == {"node0"}
        assert view.bytes_missing(cluster, ["x"], "node2") == 100  # stale!

    def test_exchange_handshake(self):
        sim, cluster = make_cluster()
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        v0, v1 = ObjectView("node0"), ObjectView("node1")
        v0.refresh_local(cluster)
        v1.refresh_local(cluster)
        exchange(Participant(v0), Participant(v1))
        assert v0.where("b") == {"node1"}
        assert v1.where("a") == {"node0"}

    def test_bytes_missing(self):
        sim, cluster = make_cluster()
        cluster.add_object("a", 10, "node0")
        cluster.add_object("b", 20, "node1")
        view = ObjectView("x")
        view.sync_from_cluster(cluster)
        assert view.bytes_missing(cluster, ["a", "b"], "node0") == 20
        assert view.bytes_missing(cluster, ["a", "b"], "node2") == 30


class TestScheduler:
    def _scheduler(self, cluster, **kw):
        view = ObjectView("sched")
        view.sync_from_cluster(cluster)
        return DataflowScheduler(cluster, view, **kw)

    def test_places_at_data(self):
        sim, cluster = make_cluster()
        cluster.add_object("big", 500 * MB, "node2")
        sched = self._scheduler(cluster)
        placement = sched.place(simple_task("t", ["big"]))
        assert placement.machine == "node2"
        assert placement.predicted_move_bytes == 0

    def test_places_at_largest_dependency(self):
        sim, cluster = make_cluster()
        cluster.add_object("small", 1 * MB, "node0")
        cluster.add_object("big", 100 * MB, "node1")
        sched = self._scheduler(cluster)
        assert sched.place(simple_task("t", ["small", "big"])).machine == "node1"

    def test_random_placement_without_locality(self):
        sim, cluster = make_cluster(nodes=8)
        cluster.add_object("big", 500 * MB, "node7")
        sched = self._scheduler(cluster, locality=False, seed=5)
        chosen = {
            sched.place(simple_task(f"t{i}", ["big"])).machine for i in range(30)
        }
        assert len(chosen) > 3  # spread, not pinned to the data

    def test_sibling_spreading(self):
        sim, cluster = make_cluster(nodes=4)
        sched = self._scheduler(cluster)
        chosen = []
        for i in range(4):
            placement = sched.place(simple_task(f"t{i}", []))
            sched.task_started(placement.machine)
            chosen.append(placement.machine)
        assert len(set(chosen)) == 4  # equal-cost siblings fan out

    def test_output_hint_pulls_toward_consumer(self):
        sim, cluster = make_cluster(nodes=2)
        cluster.add_object("in", 1 * MB, "node0")
        sched = self._scheduler(cluster)
        big_out = simple_task("t", ["in"], output_size=500 * MB)
        # Without a consumer location the input wins.
        assert sched.place(big_out).machine == "node0"
        # With the consumer elsewhere, moving the output dominates.
        assert sched.place(big_out, consumer_location="node1").machine == "node1"


class TestEngine:
    def _graph(self):
        graph = JobGraph()
        graph.add_data("in0", 10 * MB, "node0")
        graph.add_data("in1", 10 * MB, "node1")
        graph.add_task(simple_task("a", ["in0"]))
        graph.add_task(simple_task("b", ["in1"]))
        graph.add_task(simple_task("c", ["a.out", "b.out"]))
        return graph

    def test_runs_graph_to_completion(self):
        platform = FixpointSim.build(nodes=3, cores=4)
        result = platform.run(self._graph())
        assert result.makespan > 0
        assert result.invocations == 3
        assert set(result.task_finish) == {"a", "b", "c"}
        # Dependencies respected.
        assert result.task_finish["c"] >= result.task_finish["a"]
        assert result.task_finish["c"] >= result.task_finish["b"]

    def test_locality_avoids_transfers(self):
        platform = FixpointSim.build(nodes=3, cores=4)
        result = platform.run(self._graph())
        # Map tasks run where their inputs live; only tiny outputs move.
        assert result.bytes_transferred < 1 * MB

    def test_no_locality_moves_data(self):
        platform = FixpointSim.build(nodes=3, cores=4, locality=False, seed=3)
        result = platform.run(self._graph())
        assert result.bytes_transferred >= 10 * MB

    def test_internal_io_charges_iowait(self):
        graph = JobGraph()
        for i in range(8):
            graph.add_data(f"x{i}", 8 << 10, EXTERNAL)
            graph.add_task(simple_task(f"t{i}", [f"x{i}"]))
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec("node0", cores=4)])
        storage = StorageService(sim, response_latency=0.1)
        platform = FixpointSim(
            sim, cluster, storage=storage, internal_io=True, oversubscribe_cores=16
        )
        result = platform.run(graph)
        assert result.cpu.iowait > 0

    def test_externalized_never_iowaits(self):
        graph = JobGraph()
        for i in range(8):
            graph.add_data(f"x{i}", 8 << 10, EXTERNAL)
            graph.add_task(simple_task(f"t{i}", [f"x{i}"]))
        platform = FixpointSim.build(nodes=1, cores=4, storage_latency=0.1)
        result = platform.run(graph)
        assert result.cpu.iowait == 0.0

    def test_late_binding_overlaps_fetches(self):
        """32 tasks with 100 ms external fetches on 4 cores: externalized
        I/O overlaps every fetch; internal I/O serializes in core waves."""
        def build(internal):
            sim = Simulator()
            cluster = Cluster(sim, [MachineSpec("node0", cores=4)])
            storage = StorageService(sim, response_latency=0.1)
            return FixpointSim(
                sim,
                cluster,
                storage=storage,
                internal_io=internal,
                oversubscribe_cores=4 if internal else None,
            )

        def graph():
            g = JobGraph()
            for i in range(32):
                g.add_data(f"x{i}", 1 << 10, EXTERNAL)
                g.add_task(simple_task(f"t{i}", [f"x{i}"], compute=0.001))
            return g

        fast = build(False).run(graph()).makespan
        slow = build(True).run(graph()).makespan
        assert slow > 4 * fast

    def test_output_registered_at_execution_site(self):
        platform = FixpointSim.build(nodes=3, cores=4)
        graph = JobGraph()
        graph.add_data("in0", 10 * MB, "node2")
        graph.add_task(simple_task("a", ["in0"]))
        platform.run(graph)
        assert "node2" in platform.cluster.object("a.out").locations

    def test_ablation_names(self):
        assert FixpointSim.build(nodes=1).name == "Fixpoint"
        assert "no locality" in FixpointSim.build(nodes=1, locality=False).name
        assert "internal I/O" in FixpointSim.build(nodes=1, internal_io=True).name


def hint_graph() -> JobGraph:
    """The output-size-hint ablation's graph: a producer with a 4 KiB
    input and a 2 GiB output, whose one consumer also reads 4 GiB that
    live on node1."""
    graph = JobGraph()
    graph.add_data("tiny-config", 4 << 10, "node0")
    graph.add_data("huge-dataset", 4 << 30, "node1")
    graph.add_task(
        TaskSpec(
            name="expand",
            fn="expand",
            inputs=("tiny-config",),
            output="expanded",
            output_size=2 << 30,
            compute_seconds=0.5,
        )
    )
    graph.add_task(
        TaskSpec(
            name="join",
            fn="join",
            inputs=("expanded", "huge-dataset"),
            output="joined",
            output_size=1 << 20,
            compute_seconds=1.0,
        )
    )
    return graph


class TestOutputHints:
    """``FixpointSim._consumer_hint`` is the one decider of a hint: the
    scheduler prices whatever consumer the platform hands it."""

    @staticmethod
    def run(monkeypatch, use_hints):
        """Run the graph; returns the platform, its result and the
        consumer location each placement was handed."""
        priced = {}
        place = DataflowScheduler.place

        def spy(scheduler, task, consumer_location=None):
            priced[task.name] = consumer_location
            return place(scheduler, task, consumer_location)

        monkeypatch.setattr(DataflowScheduler, "place", spy)
        platform = FixpointSim.build(nodes=2, use_hints=use_hints)
        return platform, platform.run(hint_graph()), priced

    def test_inferred_hint_runs_the_producer_at_its_consumer(self, monkeypatch):
        """``join``'s largest co-input anchors it on node1 (data
        gravity), so ``expand`` runs there and only its 4 KiB input
        moves."""
        platform, result, priced = self.run(monkeypatch, use_hints=True)
        assert priced == {"expand": "node1", "join": None}
        assert platform.cluster.object("expanded").locations == {"node1"}
        assert result.bytes_transferred == 4 << 10

    def test_hints_disabled(self, monkeypatch):
        """With hints off no consumer is priced: ``expand`` stays at its
        input and the 2 GiB intermediate crosses the network."""
        platform, result, priced = self.run(monkeypatch, use_hints=False)
        assert priced == {"expand": None, "join": None}
        assert platform.cluster.object("expanded").locations >= {"node0"}
        assert result.bytes_transferred == 2 << 30
