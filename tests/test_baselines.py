"""Tests for the comparator platform models."""

from __future__ import annotations

import pytest

from repro.baselines.base import JobRun
from repro.baselines.calibration import (
    K8S_SCHEDULE,
    MINIO_STREAM_BW,
    OPENWHISK_INVOKE,
    OW_COLD_START,
    RAY_TASK_OVERHEAD,
)
from repro.baselines.faasm import Faasm
from repro.baselines.minio import MinIO
from repro.baselines.openwhisk import OpenWhisk
from repro.baselines.pheromone import Pheromone
from repro.baselines.ray import RayPlatform, RayPopenMinIO
from repro.core.errors import SchedulingError
from repro.dist.engine import FixpointSim
from repro.dist.gossip import GossipConfig
from repro.dist.graph import CLIENT, EXTERNAL, JobGraph, TaskSpec
from repro.sim.cluster import Cluster, MachineSpec
from repro.sim.engine import Simulator, all_of
from repro.sim.storage_service import StorageService

MB = 1 << 20


def one_task_graph(input_loc="node0", compute=0.01):
    graph = JobGraph()
    graph.add_data("in", 1 * MB, input_loc)
    graph.add_task(
        TaskSpec(
            name="t",
            fn="f",
            inputs=("in",),
            output="out",
            output_size=8,
            compute_seconds=compute,
            memory_bytes=64 * MB,
        )
    )
    return graph


def fan_out_graph(n=12, size=20 * MB):
    graph = JobGraph()
    for i in range(n):
        graph.add_data(f"in{i}", size, f"node{i % 3}")
        graph.add_task(
            TaskSpec(
                name=f"t{i}",
                fn="f",
                inputs=(f"in{i}",),
                output=f"out{i}",
                output_size=8,
                compute_seconds=0.05,
                memory_bytes=64 * MB,
            )
        )
    return graph


class TestMinIO:
    def test_preload_get_put(self):
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec("node0"), MachineSpec("node1")])
        minio = MinIO(sim, cluster)
        minio.preload("obj", 10 * MB)
        assert minio.contains("obj")
        assert minio.size_of("obj") == 10 * MB
        sim.run_until(minio.get("obj", "node0"))
        assert minio.gets == 1
        sim.run_until(minio.put("new", 1 * MB, "node0"))
        assert minio.contains("new")

    def test_missing_object(self):
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec("node0")])
        minio = MinIO(sim, cluster)
        with pytest.raises(SchedulingError):
            minio.get("ghost", "node0")

    def test_sharding_is_deterministic(self):
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec(f"node{i}") for i in range(4)])
        minio = MinIO(sim, cluster)
        assert minio.node_for("thing") == minio.node_for("thing")


class TestOpenWhisk:
    def test_pods_place_least_loaded(self):
        """Two concurrent invocations land on distinct nodes; a third,
        issued once the first finishes, reuses the node it freed."""
        platform = OpenWhisk.build(nodes=2, cores=4)
        graph = JobGraph()
        graph.add_data("in", 1 * MB, "node0")
        for i, compute in enumerate((0.01, 1.0, 0.01)):
            graph.add_task(
                TaskSpec(
                    name=f"t{i}",
                    fn="f",
                    inputs=("in",),
                    output=f"out{i}",
                    output_size=8,
                    compute_seconds=compute,
                    memory_bytes=64 * MB,
                )
            )
        platform.load(graph)
        job = JobRun(0, "job0", graph, CLIENT, started_at=0.0)
        quick, slow, late = (graph.tasks[f"t{i}"] for i in range(3))
        first = platform.invoke(quick, CLIENT, job)
        second = platform.invoke(slow, CLIENT, job)
        freed = platform.sim.run_until(first)
        assert not second.triggered
        busy = {node for node, load in platform._outstanding.items() if load}
        assert busy == {"node0", "node1"} - {freed}
        assert platform.sim.run_until(platform.invoke(late, CLIENT, job)) == freed
        assert platform.sim.run_until(second) != freed

    @staticmethod
    def start_twice(cold):
        """Seconds each of two pod starts in a row on one node."""
        platform = OpenWhisk.build(nodes=1, cores=4, cold=cold)
        sim = platform.sim
        sim.run_until(sim.process(platform._pod_start("node0")))
        first = sim.now
        sim.run_until(sim.process(platform._pod_start("node0")))
        return first, sim.now - first

    def test_cold_and_warm_pod_starts(self):
        """A warm pod costs its scheduling decision only; a cold one also
        boots, every time: a fresh pod per activation."""
        assert self.start_twice(cold=False) == (K8S_SCHEDULE, K8S_SCHEDULE)
        assert self.start_twice(cold=True) == (K8S_SCHEDULE + OW_COLD_START,) * 2

    def test_single_invocation_near_measured_overhead(self):
        platform = OpenWhisk.build(nodes=1, cores=4)
        result = platform.run(one_task_graph(compute=0.0))
        # The warm path composes to roughly the paper's 30.7 ms (data
        # movement for the 1 MiB input adds a bit on top).
        assert OPENWHISK_INVOKE * 0.8 < result.makespan < OPENWHISK_INVOKE * 3

    def test_everything_flows_through_minio(self):
        platform = OpenWhisk.build(nodes=3, cores=4)
        platform.run(fan_out_graph())
        assert platform.minio.gets == 12
        assert platform.minio.puts == 12

    def test_iowait_dominates_for_data_heavy_tasks(self):
        platform = OpenWhisk.build(nodes=3, cores=4)
        result = platform.run(fan_out_graph(size=100 * MB))
        assert result.cpu.iowait > result.cpu.user

    def test_cold_pods_pull_images_and_boot_per_activation(self):
        """Cold: each node pulls each function's image once (and every
        activation boots a pod, timed above); warm: no pull happens."""
        warm = OpenWhisk.build(nodes=3, cores=4)
        warm.run(fan_out_graph())
        cold = OpenWhisk.build(nodes=3, cores=4, cold=True)
        cold.run(fan_out_graph())
        assert warm._images == {}
        assert set(cold._images) == {("f", f"node{i}") for i in range(3)}


class TestRay:
    def test_styles_have_distinct_names(self):
        names = {
            RayPlatform.build(nodes=1, style=style).name
            for style in ("blocking", "cps")
        }
        names.add(RayPopenMinIO.build(nodes=1).name)
        assert len(names) == 3

    def test_unknown_style_rejected(self):
        with pytest.raises(SchedulingError):
            RayPlatform.build(nodes=1, style="mystery")

    def test_popen_style_is_refused(self):
        """Fig. 10's Popen row is built one way, with NICs at MinIO's
        stream bandwidth: ``RayPopenMinIO``, not a ``RayPlatform`` style."""
        with pytest.raises(SchedulingError, match="popen"):
            RayPlatform.build(nodes=1, style="popen")
        popen = RayPopenMinIO.build(nodes=2)
        assert {
            machine.spec.nic_bandwidth
            for machine in popen.cluster.machines.values()
        } == {MINIO_STREAM_BW}

    def test_cps_places_with_locality(self):
        platform = RayPlatform.build(nodes=3, cores=4, style="cps")
        result = platform.run(fan_out_graph())
        # All inputs local: nothing but control traffic moves.
        assert result.bytes_transferred < 1 * MB

    def test_blocking_places_blindly(self):
        platform = RayPlatform.build(nodes=3, cores=4, style="blocking", seed=7)
        result = platform.run(fan_out_graph())
        assert result.bytes_transferred > 20 * MB  # blind placement pulls
        assert result.cpu.iowait > 0  # cores starve during ray.get

    def test_cps_never_iowaits(self):
        platform = RayPlatform.build(nodes=3, cores=4, style="cps")
        result = platform.run(fan_out_graph())
        assert result.cpu.iowait == 0.0

    def test_popen_loads_binaries_once_per_node(self):
        platform = RayPopenMinIO.build(nodes=3, cores=4)
        platform.run(fan_out_graph())
        assert platform._binaries_loaded == {"node0", "node1", "node2"}

    def test_blocking_overhead_exceeds_fixpoint(self):
        ray = RayPlatform.build(nodes=1, cores=4, style="blocking")
        ray_result = ray.run(one_task_graph(compute=0.0))
        fix = FixpointSim.build(nodes=1, cores=4)
        fix_result = fix.run(one_task_graph(compute=0.0))
        assert ray_result.makespan > fix_result.makespan
        assert ray_result.makespan > RAY_TASK_OVERHEAD


class TestPheromone:
    def test_collocates_with_trigger_bucket(self):
        graph = JobGraph()
        graph.add_data("in", 50 * MB, "node2")
        graph.add_task(
            TaskSpec(
                name="producer",
                fn="f",
                inputs=("in",),
                output="bucket",
                output_size=30 * MB,
                compute_seconds=0.01,
                memory_bytes=64 * MB,
            )
        )
        graph.add_task(
            TaskSpec(
                name="consumer",
                fn="g",
                inputs=("bucket",),
                output="final",
                output_size=8,
                compute_seconds=0.01,
                memory_bytes=64 * MB,
            )
        )
        platform = Pheromone.build(nodes=3, cores=4)
        platform.run(graph)
        producer_at = platform.cluster.object("bucket").locations
        consumer_at = platform.cluster.object("final").locations
        assert consumer_at <= producer_at  # ran where the bucket lives

    def test_external_inputs_have_no_locality(self):
        graph = JobGraph()
        for i in range(12):
            graph.add_data(f"in{i}", 20 * MB, "node2")  # all on one node
            graph.add_task(
                TaskSpec(
                    name=f"t{i}",
                    fn="f",
                    inputs=(f"in{i}",),
                    output=f"out{i}",
                    output_size=8,
                    compute_seconds=0.05,
                    memory_bytes=64 * MB,
                )
            )
        platform = Pheromone.build(nodes=3, cores=4, seed=2)
        result = platform.run(graph)
        # Least-loaded placement spreads the functions 4/4/4 while the
        # data sits on node2.
        ran_on = [
            node
            for i in range(12)
            for node in platform.cluster.object(f"out{i}").locations
        ]
        assert sorted(ran_on.count(node) for node in set(ran_on)) == [4, 4, 4]
        assert result.bytes_transferred > 100 * MB

    def test_chained_step_runs_on_the_less_loaded_bucket_holder(self):
        """A trigger bucket held on two machines: the chained step goes
        to the holder with fewer invocations in flight (by name alone it
        would be node0)."""
        graph = JobGraph()
        graph.add_data("in", 1 * MB, "node2")
        for name, inputs, output, compute in (
            ("producer", ("in",), "bucket", 0.01),
            ("busy", (), "busy-out", 1.0),
            ("consumer", ("bucket",), "final", 0.01),
        ):
            graph.add_task(
                TaskSpec(
                    name=name,
                    fn="f",
                    inputs=inputs,
                    output=output,
                    output_size=8 * MB,
                    compute_seconds=compute,
                    memory_bytes=64 * MB,
                )
            )
        platform = Pheromone.build(nodes=3, cores=4)
        platform.load(graph)
        job = JobRun(0, "job0", graph, CLIENT, started_at=0.0)
        producer, busy, consumer = (
            graph.tasks[n] for n in ("producer", "busy", "consumer")
        )
        made = platform.invoke(producer, CLIENT, job)
        assert platform.sim.run_until(made) == "node0"
        platform.cluster.add_object("bucket", 8 * MB, "node1")
        blocker = platform.invoke(busy, CLIENT, job)  # least loaded: node0
        platform.sim.run(until=platform.sim.now)
        assert platform._outstanding == {"node0": 1, "node1": 0, "node2": 0}
        chained = platform.invoke(consumer, CLIENT, job)
        assert platform.sim.run_until(chained) == "node1"
        assert not blocker.triggered

    @staticmethod
    def _chain(prefix, location):
        """A two-step chain: step 1 reads initial data, step 2 its output."""
        graph = JobGraph()
        graph.add_data(f"{prefix}-in", 20 * MB, location)
        for step, source in ((1, f"{prefix}-in"), (2, f"{prefix}-mid1")):
            graph.add_task(
                TaskSpec(
                    name=f"{prefix}{step}",
                    fn="f",
                    inputs=(source,),
                    output=f"{prefix}-mid{step}",
                    output_size=10 * MB,
                    compute_seconds=0.01,
                    memory_bytes=64 * MB,
                )
            )
        return graph

    def test_jobs_sharing_a_platform_keep_their_chains(self):
        """A job loaded later must not un-chain an earlier job's steps:
        each chain pays one control message (its first step), and the
        first job runs exactly as it does alone."""
        solo = Pheromone.build(nodes=3, cores=4)
        alone = solo.start(self._chain("a", "node0"))
        solo.sim.run_until(alone.done)
        assert solo.cluster.network.messages == 1

        platform = Pheromone.build(nodes=3, cores=4)
        first = platform.start(self._chain("a", "node0"))
        second = platform.start(self._chain("b", "node1"))
        platform.sim.run_until(all_of(platform.sim, [first.done, second.done]))
        assert platform.cluster.network.messages == 2
        assert first.task_finish == alone.task_finish


class TestEveryPickIsCounted:
    """``Platform._invoke_proc`` counts the machine it places on in
    ``_outstanding`` while the task runs, for every simulated platform,
    and every count is back to 0 when the job is done."""

    @staticmethod
    def _chained_fan_out():
        """``fan_out_graph`` plus a step chained on ``out0``."""
        graph = fan_out_graph(n=6)
        graph.add_task(
            TaskSpec(
                name="next",
                fn="g",
                inputs=("out0",),
                output="final",
                output_size=8,
                compute_seconds=0.05,
                memory_bytes=64 * MB,
            )
        )
        return graph

    @pytest.mark.parametrize(
        "cls, kw",
        [
            (Faasm, {}),
            (RayPlatform, {"style": "blocking", "seed": 7}),
            (RayPlatform, {"style": "cps"}),
            (RayPopenMinIO, {}),
            (Pheromone, {}),
            (OpenWhisk, {}),
            (OpenWhisk, {"cold": True}),
            (FixpointSim, {}),
            (FixpointSim, {"locality": False}),
            (FixpointSim, {"internal_io": True}),
            (FixpointSim, {"gossip": GossipConfig(membership=True)}),
        ],
        ids=[
            "faasm",
            "ray-blocking",
            "ray-cps",
            "ray-popen",
            "pheromone",
            "openwhisk",
            "openwhisk-cold",
            "fixpoint",
            "fixpoint-no-locality",
            "fixpoint-internal-io",
            "fixpoint-gossip-membership",
        ],
    )
    def test_load_is_raised_where_each_task_runs(self, cls, kw):
        platform = cls.build(nodes=3, cores=4, **kw)
        graph = self._chained_fan_out()
        seen = {}
        run = platform._run

        def counted_run(task, node):
            seen[task.name] = (node, platform._outstanding[node])
            yield from run(task, node)

        platform._run = counted_run
        platform.run(graph)
        assert set(seen) == set(graph.tasks)
        assert all(load >= 1 for _node, load in seen.values()), seen
        assert set(platform._outstanding.values()) == {0}


class TestASecondRunReportsItsOwnWork:
    """``Platform.run`` counts core-seconds, bytes, messages and
    invocations from its own start, so a second run on one platform fits
    its window instead of reporting everything since t=0."""

    @pytest.mark.parametrize(
        "cls, kw",
        [
            (FixpointSim, {}),
            (OpenWhisk, {}),
            (RayPlatform, {"style": "blocking"}),
        ],
        ids=["fixpoint", "openwhisk", "ray-blocking"],
    )
    def test_second_run(self, cls, kw):
        platform = cls.build(nodes=3, cores=4, **kw)
        graph = fan_out_graph()
        first = platform.run(graph)
        second = platform.run(fan_out_graph())
        assert first.invocations == second.invocations == len(graph.tasks)
        cpu = second.cpu
        total = cpu.user + cpu.system + cpu.iowait + cpu.idle
        assert total == pytest.approx(100)
        if cls is FixpointSim:
            assert second.as_row() == first.as_row()
            assert (second.bytes_transferred, second.messages) == (
                first.bytes_transferred,
                first.messages,
            )


class TestExternalDataIsFetchedOnce:
    """An external datum read on several nodes is GET from the storage
    service once; every later copy comes from a machine holding it (the
    network has no NIC named ``external`` to send from)."""

    @staticmethod
    def _chain_reading_external(n=6):
        graph = JobGraph()
        graph.add_data("x", 1 * MB, EXTERNAL)
        graph.add_data("in", 1 * MB, "node0")
        previous = "in"
        for i in range(n):
            graph.add_task(
                TaskSpec(
                    name=f"t{i}",
                    fn="f",
                    inputs=(previous, "x"),
                    output=f"out{i}",
                    output_size=8,
                    compute_seconds=0.01,
                    memory_bytes=64 * MB,
                )
            )
            previous = f"out{i}"
        return graph

    @pytest.mark.parametrize(
        "cls, kw",
        [
            (FixpointSim, {"locality": False, "seed": 3}),
            (RayPlatform, {"style": "blocking", "seed": 1}),
        ],
        ids=["fixpoint-no-locality", "ray-blocking"],
    )
    def test_second_node_copies_from_a_holder(self, cls, kw):
        platform = cls.build(nodes=3, cores=4, **kw)
        platform.storage = StorageService(platform.sim, response_latency=0.15)
        graph = self._chain_reading_external()
        ran_on = set()
        run = platform._run

        def recorded_run(task, node):
            ran_on.add(node)
            yield from run(task, node)

        platform._run = recorded_run
        result = platform.run(graph)
        assert set(result.task_finish) == set(graph.tasks)
        assert platform.storage.gets == 1
        assert len(ran_on) > 1, ran_on
        assert ran_on <= platform.cluster.object("x").locations


class TestFaasm:
    def test_runs_and_charges_overhead(self):
        platform = Faasm.build(nodes=1, cores=4)
        result = platform.run(one_task_graph(compute=0.0))
        assert result.makespan > 0.010  # the measured 10.6 ms floor
        assert result.invocations == 1


class TestCrossPlatformShape:
    def test_fixpoint_beats_all_on_scatter(self):
        """The one-shape-to-rule-them-all sanity check on a small graph."""
        results = {}
        for cls, kw in (
            (FixpointSim, {}),
            (RayPlatform, {"style": "blocking", "seed": 7}),
            (OpenWhisk, {}),
            (Pheromone, {"seed": 2}),
        ):
            platform = cls.build(nodes=3, cores=4, **kw)
            results[platform.name] = platform.run(fan_out_graph(size=50 * MB)).makespan
        fastest = min(results, key=results.get)
        assert fastest == "Fixpoint", results
