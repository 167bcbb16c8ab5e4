"""Tests for counted resources, pipes, network, storage, and accounting."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.base import Platform
from repro.core.errors import SimulationError
from repro.sim.cluster import Cluster, MachineSpec
from repro.sim.engine import Simulator, all_of
from repro.sim.network import LATENCY, Network
from repro.sim.resources import Pipe, Resource
from repro.sim.stats import CpuAccountant, report
from repro.sim.storage_service import StorageService


class TestResource:
    def test_acquire_release(self):
        sim = Simulator()
        res = Resource(sim, 2)
        log = []

        def user(sim, res, name, hold):
            yield res.acquire(1)
            log.append((name, "in", sim.now))
            yield sim.timeout(hold)
            res.release(1)
            log.append((name, "out", sim.now))

        for i, hold in enumerate([5.0, 5.0, 5.0]):
            sim.process(user(sim, res, i, hold))
        sim.run()
        # Two run immediately; third waits for a release at t=5.
        assert (0, "in", 0.0) in log and (1, "in", 0.0) in log
        assert (2, "in", 5.0) in log

    def test_fifo_no_overtaking(self):
        sim = Simulator()
        res = Resource(sim, 4)
        order = []

        def user(sim, res, name, amount):
            yield res.acquire(amount)
            order.append((name, sim.now))
            yield sim.timeout(1.0)
            res.release(amount)

        sim.process(user(sim, res, "big-first", 4))
        sim.process(user(sim, res, "bigger", 3))  # blocks at head
        sim.process(user(sim, res, "small", 1))  # must NOT overtake
        sim.run()
        assert [name for name, _ in order] == ["big-first", "bigger", "small"]

    def test_over_capacity_request_rejected(self):
        sim = Simulator()
        res = Resource(sim, 2)
        with pytest.raises(SimulationError):
            res.acquire(3)

    def test_over_release_rejected(self):
        sim = Simulator()
        res = Resource(sim, 2)
        with pytest.raises(SimulationError):
            res.release(1)

    def test_peak_tracking(self):
        sim = Simulator()
        res = Resource(sim, 8)
        held = []

        def user(sim):
            yield res.acquire(5)
            held.append(res.in_use)
            yield sim.timeout(1.0)
            res.release(5)

        sim.process(user(sim))
        sim.run()
        assert held == [5]
        assert res.in_use == 0

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=12))
    def test_conservation_property(self, amounts):
        """Everything acquired is eventually granted; usage returns to 0."""
        sim = Simulator()
        res = Resource(sim, 4)
        granted = []

        def user(sim, amount):
            yield res.acquire(amount)
            granted.append(amount)
            yield sim.timeout(1.0)
            res.release(amount)

        for amount in amounts:
            sim.process(user(sim, amount))
        sim.run()
        assert sorted(granted) == sorted(amounts)
        assert res.in_use == 0


class TestPipe:
    def test_serialization(self):
        sim = Simulator()
        pipe = Pipe(sim, bytes_per_second=100.0)
        done = [pipe.send(100), pipe.send(100)]
        sim.run_until(all_of(sim, done))
        # Two 1-second sends through a serializing pipe: finishes at t=2.
        assert sim.now == pytest.approx(2.0)


class TestNetwork:
    def test_transfer_time(self):
        sim = Simulator()
        net = Network(sim)
        net.attach("a", bandwidth=100.0)
        net.attach("b", bandwidth=100.0)
        done = net.transfer("a", "b", 1000)
        sim.run_until(done)
        # Store-and-forward: the bytes pass the tx pipe then the rx pipe.
        assert sim.now == pytest.approx(LATENCY + 10.0 + 10.0)

    def test_local_transfer_skips_nic(self):
        sim = Simulator()
        net = Network(sim)
        net.attach("a", bandwidth=100.0)
        done = net.transfer("a", "a", 10_000)
        sim.run_until(done)
        assert sim.now < LATENCY  # memory-speed copy

    def test_nic_contention(self):
        sim = Simulator()
        net = Network(sim)
        net.attach("src", bandwidth=100.0)
        net.attach("d1", bandwidth=100.0)
        net.attach("d2", bandwidth=100.0)
        done = all_of(
            sim, [net.transfer("src", "d1", 500), net.transfer("src", "d2", 500)]
        )
        sim.run_until(done)
        # After the latency, both leave through src's tx pipe (serialized:
        # 5 s + 5 s); the second then spends 5 s in d2's rx pipe.
        assert sim.now == pytest.approx(LATENCY + 15.0)

    def test_crossing_transfers_do_not_deadlock(self):
        sim = Simulator()
        net = Network(sim)
        net.attach("a", bandwidth=100.0)
        net.attach("b", bandwidth=100.0)
        done = all_of(
            sim, [net.transfer("a", "b", 100), net.transfer("b", "a", 100)]
        )
        sim.run_until(done)
        assert net.bytes_transferred == 200

    def test_message_is_latency_only(self):
        sim = Simulator()
        net = Network(sim)
        net.attach("a")
        net.attach("b")
        sim.run_until(net.message("a", "b"))
        assert sim.now == pytest.approx(LATENCY)

    def test_bandwidth_mismatch_bound_by_slower(self):
        sim = Simulator()
        net = Network(sim)
        net.attach("fast", bandwidth=1000.0)
        net.attach("slow", bandwidth=10.0)
        sim.run_until(net.transfer("fast", "slow", 100))
        # 0.1 s through the fast tx, 10 s through the slow rx.
        assert sim.now == pytest.approx(LATENCY + 10.1)


class TestStorageService:
    def test_latency_dominates_small_gets(self):
        sim = Simulator()
        s3 = StorageService(sim, response_latency=0.150)
        sim.run_until(s3.get(1000))
        assert sim.now == pytest.approx(0.150, rel=0.01)

    def test_concurrency_limit(self):
        sim = Simulator()
        s3 = StorageService(sim, response_latency=1.0, max_connections=2)
        done = all_of(sim, [s3.get(0) for _ in range(4)])
        sim.run_until(done)
        # 4 gets, 2 at a time, 1 s each: two waves.
        assert sim.now == pytest.approx(2.0)
        assert s3.gets == 4


class TestCpuAccounting:
    def test_states_and_idle_residue(self):
        sim = Simulator()
        acct = CpuAccountant(sim)

        def work(sim):
            with acct.track("node0", "user", cores=2):
                yield sim.timeout(3.0)
            with acct.track("node0", "iowait"):
                yield sim.timeout(1.0)

        sim.process(work(sim))
        sim.run()
        rep = report(acct.core_seconds(), total_cores=4, window_seconds=4.0)
        # 6 user core-seconds, 1 iowait, capacity 16 -> 9 idle.
        assert rep.user == pytest.approx(100 * 6 / 16)
        assert rep.iowait == pytest.approx(100 * 1 / 16)
        assert rep.idle == pytest.approx(100 * 9 / 16)
        assert rep.user + rep.system + rep.iowait + rep.idle == pytest.approx(100)

    def test_waiting_pct_is_idle_plus_iowait(self):
        sim = Simulator()
        acct = CpuAccountant(sim)
        with acct.track("node0", "user"):
            sim.run_until(sim.timeout(2.0))
        with acct.track("node0", "iowait"):
            sim.run_until(sim.timeout(1.0))
        rep = report(acct.core_seconds(), total_cores=1, window_seconds=4.0)
        assert rep.waiting_pct == pytest.approx(100 * (1.0 + 1.0) / 4.0)

    def test_overaccounting_detected(self):
        sim = Simulator()
        acct = CpuAccountant(sim)
        with acct.track("node0", "user", cores=100):
            sim.run_until(sim.timeout(1.0))
        with pytest.raises(SimulationError):
            report(acct.core_seconds(), total_cores=1, window_seconds=1.0)

    def test_unknown_state_rejected(self):
        sim = Simulator()
        acct = CpuAccountant(sim)
        with pytest.raises(SimulationError):
            with acct.track("node0", "naptime"):
                pass


class TestCluster:
    def test_paper_cluster_shape(self):
        cluster = Platform.build().cluster
        assert len(cluster.machines) == 10
        assert cluster.total_cores == 320

    def test_object_registry(self):
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec("a"), MachineSpec("b")])
        cluster.add_object("chunk0", 100, "a")
        assert cluster.object("chunk0").locations == {"a"}
        assert cluster.bytes_missing(["chunk0"], "a") == 0
        assert cluster.bytes_missing(["chunk0"], "b") == 100

    def test_size_conflict_rejected(self):
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec("a")])
        cluster.add_object("x", 100, "a")
        with pytest.raises(SimulationError):
            cluster.add_object("x", 200, "a")

    def test_transfer_object_replicates(self):
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec("a"), MachineSpec("b")])
        cluster.add_object("x", 10_000, "a")
        sim.run_until(cluster.transfer_object("x", "b"))
        assert cluster.object("x").locations == {"a", "b"}

    def test_transfer_to_holder_is_free(self):
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec("a")])
        cluster.add_object("x", 10_000, "a")
        sim.run_until(cluster.transfer_object("x", "a"))
        assert sim.now == 0.0

    def test_core_oversubscription(self):
        sim = Simulator()
        cluster = Cluster(sim, [MachineSpec("a", cores=32)])
        machine = cluster.machine("a")
        machine.resize_cores(200)
        assert machine.cores.capacity == 200
