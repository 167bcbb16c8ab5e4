"""Tests for the multi-job admission layer (queue, footprint-aware
admit, DRR fair share, per-tenant pay-for-results bills)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.dist.admission import (
    AdmissionController,
    AdmissionError,
    spike_job,
)
from repro.dist.engine import FixpointSim
from repro.dist.graph import JobGraph, TaskSpec
from repro.dist.multitenancy import (
    fits_online,
    profile_from_graph,
    validate_timeline,
)
from repro.fixpoint.billing import job_bill
from repro.workloads.corpus import ShardSpec
from repro.workloads.wordcount import build_wordcount_graph

GB = 1 << 30
MB = 1 << 20


def _ablations():
    """The two designs the controller beats are subclasses kept with
    the bench that measures them; load them from there, by path."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_admission.py"
    spec = importlib.util.spec_from_file_location("_bench_admission", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.PeakReservation, bench.GlobalFifo


PeakReservation, GlobalFifo = _ablations()


def build_platform(**kwargs):
    return FixpointSim.build(nodes=4, cores=8, **kwargs)


def spike_fleet(ctrl, tenant, count, start=0.0, step=1.0):
    """Submit ``count`` staggered spike jobs for ``tenant``."""
    return [
        ctrl.submit(
            tenant,
            spike_job(location=f"node{i % 4}"),
            at=start + i * step,
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Profile derivation (the JobGraph -> AppProfile bridge)


class TestProfileDerivation:
    def test_spike_job_round_trips_to_spike_profile(self):
        profile = profile_from_graph(spike_job(), name="s")
        assert [(p.seconds, p.bytes) for p in profile.phases] == [
            (1.0, 4 * GB),
            (15.0, 256 * MB),
        ]
        assert profile.peak_bytes == 4 * GB

    def test_parallel_tasks_sum_pointwise(self):
        graph = JobGraph()
        graph.add_data("in", 1, "node0")
        for i in range(3):
            graph.add_task(
                TaskSpec(
                    name=f"t{i}",
                    fn="f",
                    inputs=("in",),
                    output=f"o{i}",
                    output_size=1,
                    compute_seconds=2.0,
                    memory_bytes=1 * GB,
                )
            )
        profile = profile_from_graph(graph)
        # All three run concurrently on the critical-path schedule.
        assert profile.peak_bytes == 3 * GB
        assert profile.lifetime == pytest.approx(2.0)

    def test_chain_never_sums_sequential_tasks(self):
        graph = JobGraph()
        graph.add_data("in", 1, "node0")
        graph.add_task(
            TaskSpec("a", "f", ("in",), "mid", 1, 1.0, memory_bytes=2 * GB)
        )
        graph.add_task(
            TaskSpec("b", "f", ("mid",), "out", 1, 1.0, memory_bytes=3 * GB)
        )
        profile = profile_from_graph(graph)
        assert profile.peak_bytes == 3 * GB  # never 5 GB
        assert profile.mem_time_integral() == pytest.approx(5 * GB)

    def test_leading_memoryless_work_keeps_spike_at_true_instant(self):
        """A zero-memory task leading the chain must not shift the later
        spike to t=0 - admission would then project the job memory-free
        at the instant it really spikes."""
        graph = JobGraph()
        graph.add_data("in", 1, "node0")
        graph.add_task(
            TaskSpec("lead", "f", ("in",), "mid", 1, 10.0, memory_bytes=0)
        )
        graph.add_task(
            TaskSpec("spike", "f", ("mid",), "out", 1, 1.0, memory_bytes=4 * GB)
        )
        profile = profile_from_graph(graph)
        assert [(p.seconds, p.bytes) for p in profile.phases] == [
            (10.0, 0),
            (1.0, 4 * GB),
        ]
        assert profile.memory_at(10.5) == 4 * GB
        assert profile.memory_at(5.0) == 0

    def test_zero_compute_graph_still_valid(self):
        graph = JobGraph()
        graph.add_data("in", 1, "node0")
        graph.add_task(
            TaskSpec("a", "f", ("in",), "out", 1, 0.0, memory_bytes=1 * GB)
        )
        profile = profile_from_graph(graph)
        assert profile.peak_bytes == 1 * GB
        assert profile.lifetime > 0


# ----------------------------------------------------------------------
# Acceptance: two tenants, one shared cluster, real meters


class TestSharedClusterExecution:
    def test_two_tenants_run_concurrently_with_real_bills(self):
        platform = build_platform()
        ctrl = AdmissionController(platform, capacity_bytes=16 * GB)
        alice = ctrl.submit("alice", spike_job(location="node0"))
        bob = ctrl.submit("bob", spike_job(location="node1"))
        report = ctrl.run()
        # Both jobs were admitted at t=0 and overlapped in time on the
        # one shared cluster - neither waited for the other.
        assert alice.admitted_at == bob.admitted_at == 0.0
        assert alice.finished_at > bob.admitted_at
        assert bob.finished_at > alice.admitted_at
        # Every bill total is recomputable from the tickets' *executed*
        # invocation meters - no synthetic meters anywhere.
        for tenant, ticket in (("alice", alice), ("bob", bob)):
            assert len(ticket.meters) == len(ticket.graph.tasks) == 2
            assert report.bills[tenant].results_total == pytest.approx(
                job_bill(ticket.meters, "results")
            )
            assert report.bills[tenant].effort_total == pytest.approx(
                job_bill(ticket.meters, "effort")
            )
            assert report.bills[tenant].results_total > 0
            assert report.bills[tenant].effort_total > 0

    def test_footprint_admission_packs_denser_than_peak(self):
        """The acceptance ratio: staggered spikes interleave under the
        pointwise check but serialize under peak reservation."""

        def run(controller):
            ctrl = controller(build_platform(), capacity_bytes=9 * GB)
            for tenant, count in (("alice", 6), ("bob", 2)):
                spike_fleet(ctrl, tenant, count)
            return ctrl.run()

        aware = run(AdmissionController)
        peak = run(PeakReservation)
        assert aware.max_concurrent > peak.max_concurrent
        ratio = peak.makespan / aware.makespan
        assert ratio > 1.0, f"expected denser packing, got ratio {ratio}"
        # Density never comes from overcommitting: the footprint
        # timeline is provably within capacity at every instant.
        validate_timeline(aware.timeline, 9 * GB)
        validate_timeline(peak.timeline, 9 * GB)


# ----------------------------------------------------------------------
# Tenant isolation (fair share under a burst)


class TestTenantIsolation:
    def test_burst_cannot_starve_other_tenant(self):
        platform = build_platform()
        # Capacity for one spike at a time: every admission is contended.
        ctrl = AdmissionController(platform, capacity_bytes=5 * GB)
        spike_fleet(ctrl, "bursty", 6, step=0.0)  # all at t=0
        bob = ctrl.submit("patient", spike_job(location="node1"))
        report = ctrl.run()
        # DRR alternates tenants: the patient tenant's single job is
        # admitted within one round of the burst, not behind all 6.
        position = report.admit_order.index(bob.name)
        assert position <= 1, f"starved to position {position}"
        # Fair-share bound on the wait itself: patient waited for at
        # most one of the burst's jobs, not the whole burst.
        burst_tickets = [t for t in ctrl.tickets if t.tenant == "bursty"]
        one_job_span = burst_tickets[0].finished_at - burst_tickets[0].admitted_at
        assert bob.queue_delay <= one_job_span + 1e-9

    def test_drr_admits_around_blocked_head_of_line(self):
        """A big queued job of one tenant must not block another
        tenant's small job that fits right now (the fifo ablation does
        block - that is what DRR buys)."""

        def run(controller):
            ctrl = controller(build_platform(), capacity_bytes=9 * GB)
            ctrl.submit("alice", spike_job(peak_bytes=8 * GB), name="big-0")
            ctrl.submit("alice", spike_job(peak_bytes=8 * GB), name="big-1")
            small = ctrl.submit(
                "bob",
                spike_job(peak_bytes=1 * GB, sustained_bytes=64 * MB),
                name="small",
            )
            ctrl.run()
            return small.queue_delay

        # admitted immediately alongside big-0
        assert run(AdmissionController) == 0.0
        assert run(GlobalFifo) > 0.0  # stuck behind big-1's head of line


# ----------------------------------------------------------------------
# Rejection and capacity safety


class TestAdmissionSafety:
    def test_impossible_job_rejected_at_submit(self):
        platform = build_platform()
        ctrl = AdmissionController(platform, capacity_bytes=2 * GB)
        with pytest.raises(AdmissionError):
            ctrl.submit("alice", spike_job(peak_bytes=4 * GB))

    def test_task_wider_than_any_machine_rejected_at_submit(self):
        """Aggregate capacity is 4 x 128 GB: a 200 GB task passes the
        aggregate check but no single machine could ever bind it - it
        must be an AdmissionError at submit, not a simulation crash."""
        platform = build_platform()
        ctrl = AdmissionController(platform)  # default: cluster total RAM
        with pytest.raises(AdmissionError):
            ctrl.submit("alice", spike_job(peak_bytes=200 * GB))

    def test_duplicate_explicit_names_rejected(self):
        """Names namespace the shared object registry; a duplicate would
        alias two tenants' objects onto each other."""
        platform = build_platform()
        ctrl = AdmissionController(platform)
        ctrl.submit("alice", spike_job(), name="same")
        with pytest.raises(AdmissionError):
            ctrl.submit("bob", spike_job(), name="same")

    def test_rejection_does_not_burn_the_name(self):
        """A rejected submission never ran, so its name stays available:
        the tenant fixes the graph and resubmits under the same name."""
        platform = build_platform()
        ctrl = AdmissionController(platform, capacity_bytes=2 * GB)
        with pytest.raises(AdmissionError):
            ctrl.submit("alice", spike_job(peak_bytes=4 * GB), name="etl")
        ticket = ctrl.submit("alice", spike_job(peak_bytes=1 * GB), name="etl")
        ctrl.run()
        assert ticket.finished_at is not None

    def test_capacity_freed_by_declared_decay_admits_promptly(self):
        """Capacity can free by pure passage of time (an active job's
        declared spike ending), not only by completion: the second job
        must be admitted right after the first's 1 s spike, not after
        its whole 16 s lifetime - otherwise footprint admission
        silently degenerates into the peak ablation."""
        platform = build_platform()
        ctrl = AdmissionController(platform, capacity_bytes=5 * GB)
        first = ctrl.submit("alice", spike_job(location="node0"))
        second = ctrl.submit("bob", spike_job(location="node1"))
        ctrl.run()
        assert second.admitted_at == pytest.approx(1.0)
        assert second.admitted_at < first.finished_at

    def test_oversized_now_is_queued_never_squeezed(self):
        platform = build_platform()
        ctrl = AdmissionController(platform, capacity_bytes=6 * GB)
        first = ctrl.submit("alice", spike_job(peak_bytes=4 * GB))
        second = ctrl.submit("bob", spike_job(peak_bytes=4 * GB))
        ctrl.run()
        assert first.queue_delay == 0.0
        # The second spike cannot co-reside with the first's spike; it
        # waits (is queued), it is not rejected and not squeezed in.
        assert second.queue_delay > 0.0
        assert second.finished_at is not None
        # And the whole admission history is provably within capacity at
        # every instant - validate_packing over the online timeline.
        validate_timeline(ctrl.timeline, 6 * GB)

    @pytest.mark.parametrize(
        "controller",
        [
            pytest.param(AdmissionController, id="footprint"),
            pytest.param(PeakReservation, id="peak"),
        ],
    )
    def test_timeline_always_validates(self, controller):
        ctrl = controller(build_platform(), capacity_bytes=9 * GB)
        spike_fleet(ctrl, "alice", 5)
        spike_fleet(ctrl, "bob", 3, start=0.5)
        ctrl.run()
        validate_timeline(ctrl.timeline, 9 * GB)

    def test_fits_online_rejects_future_collision(self):
        profile = profile_from_graph(spike_job(), name="s")
        # Candidate's spike lands inside the active job's spike.
        assert not fits_online([(profile, 0.0)], profile, 0.5, 5 * GB)
        # Staggered past the spike, the tails share fine.
        assert fits_online([(profile, 0.0)], profile, 1.0, 5 * GB)


# ----------------------------------------------------------------------
# Determinism


class TestDeterminism:
    def _run(self, seed):
        platform = build_platform(seed=seed, locality=False)
        ctrl = AdmissionController(platform, capacity_bytes=9 * GB)
        spike_fleet(ctrl, "alice", 4)
        spike_fleet(ctrl, "bob", 2, start=0.5)
        return ctrl.run()

    def test_same_seed_same_order_and_bills(self):
        one, two = self._run(7), self._run(7)
        assert one.admit_order == two.admit_order
        assert one.makespan == two.makespan
        for tenant in one.bills:
            assert (
                one.bills[tenant].results_total
                == two.bills[tenant].results_total
            )
            assert (
                one.bills[tenant].effort_total == two.bills[tenant].effort_total
            )


# ----------------------------------------------------------------------
# End-to-end regression: concurrent wordcounts, effort vs results


class TestWordcountBillingRegression:
    def _shards(self, owner, nodes, count=8, size=100 * MB):
        return [
            ShardSpec(
                name=f"{owner}-shard{i}",
                size=size,
                location=nodes[i % len(nodes)],
            )
            for i in range(count)
        ]

    def _run(self, locality):
        platform = build_platform(locality=locality, seed=11)
        nodes = platform.cluster.machine_names()
        ctrl = AdmissionController(platform)
        tickets = {}
        for tenant in ("alice", "bob"):
            graph = build_wordcount_graph(
                self._shards(tenant, nodes), task_memory=8 * GB
            )
            tickets[tenant] = ctrl.submit(tenant, graph)
        report = ctrl.run()
        # Concurrency sanity: both jobs really shared the cluster.
        assert report.max_concurrent == 2
        return report

    def test_bad_placement_effort_exceeds_results(self):
        bad = self._run(locality=False)
        good = self._run(locality=True)
        for tenant in ("alice", "bob"):
            # Under deliberately bad placement the occupancy bill passes
            # the waste to the customer: effort > results.
            assert (
                bad.bills[tenant].effort_total
                > bad.bills[tenant].results_total
            )
            # Pay-for-results is placement-immune: the same declared
            # work costs the same whether placement was good or bad.
            assert bad.bills[tenant].results_total == pytest.approx(
                good.bills[tenant].results_total
            )
            # Pay-for-effort is not: bad placement inflates occupancy.
            assert (
                bad.bills[tenant].effort_total
                > good.bills[tenant].effort_total
            )
