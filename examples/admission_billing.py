#!/usr/bin/env python3
"""Multi-tenant admission end to end (paper section 6, both halves).

One shared FixpointSim cluster, two tenants, many jobs:

* Part 1 packs a staggered-spike fleet twice - footprint-aware
  admission vs the peak-reservation ablation (a subclass kept in
  ``benchmarks/bench_admission.py``, loaded from there) - and shows the
  density headroom on *executed* jobs.
* Part 2 runs two tenants' wordcounts concurrently, once with good
  placement and once deliberately bad (``locality=False``), and prints
  the pay-for-results vs pay-for-effort bills metered from the real
  invocations: effort passes the placement waste to the customer,
  results does not.

Run:  python examples/admission_billing.py
"""

import importlib.util
from pathlib import Path

from repro.dist.admission import AdmissionController, spike_job
from repro.dist.engine import FixpointSim
from repro.dist.multitenancy import validate_timeline
from repro.workloads.corpus import ShardSpec
from repro.workloads.wordcount import build_wordcount_graph

GB = 1 << 30
MB = 1 << 20


def _peak_reservation():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_admission.py"
    spec = importlib.util.spec_from_file_location("_bench_admission", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.PeakReservation


def density_demo() -> None:
    print("=== staggered spikes: footprint-aware vs peak reservation ===")
    reports = {}
    for policy, controller in (
        ("footprint", AdmissionController),
        ("peak", _peak_reservation()),
    ):
        platform = FixpointSim.build(nodes=4, cores=16)
        ctrl = controller(platform, capacity_bytes=9 * GB)
        for tenant, count in (("alice", 6), ("bob", 4)):
            for i in range(count):
                ctrl.submit(
                    tenant, spike_job(location=f"node{i % 4}"), at=i * 1.0
                )
        reports[policy] = ctrl.run()
        validate_timeline(reports[policy].timeline, 9 * GB)
    for policy, report in reports.items():
        print(
            f"{policy:>10s}: batch done in {report.makespan:6.1f}s, "
            f"max {report.max_concurrent} jobs co-resident"
        )
    ratio = reports["peak"].makespan / reports["footprint"].makespan
    print(f"density headroom from declared footprints: {ratio:.1f}x\n")


def billing_demo() -> None:
    print("=== two tenants' wordcounts, metered bills ===")
    print(f"{'placement':>10s} {'tenant':>7s} {'results':>10s} {'effort':>10s}")
    for label, locality in (("good", True), ("bad", False)):
        platform = FixpointSim.build(nodes=4, cores=8, locality=locality)
        nodes = platform.cluster.machine_names()
        ctrl = AdmissionController(platform)
        for tenant in ("alice", "bob"):
            shards = [
                ShardSpec(f"{tenant}-s{i}", 100 * MB, nodes[i % len(nodes)])
                for i in range(8)
            ]
            ctrl.submit(
                tenant, build_wordcount_graph(shards, task_memory=8 * GB)
            )
        report = ctrl.run()
        for tenant, bill in report.bills.items():
            print(
                f"{label:>10s} {tenant:>7s} {bill.results_total:10.4f} "
                f"{bill.effort_total:10.4f}"
            )
    print(
        "\npay-for-results charges the same declared work either way;\n"
        "pay-for-effort bills the customer for the platform's bad placement."
    )


if __name__ == "__main__":
    density_demo()
    billing_demo()
