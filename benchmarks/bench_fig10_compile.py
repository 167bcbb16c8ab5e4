"""Fig. 10: burst-parallel compilation (~2,000 TUs + one link).

Shape: Fixpoint < Ray + MinIO < OpenWhisk; Fixpoint roughly 2x faster
than Ray (paper: 1.94x) and 2.5x faster than OpenWhisk (paper: 2.53x);
Fixpoint moves orders of magnitude fewer bytes because dependencies ship
once per node instead of once per invocation.
"""

from __future__ import annotations

import time

from repro.bench import fig10
from repro.bench.harness import factor, ordering_holds
from repro.dist.graph import TaskSpec
from repro.dist.objectview import ObjectView
from repro.dist.scheduler import DataflowScheduler
from repro.fixpoint.runtime import Fixpoint
from repro.sim.cluster import Cluster, MachineSpec
from repro.sim.engine import Simulator
from repro.workloads.compilejob import compile_project, make_headers, make_source

#: The paper's fig. 10 link step consumes every object file at once.
LINK_INPUTS = 1987


def _link_placement(machines: int):
    """A scheduler staring at fig. 10's worst case: one task, 1,987
    inputs spread across the cluster."""
    sim = Simulator()
    cluster = Cluster(
        sim, [MachineSpec(f"node{i}") for i in range(machines)]
    )
    names = []
    for i in range(LINK_INPUTS):
        name = f"tu{i}.o"
        cluster.add_object(name, 40_000, f"node{i % machines}")
        names.append(name)
    view = ObjectView("sched")
    view.sync_from_cluster(cluster)
    link = TaskSpec(
        name="link",
        fn="ld",
        inputs=tuple(names),
        output="exe",
        output_size=1 << 20,
        compute_seconds=1.0,
    )
    return DataflowScheduler(cluster, view), link


def _placements_per_second(machines: int, reps: int = 50) -> float:
    sched, link = _link_placement(machines)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            sched.place(link)
        best = min(best, time.perf_counter() - t0)
    return reps / best


def test_fig10_link_placement_scalability(benchmark):
    """The scheduler hot spot: placing the 1,987-input link task.

    One pass over the inputs finds the machines believed to hold any of
    them (``ObjectView.bid``) and only those contenders are compared,
    so the cost must *not* scale with the machine count (the
    old per-machine pricing loop was O(machines x inputs): 10x the
    machines cost ~10x the time).
    """
    sched, link = _link_placement(10)
    placement = benchmark.pedantic(
        lambda: sched.place(link), rounds=20, iterations=5
    )
    assert placement.machine == "node0"
    rate10 = _placements_per_second(10)
    rate100 = _placements_per_second(100)
    print(
        f"\nlink placement: {rate10:,.0f}/s on 10 machines, "
        f"{rate100:,.0f}/s on 100 machines"
    )
    # 10x the machines must cost well under 5x the time (was ~10x).
    assert rate100 > rate10 / 5


def test_real_compile_pipeline(benchmark):
    """The real mini compile+link dataflow on the in-process runtime."""

    def pipeline():
        fp = Fixpoint()
        sources = [
            make_source(i, list(range(max(0, i - 2), i))) for i in range(24)
        ]
        return fp.repo.get_blob(
            compile_project(fp, sources, make_headers())
        ).data

    exe = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    assert exe.startswith(b"EXE\n")
    assert b"fn_23" in exe


def test_fig10_shape(benchmark, run_once):
    result = run_once(benchmark, fig10.run, scale=1.0)
    result.show()
    assert ordering_holds(
        result, "time_s", ["Fixpoint", "Ray + MinIO", "OpenWhisk + MinIO + K8s"]
    )
    ray = factor(result, "time_s", "Ray + MinIO", "Fixpoint")
    ow = factor(result, "time_s", "OpenWhisk + MinIO + K8s", "Fixpoint")
    assert 1.5 <= ray <= 3.5, ray
    assert 2.0 <= ow <= 4.0, ow
    # Externalization ships the header bundle once per node; the MinIO
    # systems re-fetch it per invocation.
    fix_bytes = result.value("Fixpoint", "bytes_moved_GiB")
    ray_bytes = result.value("Ray + MinIO", "bytes_moved_GiB")
    assert ray_bytes > 20 * fix_bytes
