#!/usr/bin/env python3
"""The fig. 8b workload end to end, both layers.

Part 1 runs the *real* count-string / merge-counts codelets over a real
miniature corpus on the in-process runtime and checks the answer.

Part 2 runs the paper-scale experiment (984 x 100 MiB shards, 10 nodes /
320 vCPUs) on the simulated cluster across four platforms, reproducing
the fig. 8b comparison - locality and late binding are exactly the
difference between the first and last rows.

Run:  python examples/wordcount_cluster.py
"""

from repro import Fixpoint
from repro.baselines.openwhisk import OpenWhisk
from repro.baselines.ray import RayPlatform
from repro.dist.engine import FixpointSim
from repro.workloads.corpus import make_corpus, paper_shards, reference_count
from repro.workloads.wordcount import build_wordcount_graph, count_corpus


def real_miniature_run() -> None:
    print("=== real codelets, miniature corpus ===")
    fp = Fixpoint()
    shards = make_corpus(shards=12, shard_size=8_000, seed=11)
    needle = b"the"
    got = count_corpus(fp, shards, needle)
    want = reference_count(shards, needle)
    print(f"count-string x {len(shards)} + merges -> {got} (reference: {want})")
    assert got == want
    print(f"invocations: {fp.trace.by_function()}")


def simulated_paper_run() -> None:
    print("\n=== paper scale on the simulated cluster ===")
    platforms = [
        ("Fixpoint (locality + late binding)", lambda: FixpointSim.build(nodes=10)),
        ("Fixpoint (no locality)", lambda: FixpointSim.build(nodes=10, locality=False)),
        ("Ray continuation-passing", lambda: RayPlatform.build(nodes=10, style="cps")),
        ("OpenWhisk + MinIO + K8s", lambda: OpenWhisk.build(nodes=10)),
    ]
    print(f"{'platform':42s} {'time':>8s} {'waiting%':>9s} {'moved':>10s}")
    for label, factory in platforms:
        platform = factory()
        shards = paper_shards(platform.cluster.machine_names())
        result = platform.run(build_wordcount_graph(shards))
        print(
            f"{label:42s} {result.makespan:7.2f}s "
            f"{result.cpu.waiting_pct:8.1f}% "
            f"{result.bytes_transferred / (1 << 30):8.1f}GiB"
        )


if __name__ == "__main__":
    real_miniature_run()
    simulated_paper_run()
