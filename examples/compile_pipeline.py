#!/usr/bin/env python3
"""Burst-parallel compilation (the fig. 10 workload), both layers.

Part 1: the real toy libclang/liblld codelets compile a 40-TU project on
the in-process runtime - including a demonstration that link-time errors
(undefined and duplicate symbols) surface exactly like a real linker's.

Part 2: the ~2,000-TU dataflow on the simulated 10-node cluster,
Fixpoint vs Ray + MinIO vs OpenWhisk - dependency bundling vs re-fetching
the header bundle per invocation.

Run:  python examples/compile_pipeline.py
"""

from repro import Fixpoint
from repro.baselines.openwhisk import OpenWhisk
from repro.baselines.ray import RayPopenMinIO
from repro.core.errors import CodeletError
from repro.dist.engine import FixpointSim
from repro.workloads.compilejob import (
    HEADERS,
    build_compile_graph,
    compile_project,
    make_source,
)


def real_pipeline() -> None:
    print("=== real mini-compiler on the in-process runtime ===")
    fp = Fixpoint()
    sources = [make_source(i, list(range(max(0, i - 3), i))) for i in range(40)]
    exe = fp.repo.get_blob(compile_project(fp, sources, HEADERS)).data
    symbols = exe.decode().splitlines()
    print(f"linked executable with {len(symbols) - 1} symbols "
          f"({symbols[1]} ... {symbols[-1]})")
    print(f"invocations: {fp.trace.by_function()}")

    # Link-time failure injection: fn_999 is called but never defined.
    try:
        compile_project(fp, [make_source(0, [999])], HEADERS)
    except CodeletError as exc:
        print(f"link failure surfaces correctly: {exc}")


def simulated_cluster() -> None:
    print("\n=== paper scale: 1,987 TUs on 10 nodes / 320 vCPUs ===")
    rows = [
        ("Fixpoint", lambda: FixpointSim.build(nodes=10)),
        ("Ray + MinIO", lambda: RayPopenMinIO.build(nodes=10)),
        ("OpenWhisk + MinIO + K8s", lambda: OpenWhisk.build(nodes=10, cold=True)),
    ]
    print(f"{'platform':26s} {'time':>8s} {'moved':>10s}   (paper: 39.5 / 76.9 / 100.0 s)")
    for label, factory in rows:
        platform = factory()
        result = platform.run(build_compile_graph())
        print(
            f"{label:26s} {result.makespan:7.1f}s "
            f"{result.bytes_transferred / (1 << 30):8.2f}GiB"
        )


if __name__ == "__main__":
    real_pipeline()
    simulated_cluster()
