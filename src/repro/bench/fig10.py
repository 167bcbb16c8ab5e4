"""Fig. 10: burst-parallel compilation of ~2,000 translation units.

Fixpoint uploads all dependencies from the client and distributes
fine-grained compile invocations with their data bundled; Ray + MinIO
launches Linux executables via Popen that pull sources and headers from
MinIO (binaries start on one node); OpenWhisk creates its function
containers on demand (the paper includes creation time here) and moves
everything through MinIO.
"""

from __future__ import annotations

from ..baselines.openwhisk import OpenWhisk
from ..baselines.ray import RayPopenMinIO
from ..dist.engine import FixpointSim
from ..workloads.compilejob import build_compile_graph
from .harness import ExperimentResult
from .paperdata import FIG10_SECONDS, FIG10_TU_COUNT


def run(scale: float = 1.0, seed: int = 11) -> ExperimentResult:
    tu_count = max(40, int(FIG10_TU_COUNT * scale))
    result = ExperimentResult(
        experiment="fig10",
        title=f"Compile {tu_count} TUs + link, 10 nodes / 320 vCPUs",
    )
    rows = [
        ("Fixpoint", lambda: FixpointSim.build(nodes=10)),
        ("Ray + MinIO", lambda: RayPopenMinIO.build(nodes=10)),
        ("OpenWhisk + MinIO + K8s", lambda: OpenWhisk.build(nodes=10, cold=True)),
    ]
    for label, factory in rows:
        platform = factory()
        graph = build_compile_graph(tu_count=tu_count, seed=seed)
        run_result = platform.run(graph)
        paper = FIG10_SECONDS.get(label)
        result.rows.append(
            {
                "system": label,
                "time_s": round(run_result.makespan, 2),
                "paper_s": paper,
                "user_pct": round(run_result.cpu.user, 1),
                "waiting_pct": round(run_result.cpu.waiting_pct, 1),
                "bytes_moved_GiB": round(
                    run_result.bytes_transferred / (1 << 30), 2
                ),
                "invocations": run_result.invocations,
            }
        )
    result.notes.append(
        "OpenWhisk runs cold (function creation included), as in the paper"
    )
    result.notes.append(
        "paper_s is the full 1,987-TU configuration; compare shapes when "
        "scaled down"
    )
    return result
