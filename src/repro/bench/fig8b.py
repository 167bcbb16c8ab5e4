"""Fig. 8b: counting a 3-character string across 984 x 100 MiB shards.

Seven systems on a 10-node / 320-vCPU cluster, shards scattered randomly.
The three Fixpoint rows isolate the two design levers (locality-aware
placement; late binding), and the baselines show where each architecture
pays: Ray CPS shares Fix's benefits but at Python task costs, Ray
blocking loses placement information, Pheromone cannot express the reduce
on external data (map phase only, as in the paper), and OpenWhisk moves
every byte through MinIO from data-oblivious pods.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..baselines.base import Platform
from ..baselines.calibration import INTERNAL_IO_THREADS_8B
from ..baselines.openwhisk import OpenWhisk
from ..baselines.pheromone import Pheromone
from ..baselines.ray import RayPlatform
from ..dist.engine import FixpointSim
from ..workloads.corpus import declare_shards
from ..workloads.wordcount import build_wordcount_graph, map_only_graph
from .harness import ExperimentResult
from .paperdata import (
    FIG8B_NODES,
    FIG8B_SECONDS,
    FIG8B_SHARD_BYTES,
    FIG8B_SHARDS,
)


def _rows() -> List[Tuple[str, Callable[[], Platform], bool]]:
    """(paper label, platform factory, map_only)."""
    return [
        ("Fixpoint", lambda: FixpointSim.build(nodes=FIG8B_NODES), False),
        (
            "Fixpoint (no locality)",
            lambda: FixpointSim.build(nodes=FIG8B_NODES, locality=False),
            False,
        ),
        (
            "Fixpoint (no locality + internal I/O)",
            lambda: FixpointSim.build(
                nodes=FIG8B_NODES,
                locality=False,
                internal_io=True,
                oversubscribe_cores=INTERNAL_IO_THREADS_8B,
            ),
            False,
        ),
        (
            "Ray (continuation-passing)",
            lambda: RayPlatform.build(nodes=FIG8B_NODES, style="cps"),
            False,
        ),
        (
            "Ray (blocking)",
            lambda: RayPlatform.build(nodes=FIG8B_NODES, style="blocking"),
            False,
        ),
        (
            "Pheromone + MinIO (map only)",
            lambda: Pheromone.build(nodes=FIG8B_NODES),
            True,
        ),
        (
            "OpenWhisk + MinIO + K8s",
            lambda: OpenWhisk.build(nodes=FIG8B_NODES),
            False,
        ),
    ]


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    shard_count = max(20, int(FIG8B_SHARDS * scale))
    result = ExperimentResult(
        experiment="fig8b",
        title=(
            f"Word-count over {shard_count} x 100 MiB shards, "
            f"{FIG8B_NODES} nodes / {FIG8B_NODES * 32} vCPUs"
        ),
    )
    for label, factory, map_only in _rows():
        platform = factory()
        nodes = platform.cluster.machine_names()
        shards = declare_shards(shard_count, FIG8B_SHARD_BYTES, nodes, seed=seed)
        graph = map_only_graph(shards) if map_only else build_wordcount_graph(shards)
        run_result = platform.run(graph)
        paper = FIG8B_SECONDS.get(label)
        result.rows.append(
            {
                "system": label,
                "time_s": round(run_result.makespan, 2),
                "paper_s": paper * scale if paper is not None else None,
                "user_pct": round(run_result.cpu.user, 1),
                "system_pct": round(run_result.cpu.system, 1),
                "iowait_pct": round(run_result.cpu.iowait, 1),
                "waiting_pct": round(run_result.cpu.waiting_pct, 1),
                "bytes_moved_GiB": round(
                    run_result.bytes_transferred / (1 << 30), 1
                ),
            }
        )
    result.notes.append(
        "Pheromone runs the map phase only: its dependency abstraction "
        "cannot trigger the reduce on external-data completion (paper 5.3.2)"
    )
    result.notes.append(
        "paper_s scaled linearly when the shard count is shrunk for CI runs"
    )
    result.notes.append(
        "waiting_pct = iowait + idle, the paper's 'CPU waiting %' metric"
    )
    return result
