"""The Pheromone baseline: data-bucket-triggered serverless workflows.

Pheromone (NSDI '23) lets users declare *function-level* dependencies
("invoke B on the output of A") and collocates a function with the bucket
holding its trigger data - so intermediate dataflow is cheap.  Its
dependency abstraction cannot express a dependency on data that is *not*
an intermediate result (paper section 5.3.2): external inputs are fetched
from durable storage without locality, and the fig. 8b reduce phase
cannot be expressed at all (the paper could only run its map phase).
"""

from __future__ import annotations

from ..dist.graph import JobGraph, TaskSpec
from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from .base import JobRun, Platform
from .calibration import (
    PHEROMONE_CHAIN_STEP,
    PHEROMONE_CORE,
    PHEROMONE_INVOKE,
    PHEROMONE_STREAM_BW,
)


class Pheromone(Platform):
    """Bucket-triggered workflows with collocated intermediates."""

    name = "Pheromone + MinIO"
    data_bandwidth = PHEROMONE_STREAM_BW
    #: Pheromone cannot trigger a reduce on completion of external-data
    #: consumers; experiment drivers must respect this (fig. 8b runs the
    #: map phase only, as the paper did).
    can_reduce_on_external = False

    def __init__(self, sim: Simulator, cluster: Cluster, **kwargs):
        super().__init__(sim, cluster, **kwargs)
        self._rr = 0  # round-robin cursor for external-input functions

    def _place(self, task: TaskSpec) -> str:
        intermediates = [
            n for n in task.inputs if self.cluster.object(n).locations
        ]
        produced = [
            n
            for n in intermediates
            if not n.startswith("ext:") and self._is_intermediate(n)
        ]
        if produced:
            # Collocate with the largest trigger bucket.
            biggest = max(produced, key=lambda n: self.cluster.object(n).size)
            locations = self.cluster.object(biggest).locations
            machine_locs = [
                loc for loc in locations if loc in self.cluster.machines
            ]
            if machine_locs:
                return min(machine_locs)
        # External-data functions: scheduler has no locality information.
        names = self.cluster.machine_names()
        node = names[self._rr % len(names)]
        self._rr += 1
        return node

    def _is_intermediate(self, name: str) -> bool:
        return name in self._produced

    def load(self, graph: JobGraph) -> None:
        super().load(graph)
        self._produced = set(graph.producers())

    def _invoke_proc(self, task: TaskSpec, submitter: str, job: JobRun):
        node = self._place(task)
        chained = all(self._is_intermediate(n) for n in task.inputs) and bool(
            task.inputs
        )
        if chained:
            # A pre-declared workflow step fires locally off its
            # trigger bucket: no scheduler dispatch.
            overhead = PHEROMONE_CHAIN_STEP
        else:
            yield self.cluster.network.message(submitter, node)
            overhead = PHEROMONE_INVOKE
        # Claim the executor, then fetch any non-local data while
        # holding it (Pheromone executors own their resources).
        yield from self._reserved(task, node, self._run(task, node, overhead))
        self.cluster.add_object(task.output, task.output_size, node)
        return node

    def _run(self, task: TaskSpec, node: str, overhead: float):
        yield from self._busy(
            node, "system", task.cores, overhead - PHEROMONE_CORE
        )
        with self.cluster.accountant.track(node, "iowait", task.cores):
            yield self._fetch_all(task.inputs, node)
        yield from self._busy(node, "system", task.cores, PHEROMONE_CORE)
        yield from self._busy(node, "user", task.cores, task.compute_seconds)
