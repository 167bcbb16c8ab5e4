"""The Pheromone baseline: data-bucket-triggered serverless workflows.

Pheromone (NSDI '23) lets users declare *function-level* dependencies
("invoke B on the output of A") and collocates a function with the bucket
holding its trigger data - so intermediate dataflow is cheap.  Its
dependency abstraction cannot express a dependency on data that is *not*
an intermediate result (paper section 5.3.2): external inputs are fetched
from durable storage without locality, and the fig. 8b reduce phase
cannot be expressed at all (the paper could only run its map phase).
A chained step is placed by :meth:`Platform._choose` over its largest
trigger bucket and fires without a control message; any other function
is placed least loaded.
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

    def __init__(self, sim: Simulator, cluster: Cluster, **kwargs):
        super().__init__(sim, cluster, **kwargs)
        #: Outputs of every loaded job's functions: the trigger buckets.
        #: Jobs sharing the platform through ``start`` accumulate here,
        #: so an earlier job's chained steps stay chained.
        self._produced: set = set()

    def load(self, graph: JobGraph) -> None:
        super().load(graph)
        self._produced.update(graph.producers())

    def _place(self, task: TaskSpec, job: JobRun) -> str:
        buckets = [n for n in task.inputs if n in self._produced]
        if not buckets:
            # External-data functions: no locality information.
            return self._choose()
        # Collocate with the largest trigger bucket.
        return self._choose(
            [max(buckets, key=lambda n: self.cluster.object(n).size)]
        )

    def _dispatched(self, task: TaskSpec) -> bool:
        # A pre-declared workflow step fires locally off its trigger
        # bucket: no scheduler dispatch.
        return not task.inputs or not self._produced.issuperset(task.inputs)

    def _run(self, task: TaskSpec, node: str):
        # The executor is claimed first, then any non-local data is
        # fetched while holding it (Pheromone executors own their
        # resources).
        overhead = (
            PHEROMONE_INVOKE if self._dispatched(task) else PHEROMONE_CHAIN_STEP
        )
        yield from self._busy(
            node, "system", task.cores, overhead - PHEROMONE_CORE
        )
        with self.cluster.accountant.track(node, "iowait", task.cores):
            yield self._fetch_all(task.inputs, node)
        yield from self._busy(node, "system", task.cores, PHEROMONE_CORE)
        yield from self._busy(node, "user", task.cores, task.compute_seconds)
