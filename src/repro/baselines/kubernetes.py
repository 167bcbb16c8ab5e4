"""A Kubernetes-style pod scheduler: least-loaded and data-oblivious.

OpenWhisk is configured with Kubernetes as the container factory (paper
section 5.1), so pod placement ignores where data lives - the property
that costs it dearly in fig. 8b.  Pod lifecycle costs: a scheduling
decision per pod, plus a cold-start when no warm container for the
function exists on the chosen node.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..core.errors import SchedulingError
from ..sim.cluster import Cluster
from ..sim.engine import Event, Simulator
from ..sim.resources import Resource
from .calibration import K8S_SCHEDULE, OW_COLD_START


class KubeScheduler:
    """Tracks outstanding pods per node; places on the least loaded."""

    def __init__(
        self, sim: Simulator, cluster: Cluster, per_invocation_pods: bool = False
    ):
        self.sim = sim
        self.cluster = cluster
        #: Docker-image actions above OpenWhisk's inline size limit get a
        #: fresh pod per activation (fig. 10's configuration).
        self.per_invocation_pods = per_invocation_pods
        self._outstanding: Dict[str, int] = {
            name: 0 for name in cluster.machine_names()
        }
        self._warm: Set[Tuple[str, str]] = set()  # (function, node)
        # The container runtime creates pods concurrently up to roughly
        # the core count (kubelet/dockerd parallelism).
        self._runtimes: Dict[str, Resource] = {
            name: Resource(
                sim, machine.spec.cores, name=f"{name}.containerd"
            )
            for name, machine in cluster.machines.items()
        }
        self.pods_scheduled = 0
        self.cold_starts = 0

    def place(self) -> str:
        if not self._outstanding:
            raise SchedulingError("no nodes available")
        node = min(self._outstanding, key=lambda n: (self._outstanding[n], n))
        self._outstanding[node] += 1
        self.pods_scheduled += 1
        return node

    def pod_finished(self, node: str) -> None:
        if self._outstanding[node] <= 0:
            raise SchedulingError(f"pod accounting underflow on {node}")
        self._outstanding[node] -= 1

    def is_warm(self, function: str, node: str) -> bool:
        return (function, node) in self._warm

    def prewarm(self, function: str, node: str) -> None:
        self._warm.add((function, node))

    def prewarm_everywhere(self, function: str) -> None:
        for node in self.cluster.machine_names():
            self.prewarm(function, node)

    def pod_start(self, function: str, node: str) -> Event:
        """Scheduling decision plus cold start if needed."""
        cold = self.per_invocation_pods or not self.is_warm(function, node)
        if cold:
            self.cold_starts += 1
            self._warm.add((function, node))
        return self.sim.process(
            self._pod_start_proc(node, cold), name=("pod_start {}", node)
        )

    def _pod_start_proc(self, node: str, cold: bool):
        yield self.sim.timeout(K8S_SCHEDULE)
        if cold:
            runtime = self._runtimes[node]
            yield runtime.acquire(1)
            try:
                yield self.sim.timeout(OW_COLD_START)
            finally:
                runtime.release(1)
