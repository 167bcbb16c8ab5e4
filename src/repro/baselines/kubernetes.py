"""Kubernetes pod lifecycle for the OpenWhisk baseline.

OpenWhisk is configured with Kubernetes as the container factory (paper
section 5.1).  Placement is not decided here: the platform places pods
least-loaded and data-oblivious
(:meth:`~repro.baselines.base.Platform._choose` with nothing priced) -
the property that costs OpenWhisk dearly in fig. 8b.  This module models
what a pod costs once placed: a scheduling decision per pod, plus a
cold start when no warm container for the function exists on the node.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..sim.cluster import Cluster
from ..sim.engine import Event, Simulator
from ..sim.resources import Resource
from .calibration import K8S_SCHEDULE, OW_COLD_START


class KubeScheduler:
    """The pod lifecycle: the warm set, cold starts, and containerd's
    per-node concurrency.  The platform places; this class starts pods."""

    def __init__(
        self, sim: Simulator, cluster: Cluster, per_invocation_pods: bool = False
    ):
        self.sim = sim
        self.cluster = cluster
        #: Docker-image actions above OpenWhisk's inline size limit get a
        #: fresh pod per activation (fig. 10's configuration).
        self.per_invocation_pods = per_invocation_pods
        self._warm: Set[Tuple[str, str]] = set()  # (function, node)
        # The container runtime creates pods concurrently up to roughly
        # the core count (kubelet/dockerd parallelism).
        self._runtimes: Dict[str, Resource] = {
            name: Resource(
                sim, machine.spec.cores, name=f"{name}.containerd"
            )
            for name, machine in cluster.machines.items()
        }
        self.cold_starts = 0

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
