"""Kubernetes pod lifecycle for the OpenWhisk baseline.

OpenWhisk is configured with Kubernetes as the container factory (paper
section 5.1).  Placement is not decided here: the platform places pods
least-loaded and data-oblivious
(:meth:`~repro.baselines.base.Platform._choose` with nothing priced) -
the property that costs OpenWhisk dearly in fig. 8b.  This module models
what a pod costs once placed: a scheduling decision per pod, plus a
cold start when pods are cold.  There is no warm set: either every
function's container is prewarmed on every node before the run, or
every activation gets a fresh pod, so one ``cold`` setting decides.
"""

from __future__ import annotations

from typing import Dict

from ..sim.cluster import Cluster
from ..sim.engine import Event, Simulator
from ..sim.resources import Resource
from .calibration import K8S_SCHEDULE, OW_COLD_START


class KubeScheduler:
    """The pod lifecycle: cold starts and containerd's per-node
    concurrency.  The platform places; this class starts pods."""

    def __init__(self, sim: Simulator, cluster: Cluster, cold: bool):
        self.sim = sim
        #: A fresh pod per activation (fig. 10's Docker-image actions,
        #: above OpenWhisk's inline size limit), or none ever: every pod
        #: is warm.
        self.cold = cold
        # The container runtime creates pods concurrently up to roughly
        # the core count (kubelet/dockerd parallelism).
        self._runtimes: Dict[str, Resource] = {
            name: Resource(
                sim, machine.spec.cores, name=f"{name}.containerd"
            )
            for name, machine in cluster.machines.items()
        }
        self.cold_starts = 0

    def pod_start(self, node: str) -> Event:
        """Scheduling decision, plus a cold start when pods are cold."""
        if self.cold:
            self.cold_starts += 1
        return self.sim.process(
            self._pod_start_proc(node), name=("pod_start {}", node)
        )

    def _pod_start_proc(self, node: str):
        yield self.sim.timeout(K8S_SCHEDULE)
        if self.cold:
            runtime = self._runtimes[node]
            yield runtime.acquire(1)
            try:
                yield self.sim.timeout(OW_COLD_START)
            finally:
                runtime.release(1)
