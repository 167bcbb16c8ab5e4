"""The OpenWhisk + MinIO + Kubernetes baseline.

Models the classic FaaS pipeline the paper deploys (section 5.1):

  client -> API gateway -> controller -> Kafka -> invoker -> container

with per-invocation overhead decomposed from the paper's measured 30.7 ms
warm path (fig. 7a).  Crucially, the data path is *internal*: the function
claims its pod's CPU and memory at admission, then GETs inputs from MinIO
while occupying them (iowait), computes, and PUTs its output back to
MinIO.  Placement is Kubernetes': least-loaded, data-oblivious - the
platform's :meth:`~repro.baselines.base.Platform._choose` with nothing
priced; :class:`~repro.baselines.kubernetes.KubeScheduler` runs the pods.
It keeps its own ``_invoke_proc``: in the shared one the controller's
result-path charge falls after the load count-down (measured: fig. 8b's
task finishes and core-seconds move).

Pods have one temperature, ``cold``.  Warm (the default, fig. 7a's and
fig. 8b's rows) means every function's container is already up on every
node, so a pod costs only its scheduling decision.  Cold (fig. 10, where
the paper counts function creation) means every activation pulls the
action's image to its node on first use and boots a fresh pod.
"""

from __future__ import annotations

from ..dist.graph import JobGraph, TaskSpec
from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from .base import JobRun, Platform
from .calibration import (
    MINIO_STREAM_BW,
    OPENWHISK_CORE,
    OW_IMAGE_BYTES,
    OW_CONTROLLER,
    OW_GATEWAY,
    OW_INVOKER,
    OW_KAFKA,
    OW_RESULT_PATH,
)
from .kubernetes import KubeScheduler
from .minio import MinIO


class OpenWhisk(Platform):
    """OpenWhisk on K8s with MinIO as the data plane."""

    name = "OpenWhisk + MinIO + K8s"
    data_bandwidth = MINIO_STREAM_BW

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        cold: bool = False,
        **kwargs,
    ):
        super().__init__(sim, cluster, **kwargs)
        self.minio = MinIO(sim, cluster)
        self.k8s = KubeScheduler(sim, cluster, cold)
        self._controller = cluster.machine_names()[0]
        # Docker-image actions pull their image per node on first use; the
        # registry is an external endpoint at NIC line rate (the pull's
        # real cost is the receiving node's data path).
        self._registry = "ow-registry"
        cluster.network.attach(self._registry)
        self._images: dict[tuple, object] = {}

    # ------------------------------------------------------------------

    def load(self, graph: JobGraph) -> None:
        """All input data starts in MinIO (the paper stores the Wikipedia
        shards and compile inputs there for OpenWhisk)."""
        self.minio.load(graph)

    def _invoke_proc(self, task: TaskSpec, submitter: str, job: JobRun):
        # Control path: gateway -> controller -> Kafka; charged as system
        # time on the controller node.
        pre = OW_GATEWAY + OW_CONTROLLER + OW_KAFKA
        yield self.cluster.network.message(submitter, self._controller)
        yield from self._busy(self._controller, "system", 1, pre)
        node = self._choose()
        self._outstanding[node] += 1
        try:
            if self.k8s.cold:
                yield self._pull_image(task.fn, node)
            # The pod's resources are reserved at scheduling time; the
            # container then boots while holding them (internal I/O from
            # the very first moment).
            yield from self._reserved(task, node, self._run_pod(task, node))
            yield from self._busy(self._controller, "system", 1, OW_RESULT_PATH)
        finally:
            self._outstanding[node] -= 1
        holder = self.minio.node_for(task.output)
        self.cluster.add_object(task.output, task.output_size, holder)
        return node

    def _run_pod(self, task: TaskSpec, node: str):
        with self.cluster.accountant.track(node, "iowait", task.cores):
            yield self.k8s.pod_start(node)
        yield from self._busy(node, "system", task.cores, OW_INVOKER)
        # GET every input from MinIO while occupying the pod.
        with self.cluster.accountant.track(node, "iowait", task.cores):
            for name in task.inputs:
                yield self.minio.get(name, node)
        yield from self._busy(node, "system", task.cores, OPENWHISK_CORE)
        yield from self._busy(node, "user", task.cores, task.compute_seconds)
        # PUT the output back to MinIO, still inside the pod.
        with self.cluster.accountant.track(node, "iowait", task.cores):
            yield self.minio.put(task.output, task.output_size, node)

    def _pull_image(self, function: str, node: str):
        """Pull the action's Docker image on first use (deduplicated)."""
        key = (function, node)
        pull = self._images.get(key)
        if pull is None:
            pull = self.cluster.network.transfer(
                self._registry, node, OW_IMAGE_BYTES
            )
            self._images[key] = pull
        return pull
