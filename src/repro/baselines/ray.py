"""The Ray baseline, in the paper's three usage styles (section 5.1).

* **blocking** - user functions call ``ray.get`` *inside* the task: the
  worker claims its core, then pulls each dependency while occupying it
  (iowait).  Because arguments are bare ObjectRefs resolved inside the
  function, the scheduler has no locality information at placement time.
* **cps** (continuation-passing) - every dependency boundary becomes a new
  task whose arguments Ray pulls *before* assigning a worker; placement is
  locality-aware.  The paper gives Ray the same location information as
  Fixpoint, so it places by Fixpoint's rule, :meth:`Platform._choose`
  priced over the task's inputs.  The cost is one full task overhead per
  continuation plus an ownership round trip to resolve each nested
  ObjectRef.
* **popen** - user functions are Linux executables launched via Popen,
  reading from and writing to MinIO; binaries start on a single node and
  are loaded on first use per node (fig. 10's "Ray + MinIO").

Every style pays the driver's serial submission cost (a single Python
process pushing task specs) and the per-task overhead measured in
fig. 7a.
"""

from __future__ import annotations

from typing import Optional, Set

from ..core.errors import SchedulingError
from ..dist.graph import JobGraph, TaskSpec
from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from ..sim.resources import Resource
from .base import JobRun, Platform
from .calibration import (
    PY_DESER_BW,
    RAY_DRIVER_SUBMIT,
    RAY_LOCAL_GET,
    RAY_OWNER_RTT,
    RAY_PULL_BW,
    RAY_RESULT_STORE,
    RAY_TASK_OVERHEAD,
    VFORK_EXEC,
)
from .calibration import MINIO_STREAM_BW
from .minio import MinIO

STYLES = ("blocking", "cps", "popen")
#: Size of the Popen-style executables, pulled once per node.
POPEN_BINARY_BYTES = 100 << 20


class RayPlatform(Platform):
    """Ray with a distributed plasma object store."""

    data_bandwidth = RAY_PULL_BW

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        style: str = "blocking",
        **kwargs,
    ):
        super().__init__(sim, cluster, **kwargs)
        if style not in STYLES:
            raise SchedulingError(f"unknown Ray style {style!r}")
        self.style = style
        self.name = {
            "blocking": "Ray (blocking)",
            "cps": "Ray (continuation-passing)",
            "popen": "Ray + MinIO",
        }[style]
        # The driver is one Python process: submissions serialize.
        self._driver = Resource(sim, 1, name="ray.driver")
        self.minio: Optional[MinIO] = (
            MinIO(sim, cluster) if style == "popen" else None
        )
        # Popen style: executables start on one machine, loaded on demand.
        self._binary_home = cluster.machine_names()[0]
        self._binaries_loaded: Set[str] = {self._binary_home}

    # ------------------------------------------------------------------

    def load(self, graph: JobGraph) -> None:
        if self.style == "popen":
            graph.validate()
            assert self.minio is not None
            for spec in graph.data.values():
                node = self.minio.preload(spec.name, spec.size)
                self.cluster.add_object(spec.name, spec.size, node)
        else:
            super().load(graph)

    def _place(self, task: TaskSpec) -> str:
        if self.style == "cps":
            # Locality-aware: Ray sees the same placement info as Fixpoint.
            return self._choose(task.inputs)
        if self.style == "popen":
            # Popen executables read from MinIO; schedule least-loaded.
            return self._choose()
        # Blocking: arguments are opaque refs; no locality information.
        return self.rng.choice(self.cluster.machine_names())

    def _invoke_proc(self, task: TaskSpec, submitter: str, job: JobRun):
        # Driver-side serialization: pickle + submit, one task at a time.
        yield self._driver.acquire(1)
        yield self.sim.timeout(RAY_DRIVER_SUBMIT)
        self._driver.release(1)
        node = self._place(task)
        self._outstanding[node] += 1
        try:
            yield self.cluster.network.message(submitter, node)
            if self.style == "cps":
                yield from self._resolve_args(task, node)
            elif self.style == "popen" and node not in self._binaries_loaded:
                # Load the executable on first use.
                self._binaries_loaded.add(node)
                yield self.cluster.network.transfer(
                    self._binary_home, node, POPEN_BINARY_BYTES
                )
            run = self._run_popen if self.style == "popen" else self._run_worker
            yield from self._reserved(task, node, run(task, node))
        finally:
            self._outstanding[node] -= 1
        holder = node if self.minio is None else self.minio.node_for(task.output)
        self.cluster.add_object(task.output, task.output_size, holder)
        return node

    # ------------------------------------------------------------------

    def _deser_seconds(self, task: TaskSpec) -> float:
        """Python-side ingest of the input bytes (pickle / numpy copy)."""
        total = sum(self.cluster.object(n).size for n in task.inputs)
        return total / PY_DESER_BW

    def _resolve_args(self, task: TaskSpec, node: str):
        # Resolving each nested ObjectRef costs an ownership round trip.
        for name in task.inputs:
            if self.cluster.object(name).locations != {node}:
                yield self.sim.timeout(RAY_OWNER_RTT)
        # The raylet pulls arguments before a worker is assigned: no core
        # or memory is held during the fetch (Ray's own late binding).
        yield self._fetch_all(task.inputs, node)

    def _run_worker(self, task: TaskSpec, node: str):
        yield from self._busy(node, "system", task.cores, RAY_TASK_OVERHEAD)
        if self.style == "blocking":
            # ray.get inside the function: the core starves while plasma
            # pulls each object.
            with self.cluster.accountant.track(node, "iowait", task.cores):
                for name in task.inputs:
                    yield self._fetch(name, node)
                    yield self.sim.timeout(RAY_LOCAL_GET)
        yield from self._busy(node, "user", task.cores, self._deser_seconds(task))
        yield from self._busy(node, "user", task.cores, task.compute_seconds)
        yield from self._busy(node, "system", task.cores, RAY_RESULT_STORE)

    def _run_popen(self, task: TaskSpec, node: str):
        yield from self._busy(node, "system", task.cores, RAY_TASK_OVERHEAD)
        yield from self._busy(node, "system", task.cores, VFORK_EXEC)
        with self.cluster.accountant.track(node, "iowait", task.cores):
            for name in task.inputs:
                yield self.minio.get(name, node)
        yield from self._busy(node, "user", task.cores, task.compute_seconds)
        with self.cluster.accountant.track(node, "iowait", task.cores):
            yield self.minio.put(task.output, task.output_size, node)


class RayPopenMinIO(RayPlatform):
    """Fig. 10's "Ray + MinIO": Linux executables via Popen, data in MinIO.

    The data path is MinIO's HTTP GET/PUT - slower per stream than Ray's
    plasma pulls - so the cluster NICs are provisioned at MinIO's
    effective throughput.
    """

    name = "Ray + MinIO"
    data_bandwidth = MINIO_STREAM_BW

    def __init__(self, sim: Simulator, cluster: Cluster, **kwargs):
        kwargs.setdefault("style", "popen")
        super().__init__(sim, cluster, **kwargs)
