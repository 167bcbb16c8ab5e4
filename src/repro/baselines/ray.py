"""The Ray baselines: fig. 8b's two usage styles and fig. 10's Popen row
(paper section 5.1).

:class:`RayPlatform` is Ray with its plasma object store, in one of two
styles:

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

:class:`RayPopenMinIO` is fig. 10's "Ray + MinIO": user functions are
Linux executables launched via Popen, reading from and writing to MinIO;
binaries start on a single node and are loaded on first use per node.

Every row pays the driver's serial submission cost (a single Python
process pushing task specs) and the per-task overhead measured in
fig. 7a, then takes the shared :meth:`Platform._invoke_proc`.
"""

from __future__ import annotations

from typing import Set

from ..core.errors import SchedulingError
from ..dist.graph import JobGraph, TaskSpec
from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from ..sim.resources import Resource
from .base import JobRun, Platform
from .calibration import (
    MINIO_STREAM_BW,
    PY_DESER_BW,
    RAY_DRIVER_SUBMIT,
    RAY_LOCAL_GET,
    RAY_OWNER_RTT,
    RAY_PULL_BW,
    RAY_RESULT_STORE,
    RAY_TASK_OVERHEAD,
    VFORK_EXEC,
)
from .minio import MinIO

#: The plasma-store styles and their row names.
STYLES = {"blocking": "Ray (blocking)", "cps": "Ray (continuation-passing)"}
#: Size of the Popen-style executables, pulled once per node.
POPEN_BINARY_BYTES = 100 << 20


class _RayDriver(Platform):
    """What every Ray row shares: one driver process submits the tasks
    serially; each then takes :meth:`Platform._invoke_proc`, the path
    every platform but OpenWhisk shares."""

    def __init__(self, sim: Simulator, cluster: Cluster, **kwargs):
        super().__init__(sim, cluster, **kwargs)
        # The driver is one Python process: submissions serialize.
        self._driver = Resource(sim, 1, name="ray.driver")

    def _invoke_proc(self, task: TaskSpec, submitter: str, job: JobRun):
        # Driver-side serialization: pickle + submit, one task at a time.
        yield self._driver.acquire(1)
        yield self.sim.timeout(RAY_DRIVER_SUBMIT)
        self._driver.release(1)
        return (yield from super()._invoke_proc(task, submitter, job))


class RayPlatform(_RayDriver):
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
        self.name = STYLES[style]

    def _place(self, task: TaskSpec, job: JobRun) -> str:
        if self.style == "cps":
            # Locality-aware: Ray sees the same placement info as Fixpoint.
            return self._choose(task.inputs)
        # Blocking: arguments are opaque refs; no locality information.
        return self.rng.choice(self.cluster.machine_names())

    def _stage(self, task: TaskSpec, node: str):
        if self.style == "cps":
            # Resolving each nested ObjectRef costs an ownership round trip.
            for name in task.inputs:
                if self.cluster.object(name).locations != {node}:
                    yield self.sim.timeout(RAY_OWNER_RTT)
            # The raylet pulls arguments before a worker is assigned: no
            # core or memory is held during the fetch (Ray's own late
            # binding).
            yield self._fetch_all(task.inputs, node)

    def _deser_seconds(self, task: TaskSpec) -> float:
        """Python-side ingest of the input bytes (pickle / numpy copy)."""
        total = sum(self.cluster.object(n).size for n in task.inputs)
        return total / PY_DESER_BW

    def _run(self, task: TaskSpec, node: str):
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


class RayPopenMinIO(_RayDriver):
    """Fig. 10's "Ray + MinIO": Linux executables via Popen, data in MinIO.

    The data path is MinIO's HTTP GET/PUT - slower per stream than Ray's
    plasma pulls - so the cluster NICs are provisioned at MinIO's
    effective throughput.  Tasks place least loaded (the default
    :meth:`Platform._place`): executables read from MinIO.
    """

    name = "Ray + MinIO"
    data_bandwidth = MINIO_STREAM_BW

    def __init__(self, sim: Simulator, cluster: Cluster, **kwargs):
        super().__init__(sim, cluster, **kwargs)
        self.minio = MinIO(sim, cluster)
        # Executables start on one machine and are loaded on demand.
        self._binary_home = cluster.machine_names()[0]
        self._binaries_loaded: Set[str] = {self._binary_home}

    def load(self, graph: JobGraph) -> None:
        """All input data starts in MinIO."""
        self.minio.load(graph)

    def _stage(self, task: TaskSpec, node: str):
        if node not in self._binaries_loaded:
            # Load the executable on first use.
            self._binaries_loaded.add(node)
            yield self.cluster.network.transfer(
                self._binary_home, node, POPEN_BINARY_BYTES
            )

    def _run(self, task: TaskSpec, node: str):
        yield from self._busy(node, "system", task.cores, RAY_TASK_OVERHEAD)
        yield from self._busy(node, "system", task.cores, VFORK_EXEC)
        with self.cluster.accountant.track(node, "iowait", task.cores):
            for name in task.inputs:
                yield self.minio.get(name, node)
        yield from self._busy(node, "user", task.cores, task.compute_seconds)
        with self.cluster.accountant.track(node, "iowait", task.cores):
            yield self.minio.put(task.output, task.output_size, node)

    def _home(self, task: TaskSpec, node: str) -> str:
        return self.minio.node_for(task.output)
