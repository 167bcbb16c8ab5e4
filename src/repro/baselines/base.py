"""Common machinery for the simulated platforms.

A :class:`Platform` executes a :class:`~repro.dist.graph.JobGraph` on a
:class:`~repro.sim.cluster.Cluster`: it registers the graph's initial data
placements, runs every task as its dependencies complete (through
:meth:`Platform._invoke_proc`, whose hooks every platform but OpenWhisk
fills in, ``FixpointSim`` included), and reports a :class:`RunResult`
with the makespan and the ``/proc/stat``-style CPU breakdown.

The lifecycle is split so many jobs can share one platform instance:
:meth:`Platform.start` loads a graph and launches its task drivers
without touching the clock, returning a :class:`JobRun` whose ``done``
event an external driver (the classic :meth:`Platform.run`, or
:class:`repro.dist.admission.AdmissionController`) awaits.  Every
completed invocation appends an
:class:`~repro.fixpoint.billing.InvocationMeter` to its job, so
per-tenant bills come from executed work, not synthetic meters.

Platform models share helpers for fetching objects (from peer machines,
the client, or the external storage service) and for charging CPU states
while simulated work happens, and one placement rule:
:meth:`Platform._choose` decides through
:func:`repro.dist.costmodel.choose`, so the baselines differ from
Fixpoint and from each other only in what they price.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..core.errors import SchedulingError
from ..dist.costmodel import bid, choose
from ..dist.graph import CLIENT, EXTERNAL, JobGraph, TaskSpec
from ..fixpoint.billing import InvocationMeter
from ..sim.cluster import Cluster
from ..sim.engine import Event, Simulator, all_of
from ..sim.stats import CpuReport, report
from ..sim.storage_service import StorageService
from .calibration import TCP_STREAM_BW


@dataclass
class JobRun:
    """One graph in flight on a (possibly shared) platform.

    ``done`` succeeds when every task has finished; ``meters`` holds one
    :class:`InvocationMeter` per completed invocation, in completion
    order - the raw material for pay-for-results vs pay-for-effort
    billing of *executed* work.
    """

    index: int
    job_id: str
    graph: JobGraph
    submitter: str
    started_at: float
    task_finish: Dict[str, float] = field(default_factory=dict)
    meters: List[InvocationMeter] = field(default_factory=list)
    done: Optional[Event] = None


@dataclass
class RunResult:
    """Outcome of executing one JobGraph on one platform."""

    platform: str
    makespan: float
    cpu: CpuReport
    task_finish: Dict[str, float] = field(default_factory=dict)
    bytes_transferred: int = 0
    messages: int = 0
    invocations: int = 0

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "platform": self.platform,
            "time_s": round(self.makespan, 3),
        }
        row.update(self.cpu.as_row())
        return row


class Platform:
    """Base class: graph loading, dependency-driven execution, reporting."""

    name = "base"
    #: Effective object-path throughput per NIC for this platform; used by
    #: :meth:`build` when constructing a cluster (see calibration.py).
    data_bandwidth = TCP_STREAM_BW

    @classmethod
    def build(
        cls,
        nodes: int = 10,
        cores: int = 32,
        memory_bytes: int = 128 << 30,
        storage_latency: Optional[float] = None,
        seed: int = 0,
        **platform_kwargs,
    ) -> "Platform":
        """A fresh simulator + cluster + platform, NICs at this platform's
        effective data bandwidth.  One build per experiment row."""
        from ..sim.cluster import MachineSpec  # local import, no cycle

        sim = Simulator()
        specs = [
            MachineSpec(
                name=f"node{i}",
                cores=cores,
                memory_bytes=memory_bytes,
                nic_bandwidth=cls.data_bandwidth,
            )
            for i in range(nodes)
        ]
        cluster = Cluster(sim, specs)
        storage = None
        if storage_latency is not None:
            storage = StorageService(sim, response_latency=storage_latency)
        return cls(sim, cluster, storage=storage, seed=seed, **platform_kwargs)

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        storage: Optional[StorageService] = None,
        seed: int = 0,
    ):
        self.sim = sim
        self.cluster = cluster
        self.storage = storage
        self.rng = random.Random(seed)
        self.invocations = 0
        # The client is a network endpoint (uploads, driver round trips).
        if CLIENT not in cluster.network._nics:
            cluster.network.attach(CLIENT, TCP_STREAM_BW)
        self._task_done: Dict[str, Event] = {}
        self._job_seq = 0
        #: In-flight invocations per machine, the one load map every
        #: placement spreads by (:meth:`_choose`, ``FixpointSim``'s job
        #: schedulers).  Only :meth:`_invoke_proc` and ``OpenWhisk``
        #: write it: a pick counts up, and back down in ``finally``.
        self._outstanding: Dict[str, int] = dict.fromkeys(
            cluster.machine_names(), 0
        )
        # In-flight replica transfers, deduplicated per (object, node): a
        # platform's network worker never fetches the same object to the
        # same place twice concurrently.
        self._inflight_fetches: Dict[tuple, Event] = {}

    # ------------------------------------------------------------------
    # Graph loading

    def load(self, graph: JobGraph) -> None:
        """Register the graph's initial data placements."""
        graph.validate()
        for spec in graph.data.values():
            self.cluster.add_object(spec.name, spec.size, spec.location)

    # ------------------------------------------------------------------
    # Execution driver

    def invoke(self, task: TaskSpec, submitter: str, job: JobRun) -> Event:
        """Run one task of ``job``; the event's value is the machine that
        ran it."""
        self.invocations += 1
        return self.sim.process(
            self._invoke_proc(task, submitter, job),
            name=("{}:{}", self.name, task.name),
        )

    def _invoke_proc(self, task: TaskSpec, submitter: str, job: JobRun):
        """Every platform's invocation but OpenWhisk's: the :meth:`_place`
        pick counts in :attr:`_outstanding` through the message (if
        :meth:`_dispatched`), :meth:`_stage` (no core bound) and :meth:`_run`
        in :meth:`_reserved`; the output registers at :meth:`_home`."""
        node = self._place(task, job)
        self._outstanding[node] += 1
        try:
            if self._dispatched(task):
                yield self.cluster.network.message(submitter, node)
            yield from self._stage(task, node)
            yield from self._reserved(task, node, self._run(task, node))
        finally:
            self._outstanding[node] -= 1
        self.cluster.add_object(
            task.output, task.output_size, self._home(task, node)
        )
        return node

    def _place(self, task: TaskSpec, job: JobRun) -> str:
        """Where ``task`` of ``job`` runs: the least loaded by default."""
        return self._choose()

    def _dispatched(self, task: TaskSpec) -> bool:
        """Whether a control message starts ``task``: yes by default."""
        return True

    def _stage(self, task: TaskSpec, node: str):
        """Work before the reservation, holding no core: none by default."""
        yield from ()

    def _home(self, task: TaskSpec, node: str) -> str:
        """Where the output lives: the executing node by default."""
        return node

    def _meter(self, task: TaskSpec, began: float) -> InvocationMeter:
        """What the platform measured for one completed invocation.

        ``wall_seconds`` spans dependency-ready to function-return: the
        whole slice a provisioned pod would have occupied (delegation,
        fetches, queueing) - exactly what pay-for-effort charges for.
        ``user_cpu_seconds`` is the declared compute alone (core-seconds
        the function itself retired); platform overheads like
        oversubscription context switches are the provider's fault and
        stay out of the pay-for-results meter.
        """
        input_bytes = sum(
            self.cluster.object(name).size for name in task.inputs
        )
        return InvocationMeter(
            input_bytes=input_bytes,
            reserved_memory_bytes=task.memory_bytes,
            user_cpu_seconds=task.compute_seconds * task.cores,
            bytes_mapped=input_bytes + task.output_size,
            wall_seconds=self.sim.now - began,
        )

    def start(self, graph: JobGraph, submitter: str = CLIENT) -> JobRun:
        """Load ``graph`` and launch its task drivers *without* running
        the clock - the multi-job entry point.

        Several jobs may be in flight at once on one platform; their
        invocations interleave on the shared cluster and each completed
        one meters into its own :class:`JobRun`.  An external driver
        (:meth:`run`, or the admission layer) advances the simulator and
        awaits ``job.done``.
        """
        self.load(graph)
        job = JobRun(
            index=self._job_seq,
            job_id=f"job{self._job_seq}",
            graph=graph,
            submitter=submitter,
            started_at=self.sim.now,
        )
        self._job_seq += 1
        done_events: Dict[str, Event] = {}

        def task_driver(task: TaskSpec):
            deps = graph.dependencies(task)
            if deps:
                yield all_of(self.sim, [done_events[d] for d in deps])
            began = self.sim.now
            yield self.invoke(task, submitter, job)
            job.task_finish[task.name] = self.sim.now
            job.meters.append(self._meter(task, began))

        for task in graph.topological_order():
            done_events[task.name] = self.sim.process(
                task_driver(task), name=("driver:{}:{}", job.job_id, task.name)
            )
        job.done = all_of(self.sim, list(done_events.values()))
        return job

    def run(self, graph: JobGraph, submitter: str = CLIENT) -> RunResult:
        """Execute the whole graph; returns makespan and CPU report."""
        job = self.start(graph, submitter)
        self.sim.run_until(job.done)
        makespan = self.sim.now - job.started_at
        cpu = report(
            self.cluster.accountant,
            total_cores=self.cluster.total_cores,
            window_seconds=max(makespan, 1e-12),
        )
        return RunResult(
            platform=self.name,
            makespan=makespan,
            cpu=cpu,
            task_finish=dict(job.task_finish),
            bytes_transferred=self.cluster.network.bytes_transferred,
            messages=self.cluster.network.messages,
            invocations=self.invocations,
        )

    # ------------------------------------------------------------------
    # Shared helpers (processes)

    def _reserved(self, task: TaskSpec, node: str, body):
        """Run the process ``body`` while holding ``task``'s cores and
        memory on ``node``.

        The one place a platform binds resources.  What ``body`` waits
        for inside the reservation is a claimed core starving (wrap the
        wait in ``accountant.track(node, "iowait", task.cores)``); what
        the caller waits for *before* it leaves the cores idle, i.e.
        schedulable - fig. 8's distinction.
        """
        machine = self.cluster.machine(node)
        yield machine.cores.acquire(task.cores)
        yield machine.memory.acquire(task.memory_bytes)
        try:
            yield from body
        finally:
            machine.memory.release(task.memory_bytes)
            machine.cores.release(task.cores)

    def _busy(self, machine: str, state: str, cores: int, seconds: float):
        """Charge ``cores`` in ``state`` on ``machine`` for ``seconds``."""
        with self.cluster.accountant.track(machine, state, cores):
            yield self.sim.timeout(seconds)

    def _fetch(self, obj_name: str, dst: str) -> Event:
        """Make ``obj_name`` resident on ``dst``; returns completion event.

        Concurrent fetches of the same object to the same node share one
        transfer (Fixpoint bundles a dependency once per node; fetching
        it per-invocation is exactly the baseline behaviour modeled
        elsewhere, e.g. MinIO GETs).
        """
        info = self.cluster.object(obj_name)
        if dst in info.locations:
            return self.sim.timeout(0.0, value=0)
        key = (obj_name, dst)
        inflight = self._inflight_fetches.get(key)
        if inflight is not None and not inflight.triggered:
            return inflight
        event = self.sim.process(
            self._fetch_proc(obj_name, dst), name=("fetch {}->{}", obj_name, dst)
        )
        self._inflight_fetches[key] = event
        return event

    def _fetch_proc(self, obj_name: str, dst: str):
        info = self.cluster.object(obj_name)
        if dst in info.locations:
            return 0
        if info.locations == {EXTERNAL}:
            if self.storage is None:
                raise SchedulingError(
                    f"{self.name}: object {obj_name!r} is external but no "
                    "storage service is configured"
                )
            yield self.storage.get(info.size)
            info.locations.add(dst)
            return info.size
        yield self.cluster.transfer_object(obj_name, dst)
        return info.size

    def _fetch_all(self, names: Iterable[str], dst: str) -> Event:
        return all_of(self.sim, [self._fetch(n, dst) for n in names])

    # ------------------------------------------------------------------
    # Placement

    def _choose(self, inputs: Iterable[str] = ()) -> str:
        """The machine to run something needing ``inputs`` on.

        The one policy, :func:`repro.dist.costmodel.choose`: fewest
        bytes missing, then least loaded, then name.  It is priced from
        the registry's true replica locations, not from a belief, by
        :func:`~repro.dist.costmodel.bid`, so it costs O(inputs +
        replicas + contenders).  With no inputs every machine ties on
        bytes: least-loaded placement, ties broken by name.
        """
        lookup = self.cluster.object
        contenders, move_bytes = bid(
            ((name, lookup(name).size) for name in inputs),
            lambda name: lookup(name).locations,
            self._outstanding,
        )
        return choose(
            contenders, move_bytes, self._outstanding.__getitem__
        ).candidate
