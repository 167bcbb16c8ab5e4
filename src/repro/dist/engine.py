"""The simulated distributed Fixpoint platform.

:class:`FixpointSim` executes :class:`~repro.dist.graph.JobGraph`s the
way the paper's system does:

* **dataflow-aware placement** - a :class:`DataflowScheduler` over a
  passive :class:`ObjectView` puts each invocation at the holder of its
  largest dependency (ablatable with ``locality=False``);
* **externalized network I/O** - dedicated network workers fetch inputs
  *before* any core or memory is bound, so fetches overlap freely and no
  claimed core ever sits in iowait (the cluster shows *idle*, i.e.
  schedulable, cores instead - fig. 8's central distinction);
* **late binding** - a core + the task's memory are claimed only once
  every input is resident, then released the moment the function returns.

The ``internal_io=True`` ablation inverts both I/O properties: resources
are bound at admission (like a provisioned serverless pod) and the fetch
happens while holding them, charged as iowait.  ``oversubscribe_cores``
reproduces the paper's internal-I/O configurations (fig. 8a: 200
schedulable cores on a 32-core box), with the measured ~7.5% compute
penalty once schedulable exceeds physical cores.

**Many jobs, one platform** - :meth:`FixpointSim.start` (inherited
lifecycle, specialised here) lets several ``(tenant, JobGraph)``
submissions execute concurrently on one shared cluster, the regime the
admission layer (:mod:`repro.dist.admission`) packs for.  Each job places
through its *own* :class:`DataflowScheduler` over its own
:class:`ObjectView` snapshot - a late-arriving job believes the cluster
as it looked at its admission, and staleness costs only redundant
transfers, never correctness - and the shared ``Platform._invoke_proc``
counts the load every job scheduler prices, so co-resident jobs spread.

**Gossiped beliefs** - pass a :class:`~repro.dist.gossip.GossipConfig`
and jobs stop snapshotting the registry at admission: they are admitted
from a platform-global view that gets no coordinator-eye snapshot.
Instead every machine keeps its own
:class:`ObjectView` (a node always knows its disk), the global view
joins them in a :class:`~repro.dist.gossip.GossipCoordinator`, and
beliefs reach it - and the jobs admitted from it - only as gossip
rounds carry them:
``startup_rounds`` when a graph's placements register,
``rounds_per_output`` each time an output materializes.  A job's own
scheduler still observes the outputs it placed (the result handle came
back to it), but everything else ages realistically - the staleness the
paper's design tolerates becomes a measurable knob instead of an
abstraction.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..baselines.base import JobRun, Platform
from ..core.errors import SchedulingError
from ..baselines.calibration import (
    FIXPOINT_INVOKE,
    INTERNAL_IO_RESUME,
    OVERSUBSCRIPTION_PENALTY,
)
from ..obs import Obs
from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from .gossip import GossipConfig, GossipCoordinator
from .graph import CLIENT, JobGraph, TaskSpec
from .membership import MembershipView
from .objectview import ObjectView
from .scheduler import DataflowScheduler


class FixpointSim(Platform):
    """Distributed Fixpoint on the simulated cluster."""

    name = "Fixpoint"

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        locality: bool = True,
        internal_io: bool = False,
        oversubscribe_cores: Optional[int] = None,
        use_hints: bool = False,
        seed: int = 0,
        gossip: Optional[GossipConfig] = None,
        **kwargs,
    ):
        super().__init__(sim, cluster, seed=seed, **kwargs)
        #: Platform-wide observability on the *simulated* clock: every
        #: duration a metric or span records is ``sim.now`` time, so the
        #: whole export is bit-identical under seeded replay (asserted
        #: by the obs tests) - determinism is a property of the
        #: substrate, and measurement must not break it.
        self.obs = Obs(name="fixpoint-sim", clock=lambda: sim.now)
        #: Placements per machine and the believed bytes they must move,
        #: over every job this platform places (:meth:`_place`).
        self._placed: Dict[str, int] = {}
        self._moved = 0
        self.obs.registry.counter(
            "scheduler_placements_total", "Placement decisions, by machine"
        ).read(self._placed.copy, "machine")
        self.obs.registry.counter(
            "scheduler_predicted_move_bytes_total",
            "Believed bytes the chosen placements must move",
        ).read(lambda: {(): self._moved} if self._moved else {})
        self.locality = locality
        self.internal_io = internal_io
        #: Output-size hints: the one decider of whether a placement
        #: prices its output's journey (:meth:`_consumer_hint`).
        self.use_hints = use_hints
        if oversubscribe_cores is not None:
            for machine in cluster.machines.values():
                machine.resize_cores(oversubscribe_cores)
        self._seed = seed
        #: job_id -> that job's scheduler (:meth:`start`), which
        #: :meth:`_place` asks; each prices the shared ``_outstanding``.
        self._job_schedulers: Dict[str, DataflowScheduler] = {}
        #: Gossiped-belief mode: per-machine views plus a platform-global
        #: view anti-entropy through one seeded coordinator; the global
        #: view learns only what gossip has carried to it, and jobs are
        #: admitted from it.  Without gossip each job snapshots the
        #: registry itself, so there is no global view.
        self.gossip_config = gossip
        self.view: Optional[ObjectView] = None
        #: Owns every machine's view (``gossip.view(name)``).
        self.gossip: Optional[GossipCoordinator] = None
        #: Placement happens platform-side, so with gossip membership on
        #: every job scheduler consults the *global view's* failure
        #: detector: a machine is excluded once the tombstone has
        #: gossiped its way to that view, not the instant it dies - the
        #: detection lag the churn bench measures.
        self.membership: Optional[MembershipView] = None
        if gossip is not None:
            self.view = ObjectView("fixpoint-scheduler", clock=self.obs.clock)
            machine_views = [
                ObjectView(name, clock=self.obs.clock)
                for name in cluster.machines
            ]
            self.gossip = GossipCoordinator(
                machine_views + [self.view],
                seed=gossip.seed,
                obs=self.obs,
                membership=gossip.membership,
                suspect_after=gossip.suspect_after,
                confirm_after=gossip.confirm_after,
            )
            if gossip.membership:
                self.membership = self.gossip.membership_view(self.view.node)
        self.name = self._ablation_name()

    def _ablation_name(self) -> str:
        parts = []
        if not self.locality:
            parts.append("no locality")
        if self.internal_io:
            parts.append("internal I/O")
        if not parts:
            return "Fixpoint"
        return f"Fixpoint ({' + '.join(parts)})"

    # ------------------------------------------------------------------

    def load(self, graph: JobGraph) -> None:
        super().load(graph)
        if self.gossip is not None:
            # No free registry snapshot: each machine learns its own
            # disk, and the global view hears whatever the startup
            # gossip budget carries to it.
            for name in self.cluster.machines:
                self.gossip.view(name).refresh_local(self.cluster)
            self.gossip.run_rounds(self.gossip_config.startup_rounds)

    def start(self, graph: JobGraph, submitter: str = CLIENT) -> JobRun:
        """Launch one of possibly many concurrent jobs on this platform.

        The job gets its own scheduler: a fresh :class:`ObjectView`
        snapshot of the cluster as of admission (later jobs' outputs stay
        unknown to it - tolerated staleness), a per-job rng stream for
        the ``locality=False`` ablation (derived from the platform seed
        and the job index, so concurrent no-locality jobs don't convoy
        onto identical "random" nodes), and the *shared* outstanding-load
        map, which is how one job's burst is visible to another's
        placement.
        """
        job = super().start(graph, submitter)
        view = ObjectView(f"fixpoint-{job.job_id}", clock=self.obs.clock)
        if self.gossip is None:
            view.sync_from_cluster(self.cluster)
        else:
            # The job believes what the (gossip-aged) global view
            # believes at admission - one delta, not a registry snapshot.
            view.merge_delta(self.view.delta_since(view.digest()))
        self._job_schedulers[job.job_id] = DataflowScheduler(
            self.cluster,
            view,
            locality=self.locality,
            seed=self._seed + job.index,
            outstanding=self._outstanding,
            obs=self.obs,
            membership=self.membership,
        )
        # The per-job view dies with the job (no invocation of a
        # finished job can run again); without this, admission-heavy
        # runs would leak one full-cluster snapshot per finished job.
        job.done.add_callback(
            lambda _event, jid=job.job_id: self._job_schedulers.pop(jid, None)
        )
        return job

    def fail_machine(self, name: str) -> None:
        """Ground-truth crash of one machine (gossip+membership mode).

        The machine's view stops gossiping and its heartbeat stops;
        nothing informs the schedulers directly.  Survivors' failure
        detectors must confirm the death epidemically, after which the
        scheduler's detector excludes the machine from every placement
        and its believed holdings are evicted - the bounded detection
        lag ``bench_churn.py`` asserts on.
        """
        self._churnable("fail_machine", name)
        self.gossip.kill(name)

    def restart_machine(self, name: str) -> None:
        """The failed machine reboots (gossip+membership mode).

        Kill -> restart -> readmission: the coordinator mints a fresh
        view one incarnation up, the machine relearns its own disk
        (stamped under the new epoch, so survivors' retained version
        caps do not swallow the assertions), and ordinary gossip rounds
        carry the rejoin - survivors readmit it, the scheduler's
        detector stops excluding it, and placement uses it again.
        Nothing informs the schedulers directly, mirroring
        :meth:`fail_machine`.
        """
        self._churnable("restart_machine", name)
        fresh = self.gossip.restart(name, clock=self.obs.clock)
        fresh.refresh_local(self.cluster)

    def _churnable(self, action: str, name: str) -> None:
        """The guard :meth:`fail_machine` and :meth:`restart_machine`
        share: churn needs gossip with membership, and a known machine."""
        if self.gossip is None or not self.gossip.membership_enabled:
            raise SchedulingError(
                f"{action} requires gossip with membership enabled "
                "(GossipConfig(membership=True))"
            )
        if name not in self.cluster.machines:
            raise SchedulingError(f"unknown machine {name!r}")

    def _compute_penalty(self, machine: str) -> float:
        """Context-switch/cache pressure once schedulable > physical cores
        (the paper measures 7.5% on fig. 8b's internal-I/O row)."""
        host = self.cluster.machine(machine)
        if host.cores.capacity > host.spec.cores:
            return 1.0 + OVERSUBSCRIPTION_PENALTY
        return 1.0

    def _consumer_hint(
        self, task: TaskSpec, graph: JobGraph, scheduler: DataflowScheduler
    ) -> Optional[str]:
        """Where this task's consumer is expected to run, if known.

        The one place a hint is decided: without ``use_hints`` there is
        none, so the scheduler prices no consumer.  With it, the unique
        consumer's largest co-input with a believed machine location
        anchors it (data gravity), and the scheduler's cost model weighs
        moving the output there against moving the inputs here.
        """
        if not self.use_hints:
            return None
        consumers = [
            t for t in graph.tasks.values() if task.output in t.inputs
        ]
        if len(consumers) != 1:
            return None
        anchor: Optional[str] = None
        anchor_size = -1
        for name in consumers[0].inputs:
            if name == task.output or name not in self.cluster.objects:
                continue
            locations = [
                loc
                for loc in scheduler.view.where(name)
                if loc in self.cluster.machines
            ]
            size = self.cluster.object(name).size
            if locations and size > anchor_size:
                anchor_size = size
                anchor = min(locations)
        return anchor

    # ------------------------------------------------------------------

    def _place(self, task: TaskSpec, job: JobRun) -> str:
        scheduler = self._job_schedulers[job.job_id]
        hint = self._consumer_hint(task, job.graph, scheduler)
        placement = scheduler.place(task, consumer_location=hint)
        machine = placement.machine
        self._placed[machine] = self._placed.get(machine, 0) + 1
        self._moved += placement.predicted_move_bytes
        return machine

    def _stage(self, task: TaskSpec, node: str):
        if not self.internal_io:
            # Externalized I/O: network workers make every input resident
            # while cores stay free (idle, not iowait), and late binding
            # claims resources only afterwards.
            yield self._fetch_all(task.inputs, node)

    def _invoke_proc(self, task: TaskSpec, submitter: str, job: JobRun):
        # Delegation is one self-describing message (``_dispatched``): the
        # handle carries the dependencies, with no scheduler round trips.
        node = yield from super()._invoke_proc(task, submitter, job)
        # The output is at the execution site; the job's scheduler learns
        # it (consumers will chase the data).
        self._job_schedulers[job.job_id].note_output(
            task.output, node, task.output_size
        )
        if self.gossip is not None:
            # Gossiped beliefs: the executing machine knows its own new
            # replica; everyone else - the global view included - only
            # hears about it as the round budget spreads it, and the
            # global view is what later jobs believe at admission.
            self.gossip.view(node).learn(task.output, node, task.output_size)
            self.gossip.run_rounds(self.gossip_config.rounds_per_output)
        return node

    def _run(self, task: TaskSpec, node: str):
        """What an invocation does while it holds its cores and memory."""
        overhead = FIXPOINT_INVOKE
        if self.internal_io:
            # Ablation: the fetch happens inside the reservation - the
            # claimed core starves (iowait) - and the blocked worker then
            # resumes through the run queue, the per-invocation price of
            # reading while provisioned.
            with self.cluster.accountant.track(node, "iowait", task.cores):
                yield self._fetch_all(task.inputs, node)
            overhead += INTERNAL_IO_RESUME
        yield from self._busy(node, "system", task.cores, overhead)
        yield from self._busy(
            node,
            "user",
            task.cores,
            task.compute_seconds * self._compute_penalty(node),
        )
