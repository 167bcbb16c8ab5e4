"""Multi-job admission: one platform, many tenants, real bills.

This module closes the gap between the two halves of the paper's
section 6: :class:`~repro.dist.engine.FixpointSim` executes declared
dataflows, and :mod:`repro.dist.multitenancy` proves what declared
footprints are worth - but until an admission layer connects them, no
engine ever packs real jobs and no bill ever meters real work.  Each
class here reproduces a specific section-6 claim:

* :class:`AdmissionController` - *"a declared dataflow lets the platform
  admit by footprint, not by peak reservation"*: it derives each
  submitted :class:`~repro.dist.graph.JobGraph`'s piecewise memory
  profile (:func:`~repro.dist.multitenancy.profile_from_graph`, the
  critical-path schedule), and admits a job only when the *pointwise*
  projected footprint sum stays within capacity
  (:func:`~repro.dist.multitenancy.fits_online` - the online single-bin
  form of ``footprint_aware_packing``).

* :class:`TenantQueue` - *"dense multitenancy must not mean starvation"*:
  jobs that do not fit yet wait in per-tenant FIFO queues, and a
  deficit-round-robin pass (equal byte-second quanta per tenant per
  round) picks which queued job starts when capacity frees, so one
  tenant's burst cannot push another's jobs back beyond its fair share.

* :class:`JobTicket` / :class:`TenantBill` - *"pay for results, not for
  effort"*: every completed invocation of an admitted job emits a real
  :class:`~repro.fixpoint.billing.InvocationMeter` (metered by the
  engine as the work executes), and per-tenant bills are
  :func:`~repro.fixpoint.billing.job_bill` over those executed meters -
  so the effort-vs-results divergence under bad placement is measured
  on real runs, never synthesized.

The controller never overcommits: every admission decision is provable
after the fact by :func:`~repro.dist.multitenancy.validate_timeline`
over :attr:`AdmissionController.timeline`.  The two designs it beats -
peak reservation and one global FIFO queue - are subclasses in
``benchmarks/bench_admission.py``, next to the shapes that measure them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from ..core.errors import SchedulingError
from ..fixpoint.billing import job_bill
from ..obs import NULL_OBS
from ..sim.engine import Event, Signal
from .graph import JobGraph, TaskSpec
from .multitenancy import (
    SPIKE_SECONDS,
    SUSTAIN_SECONDS,
    AppProfile,
    fits_online,
    profile_from_graph,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import JobRun, Platform


class AdmissionError(SchedulingError):
    """A submission the admission layer can never or did never place."""


@dataclass(eq=False)
class JobTicket:
    """What a tenant holds for one submission, from queue to bill.

    Identity equality (``eq=False``): tickets are queue entries looked
    up by ``deque.remove``, and field-by-field comparison over graphs
    and profiles would be both slow and accidentally semantic.
    """

    tenant: str
    name: str
    graph: JobGraph
    profile: AppProfile
    #: Byte-seconds of declared footprint - the DRR service cost.
    cost: float
    admitted: Event
    submitted_at: Optional[float] = None
    admitted_at: Optional[float] = None
    finished_at: Optional[float] = None
    job: Optional["JobRun"] = None
    failure: Optional[BaseException] = None

    @property
    def meters(self):
        """The executed invocations' meters (empty until admitted)."""
        return self.job.meters if self.job is not None else []

    @property
    def queue_delay(self) -> Optional[float]:
        if self.submitted_at is None or self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at


@dataclass
class TenantQueue:
    """One tenant's FIFO of not-yet-admitted jobs plus its DRR state."""

    tenant: str
    pending: Deque[JobTicket] = field(default_factory=deque)
    #: Unspent service credit in byte-seconds; grows by one quantum per
    #: DRR round while the tenant has pending work, resets when idle
    #: (no banking credit while the queue is empty - standard DRR).
    deficit: float = 0.0


@dataclass
class TenantBill:
    """Per-tenant totals over executed invocations, both billing models."""

    tenant: str
    jobs: int
    invocations: int
    results_total: float
    effort_total: float


@dataclass
class AdmissionReport:
    """What one admission run did: order, density, and real bills."""

    admit_order: List[str]
    max_concurrent: int
    makespan: float
    bills: Dict[str, TenantBill]
    #: ``(profile, admitted_at)`` per admitted job - feed to
    #: :func:`repro.dist.multitenancy.validate_timeline` to prove the
    #: whole history never exceeded capacity at any instant.
    timeline: List[Tuple[AppProfile, float]]


class AdmissionController:
    """Admit many ``(tenant, JobGraph)`` submissions onto one platform.

    Built on any :class:`~repro.baselines.base.Platform` that supports
    the multi-job :meth:`~repro.baselines.base.Platform.start` lifecycle
    (in practice :class:`~repro.dist.engine.FixpointSim`, whose per-job
    scheduler views make concurrent jobs first-class).

    ``capacity_bytes`` defaults to the cluster's total RAM; pass a
    smaller budget to study admission under pressure without shrinking
    the simulated machines.  Everything is deterministic: same
    submissions, same seed, same clock - same admit order and same bills.
    """

    def __init__(
        self,
        platform: "Platform",
        capacity_bytes: Optional[int] = None,
    ):
        self.platform = platform
        self.sim = platform.sim
        self.capacity_bytes = (
            platform.cluster.total_memory if capacity_bytes is None else capacity_bytes
        )
        if self.capacity_bytes <= 0:
            raise AdmissionError(
                f"capacity must be positive: {self.capacity_bytes}"
            )
        self.queues: Dict[str, TenantQueue] = {}
        self.tickets: List[JobTicket] = []
        self.admit_order: List[str] = []
        self.timeline: List[Tuple[AppProfile, float]] = []
        self.max_concurrent = 0
        #: Every queued ticket in arrival order, across tenants.
        self._fifo: Deque[JobTicket] = deque()
        #: DRR service order: rotated on every admission so the tenant
        #: just served goes to the back - without this, the fixed visit
        #: order would hand every freed slot to the first-submitting
        #: tenant (exactly the starvation fair share must prevent).
        self._rr: Deque[str] = deque()
        self._active: List[JobTicket] = []
        self._seq = 0
        #: Instant of the earliest pending pump alarm (None when none).
        self._alarm_at: Optional[float] = None
        #: "The world changed" - a submission arrived or a job finished.
        self._stirred = Signal(self.sim, "admission")
        #: The platform's obs when it has one (FixpointSim's is
        #: sim-clocked, so queue delays are simulated seconds and stay
        #: replay-deterministic); NULL_OBS otherwise.
        self.obs = getattr(platform, "obs", None) or NULL_OBS
        registry = self.obs.registry
        self._m_submitted = registry.counter(
            "admission_submitted_total", "Submissions accepted into a queue"
        )
        self._m_admitted = registry.counter(
            "admission_admitted_total", "Jobs launched, by tenant"
        )
        self._m_rejected = registry.counter(
            "admission_rejected_total", "Submissions rejected, by reason"
        )
        self._m_wait = registry.histogram(
            "admission_wait_seconds", "Queue delay from submit to launch"
        )
        registry.gauge(
            "admission_queue_depth", "Jobs waiting for admission"
        ).set_function(lambda: float(len(self._fifo)))
        registry.gauge(
            "admission_active_jobs", "Jobs admitted and not yet finished"
        ).set_function(lambda: float(len(self._active)))
        self.sim.process(self._pump(), name="admission-pump")

    # ------------------------------------------------------------------
    # Submission

    def submit(
        self,
        tenant: str,
        graph: JobGraph,
        at: Optional[float] = None,
    ) -> JobTicket:
        """Queue one job for ``tenant`` as ``<tenant>-<seq>``; returns its
        ticket.

        ``at`` schedules the submission at a future simulated instant
        (the staggered-arrival experiments); by default the job is
        submitted now.  A job whose *derived peak* exceeds the admission
        capacity can never run and is rejected immediately; one whose
        peak merely exceeds what is currently free is queued - the
        controller never violates the pointwise capacity proof to squeeze
        it in.
        """
        # Names namespace the shared object registry; ``seq`` counts
        # accepted submissions, so no two are ever named alike.
        name = f"{tenant}-{self._seq}"
        graph.validate()
        namespaced = graph.prefixed(name)
        profile = profile_from_graph(namespaced, name=name)
        if profile.peak_bytes > self.capacity_bytes:
            self._m_rejected.inc(tenant=tenant, reason="peak_over_capacity")
            raise AdmissionError(
                f"job {name!r}: derived peak {profile.peak_bytes} exceeds "
                f"admission capacity {self.capacity_bytes}"
            )
        # Admission capacity is an aggregate; execution is not.  A task
        # wider than every machine's RAM would pass the aggregate check
        # and then crash the simulation at memory.acquire - reject it
        # here, where the tenant can see why.
        widest = max(
            (task.memory_bytes for task in namespaced.tasks.values()),
            default=0,
        )
        machine_cap = max(
            machine.memory.capacity
            for machine in self.platform.cluster.machines.values()
        )
        if widest > machine_cap:
            self._m_rejected.inc(tenant=tenant, reason="task_over_machine")
            raise AdmissionError(
                f"job {name!r}: a task needs {widest} bytes but the "
                f"largest machine has {machine_cap}"
            )
        self._seq += 1
        ticket = JobTicket(
            tenant=tenant,
            name=name,
            graph=namespaced,
            profile=profile,
            cost=profile.mem_time_integral(),
            admitted=self.sim.event(f"admitted:{name}"),
        )
        self.tickets.append(ticket)
        self._m_submitted.inc(tenant=tenant)
        if at is None or at <= self.sim.now:
            self._enqueue(ticket)
        else:
            self.sim.process(
                self._delayed_submission(ticket, at - self.sim.now),
                name=f"submit:{name}",
            )
        return ticket

    def _delayed_submission(self, ticket: JobTicket, delay: float):
        yield self.sim.timeout(delay)
        self._enqueue(ticket)

    def _enqueue(self, ticket: JobTicket) -> None:
        ticket.submitted_at = self.sim.now
        if ticket.tenant not in self.queues:
            self._rr.append(ticket.tenant)
        queue = self.queues.setdefault(ticket.tenant, TenantQueue(ticket.tenant))
        queue.pending.append(ticket)
        self._fifo.append(ticket)
        self._stirred.fire()

    # ------------------------------------------------------------------
    # Admission

    def _admits(self, ticket: JobTicket) -> bool:
        """Can ``ticket`` start *now* without ever exceeding capacity?"""
        return fits_online(
            [(t.profile, t.admitted_at) for t in self._active],
            ticket.profile,
            self.sim.now,
            self.capacity_bytes,
        )

    def _launch(self, ticket: JobTicket) -> None:
        self.queues[ticket.tenant].pending.remove(ticket)
        self._fifo.remove(ticket)
        ticket.admitted_at = self.sim.now
        ticket.job = self.platform.start(ticket.graph)
        self._active.append(ticket)
        # Served: this tenant goes to the back of the service order.
        self._rr.remove(ticket.tenant)
        self._rr.append(ticket.tenant)
        self.admit_order.append(ticket.name)
        self._m_admitted.inc(tenant=ticket.tenant)
        self._m_wait.observe(ticket.admitted_at - ticket.submitted_at)
        self.timeline.append((ticket.profile, ticket.admitted_at))
        self.max_concurrent = max(self.max_concurrent, len(self._active))
        ticket.admitted.succeed(ticket.admitted_at)
        ticket.job.done.add_callback(
            lambda event, t=ticket: self._on_finish(t, event)
        )

    def _on_finish(self, ticket: JobTicket, event: Event) -> None:
        if not event.ok:
            ticket.failure = event.value
        ticket.finished_at = self.sim.now
        self._active.remove(ticket)
        self._stirred.fire()

    def _pump(self):
        """The admission daemon: drain whenever the world changes."""
        while True:
            self._drain()
            yield self._stirred.wait()

    def _schedule_retry(self) -> None:
        """Wake the pump at the next declared-footprint breakpoint.

        Under the pointwise check, capacity frees by *pure passage of
        time* - an active job's declared spike decaying into its tail -
        not only by submissions and completions.  Without this alarm a
        head blocked at t=0 would wait for a whole job to finish even
        though ``fits_online`` admits it the instant the spike ends,
        silently degenerating footprint admission into peak
        reservation.
        """
        now = self.sim.now
        future = [
            ticket.admitted_at + point
            for ticket in self._active
            for point in ticket.profile.breakpoints()
            if ticket.admitted_at + point > now
        ]
        if not future:
            return
        wake = min(future)
        if (
            self._alarm_at is not None
            and now < self._alarm_at <= wake
        ):
            return  # an earlier-or-equal alarm is already pending
        self._alarm_at = wake
        self.sim.process(self._alarm(wake - now, wake), name="admission-alarm")

    def _alarm(self, delay: float, wake: float):
        yield self.sim.timeout(delay)
        # A superseded alarm (an earlier wake was scheduled after this
        # one) must not wipe the bookkeeping for the current one.
        if self._alarm_at == wake:
            self._alarm_at = None
        self._stirred.fire()

    def _drain(self) -> None:
        # Deficit round robin over tenant queues.  Tenants are visited in
        # rotating service order (the tenant just served goes last);
        # each busy tenant earns one equal quantum per round and admits
        # queued jobs while its deficit covers their byte-second cost
        # and the capacity proof holds.
        while True:
            busy = [q for q in self.queues.values() if q.pending]
            if not busy:
                return
            # The largest head cost this round, so every tenant can
            # afford at least its head job - fairness comes from the
            # quantum being *equal*, not small.
            quantum = max(q.pending[0].cost for q in busy)
            admitted = False
            deficit_blocked = False
            for tenant in list(self._rr):
                queue = self.queues[tenant]
                if not queue.pending:
                    queue.deficit = 0.0
                    continue
                queue.deficit += quantum
                while queue.pending:
                    head = queue.pending[0]
                    if head.cost > queue.deficit:
                        deficit_blocked = True
                        break
                    if not self._admits(head):
                        # Capacity-blocked: keep the earned deficit, a
                        # completion will stir the pump again.
                        break
                    queue.deficit -= head.cost
                    self._launch(head)
                    admitted = True
            if not admitted and not deficit_blocked:
                # Every affordable head is capacity-blocked; besides a
                # completion, the next chance is a declared breakpoint.
                self._schedule_retry()
                return

    # ------------------------------------------------------------------
    # Driving

    def run(self) -> AdmissionReport:
        """Advance the clock until every submission has run; report.

        Raises the first job failure, and :class:`AdmissionError` if
        anything was somehow left unadmitted (impossible for jobs that
        pass the submit-time peak check, kept as a guard).
        """
        self.sim.run()
        for ticket in self.tickets:
            if ticket.failure is not None:
                raise ticket.failure
        stuck = [t.name for t in self.tickets if t.finished_at is None]
        if stuck:
            raise AdmissionError(f"jobs never completed: {stuck}")
        return self.report()

    def report(self) -> AdmissionReport:
        bills: Dict[str, TenantBill] = {}
        for tenant in self.queues:
            tenant_tickets = [t for t in self.tickets if t.tenant == tenant]
            meters = [m for t in tenant_tickets for m in t.meters]
            bills[tenant] = TenantBill(
                tenant=tenant,
                jobs=len(tenant_tickets),
                invocations=len(meters),
                results_total=job_bill(meters, "results"),
                effort_total=job_bill(meters, "effort"),
            )
        submitted = [
            t.submitted_at for t in self.tickets if t.submitted_at is not None
        ]
        finished = [
            t.finished_at for t in self.tickets if t.finished_at is not None
        ]
        makespan = (
            max(finished) - min(submitted) if submitted and finished else 0.0
        )
        return AdmissionReport(
            admit_order=list(self.admit_order),
            max_concurrent=self.max_concurrent,
            makespan=makespan,
            bills=bills,
            timeline=list(self.timeline),
        )


# ----------------------------------------------------------------------
# Workload shapes


def spike_job(
    peak_bytes: int = 4 << 30,
    sustained_bytes: int = 256 << 20,
    location: str = "node0",
) -> JobGraph:
    """The executable analogue of
    :func:`~repro.dist.multitenancy.spiky_workload`: a two-task chain
    whose *derived* profile is a short high-memory spike followed by a
    long low-memory tail - ``profile_from_graph(spike_job(...))`` is
    exactly the section-6 spike shape, so admission experiments run the
    same fleets the packing model packs.
    """
    data_bytes = 1 << 20
    graph = JobGraph()
    graph.add_data("in", data_bytes, location)
    graph.add_task(
        TaskSpec(
            name="spike",
            fn="spike",
            inputs=("in",),
            output="mid",
            output_size=data_bytes,
            compute_seconds=SPIKE_SECONDS,
            memory_bytes=peak_bytes,
        )
    )
    graph.add_task(
        TaskSpec(
            name="tail",
            fn="tail",
            inputs=("mid",),
            output="out",
            output_size=8,
            compute_seconds=SUSTAIN_SECONDS,
            memory_bytes=sustained_bytes,
        )
    )
    return graph
