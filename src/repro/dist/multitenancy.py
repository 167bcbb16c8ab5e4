"""Ultra-high-density multitenancy packing (paper section 6).

Fix's declared, deterministic dataflow gives the platform each
application's *memory footprint over time* - not just a peak reservation.
This module quantifies what that knowledge is worth:

* :class:`Phase` / :class:`AppProfile` - a piecewise-constant memory
  profile (e.g. a 4 GB startup spike followed by a long 256 MB tail);
* :func:`peak_reservation_packing` - the status quo: every app reserves
  its peak for its whole lifetime (first-fit decreasing on peaks);
* :func:`footprint_aware_packing` - packing against the *time-varying*
  sum: apps whose spikes interleave share a machine safely;
* :func:`validate_packing` - proves a packing never exceeds capacity at
  any instant (density must never come from overcommitting);
* :func:`spiky_workload` / :func:`density_ratio` - the section-6
  experiment: staggered spiky fleets pack several times denser;
* :func:`profile_from_graph` - derive a job's declared profile from its
  critical-path schedule (:meth:`~repro.dist.graph.JobGraph.schedule`),
  the bridge the admission layer (:mod:`repro.dist.admission`) crosses
  from the executable job IR into this packing model;
* :func:`fits_online` / :func:`validate_timeline` - the *online*
  single-bin variant of the same pointwise check (members start at
  their admission instants, not at 0): jobs arrive at arbitrary
  instants on one shared cluster, and an admission is legal exactly
  when the projected footprint sum stays within capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..core.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .graph import JobGraph


@dataclass(frozen=True)
class Phase:
    """A constant-memory interval of an application's life."""

    seconds: float
    bytes: int

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise SchedulingError(f"phase duration must be positive: {self.seconds}")
        if self.bytes < 0:
            raise SchedulingError(f"phase memory cannot be negative: {self.bytes}")


@dataclass(frozen=True)
class AppProfile:
    """An application's declared memory footprint over time."""

    name: str
    phases: Tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise SchedulingError(f"app {self.name!r}: profile has no phases")

    @property
    def peak_bytes(self) -> int:
        return max(phase.bytes for phase in self.phases)

    @property
    def lifetime(self) -> float:
        return sum(phase.seconds for phase in self.phases)

    def memory_at(self, t: float) -> int:
        """Memory held ``t`` seconds after start (0 once finished).

        Phases are half-open ``[start, end)`` intervals.
        """
        if t < 0:
            return 0
        clock = 0.0
        for phase in self.phases:
            clock += phase.seconds
            if t < clock:
                return phase.bytes
        return 0

    def mem_time_integral(self) -> float:
        """Byte-seconds over the lifetime (the true resource consumption a
        footprint-aware platform bills for)."""
        return sum(phase.seconds * phase.bytes for phase in self.phases)

    def breakpoints(self) -> List[float]:
        """Instants where this profile's memory can change."""
        points = [0.0]
        clock = 0.0
        for phase in self.phases:
            clock += phase.seconds
            points.append(clock)
        return points

    def delayed(self, offset: float) -> "AppProfile":
        """This profile started ``offset`` seconds late: a zero-memory
        lead-in phase, so online arrivals reuse the co-start machinery
        (:func:`validate_packing` checks phase breakpoints exactly)."""
        if offset < 0:
            raise SchedulingError(f"offset cannot be negative: {offset}")
        if offset == 0:
            return self
        return AppProfile(self.name, (Phase(offset, 0), *self.phases))


@dataclass
class Packing:
    """An assignment of applications to fixed-capacity machines."""

    capacity_bytes: int
    bins: List[List[AppProfile]] = field(default_factory=list)

    @property
    def bin_count(self) -> int:
        return len(self.bins)

    def app_count(self) -> int:
        return sum(len(members) for members in self.bins)

    def apps_per_bin(self) -> float:
        if not self.bins:
            return 0.0
        return self.app_count() / self.bin_count


def _peak_demand(
    members: Sequence[Tuple[AppProfile, float]], since: float = 0.0
) -> int:
    """The worst instantaneous sum, from ``since`` on, of a co-located
    set of ``(profile, started_at)`` members.  Profiles are piecewise
    constant, so checking every member's shifted phase breakpoints is
    exact."""
    points = {at + t for app, at in members for t in app.breakpoints()}
    return max(
        (
            sum(app.memory_at(t - at) for app, at in members)
            for t in points
            if t >= since
        ),
        default=0,
    )


def validate_packing(packing: Packing) -> None:
    """Prove the packing never exceeds capacity at any instant."""
    for index, members in enumerate(packing.bins):
        demand = _peak_demand([(app, 0.0) for app in members])
        if demand > packing.capacity_bytes:
            raise SchedulingError(
                f"bin {index}: peak demand {demand} exceeds capacity "
                f"{packing.capacity_bytes}"
            )


def _check_fits(apps: Sequence[AppProfile], capacity_bytes: int) -> None:
    if capacity_bytes <= 0:
        raise SchedulingError(f"capacity must be positive: {capacity_bytes}")
    for app in apps:
        if app.peak_bytes > capacity_bytes:
            raise SchedulingError(
                f"app {app.name!r}: peak {app.peak_bytes} exceeds machine "
                f"capacity {capacity_bytes}"
            )


def peak_reservation_packing(
    apps: Sequence[AppProfile], capacity_bytes: int
) -> Packing:
    """The status quo: reserve every app's peak for its whole lifetime.

    First-fit decreasing on peak reservations (the standard serverless
    admission model: sum of limits <= machine memory).
    """
    _check_fits(apps, capacity_bytes)
    ordered = sorted(apps, key=lambda a: a.peak_bytes, reverse=True)
    bins: List[List[AppProfile]] = []
    reserved: List[int] = []
    for app in ordered:
        for index, total in enumerate(reserved):
            if total + app.peak_bytes <= capacity_bytes:
                bins[index].append(app)
                reserved[index] += app.peak_bytes
                break
        else:
            bins.append([app])
            reserved.append(app.peak_bytes)
    return Packing(capacity_bytes=capacity_bytes, bins=bins)


def footprint_aware_packing(
    apps: Sequence[AppProfile], capacity_bytes: int
) -> Packing:
    """Pack against the time-varying footprint sum (what Fix's declared
    profiles enable): an app joins a machine when the *pointwise* total
    stays within capacity, so staggered spikes interleave.

    Profile knowledge can only help: when first-fit over footprints ever
    needs more machines than peak reservation would (a bin-packing order
    anomaly, not a modelling gain), the peak packing is returned instead -
    footprint awareness degrades gracefully to reservations.
    """
    _check_fits(apps, capacity_bytes)
    ordered = sorted(apps, key=lambda a: a.peak_bytes, reverse=True)
    bins: List[List[AppProfile]] = []
    for app in ordered:
        for members in bins:
            trial = [(member, 0.0) for member in (*members, app)]
            if _peak_demand(trial) <= capacity_bytes:
                members.append(app)
                break
        else:
            bins.append([app])
    packing = Packing(capacity_bytes=capacity_bytes, bins=bins)
    fallback = peak_reservation_packing(apps, capacity_bytes)
    if fallback.bin_count < packing.bin_count:
        return fallback
    return packing


#: The section-6 spike shape: a short high-memory spike, then a long
#: low-memory tail (``spiky_workload``'s defaults, and the durations of
#: :func:`repro.dist.admission.spike_job`'s two tasks).
SPIKE_SECONDS = 1.0
SUSTAIN_SECONDS = 15.0


def spiky_workload(
    count: int,
    peak_bytes: int,
    sustained_bytes: int,
    spike_seconds: float = SPIKE_SECONDS,
    sustain_seconds: float = SUSTAIN_SECONDS,
    stagger_slots: int = 1,
) -> List[AppProfile]:
    """A fleet of spiky apps: a short high-memory spike, then a long
    low-memory tail, with spikes staggered across ``stagger_slots`` time
    slots (app *i* spikes in slot ``i % stagger_slots``).

    ``stagger_slots=1`` aligns every spike at t=0 - the adversarial case
    where profile knowledge cannot conjure capacity.
    """
    if count <= 0 or stagger_slots <= 0:
        raise SchedulingError("spiky_workload needs positive count and slots")
    apps: List[AppProfile] = []
    for i in range(count):
        offset = (i % stagger_slots) * spike_seconds
        phases: List[Phase] = []
        if offset > 0:
            phases.append(Phase(offset, sustained_bytes))
        phases.append(Phase(spike_seconds, peak_bytes))
        phases.append(Phase(sustain_seconds, sustained_bytes))
        apps.append(AppProfile(f"app-{i:04d}", tuple(phases)))
    return apps


def density_ratio(
    apps: Sequence[AppProfile], capacity_bytes: int
) -> Tuple[Packing, Packing, float]:
    """Both packings (validated) and the machine-count ratio peak/aware -
    the density headroom footprint knowledge buys."""
    aware = footprint_aware_packing(apps, capacity_bytes)
    peak = peak_reservation_packing(apps, capacity_bytes)
    validate_packing(aware)
    validate_packing(peak)
    ratio = peak.bin_count / aware.bin_count if aware.bin_count else 1.0
    return aware, peak, ratio


# ----------------------------------------------------------------------
# Profiles from executable jobs (the admission layer's bridge)

#: Zero-compute tasks still occupy memory for an instant; give their
#: interval a measurable width so the derived profile stays well-formed.
MIN_PHASE_SECONDS = 1e-9


def profile_from_graph(graph: "JobGraph", name: str = "job") -> AppProfile:
    """The declared memory footprint a :class:`JobGraph` implies.

    The paper's admission argument (section 6) rests on the platform
    *knowing* each job's footprint over time before running it; with a
    declared dataflow that knowledge is derivable, not guessed.  Each
    task holds ``task.memory_bytes`` from its start in
    :meth:`JobGraph.schedule` (the critical-path schedule) for its
    compute time, and the interval sum is flattened into a
    piecewise-constant :class:`AppProfile`.

    This is the *declared* footprint: a real run under contention
    stretches in time but never grows in instantaneous memory, because
    the engine's late binding acquires each task's memory only for the
    compute interval the declaration prices.
    """
    deltas: dict = {}
    for task, start, _ in graph.schedule():
        mem = task.memory_bytes
        if mem > 0:
            end = start + max(task.compute_seconds, MIN_PHASE_SECONDS)
            deltas[start] = deltas.get(start, 0) + mem
            deltas[end] = deltas.get(end, 0) - mem
    if not deltas:
        return AppProfile(name, (Phase(MIN_PHASE_SECONDS, 0),))
    phases: List[Phase] = []
    level = 0
    points = sorted(deltas)
    if points[0] > 0:
        # Zero-memory work (e.g. memoryless tasks) leads the schedule:
        # the profile must still place later spikes at their true
        # critical-path instants, not shifted to t=0.
        phases.append(Phase(points[0], 0))
    for left, right in zip(points, points[1:]):
        level += deltas[left]
        if phases and phases[-1].bytes == level:
            phases[-1] = Phase(phases[-1].seconds + (right - left), level)
        else:
            phases.append(Phase(right - left, level))
    while phases and phases[-1].bytes == 0:
        phases.pop()
    if not phases:
        return AppProfile(name, (Phase(MIN_PHASE_SECONDS, 0),))
    return AppProfile(name, tuple(phases))


# ----------------------------------------------------------------------
# Online single-bin admission (one shared cluster, staggered arrivals)


def fits_online(
    active: Sequence[Tuple[AppProfile, float]],
    candidate: AppProfile,
    start: float,
    capacity_bytes: int,
) -> bool:
    """Would admitting ``candidate`` at ``start`` ever exceed capacity?

    ``active`` holds the already-admitted jobs as ``(profile,
    started_at)`` pairs.  The check is the one
    :func:`footprint_aware_packing` runs per bin (there every member
    starts at 0), over the candidate at ``start`` and the active jobs,
    from ``start`` onward.  Instants before ``start`` were proven safe
    when the active jobs were admitted, and admitting the candidate
    cannot change them.
    """
    return _peak_demand([*active, (candidate, start)], start) <= capacity_bytes


def validate_timeline(
    jobs: Sequence[Tuple[AppProfile, float]], capacity_bytes: int
) -> None:
    """Prove an admission history never exceeded capacity at any instant.

    Each ``(profile, started_at)`` becomes a :meth:`AppProfile.delayed`
    co-start profile, and the whole history is one shared bin - so this
    is literally :func:`validate_packing` over the online timeline, and
    raises :class:`SchedulingError` on any violation.  The co-start form
    is the proof on purpose: it does not share :func:`fits_online`'s
    offset arithmetic.
    """
    if not jobs:
        return
    origin = min(started_at for _, started_at in jobs)
    shifted = [
        profile.delayed(started_at - origin) for profile, started_at in jobs
    ]
    validate_packing(Packing(capacity_bytes=capacity_bytes, bins=[shifted]))
