"""The abstract job IR executed by every simulated platform.

A :class:`JobGraph` declares *data* (named, sized objects with an initial
placement) and *tasks* (functions consuming named objects and producing
exactly one named output).  It is the common currency of the evaluation:
distributed Fixpoint (:mod:`repro.dist.engine`) and every baseline in
:mod:`repro.baselines` execute the same graphs on the same simulated
clusters - only the platform machinery differs, which is the point.

Placements may name a cluster machine, the :data:`CLIENT` endpoint (data
that starts on the submitting host and must be uploaded), or
:data:`EXTERNAL` (data living on a remote storage service, fig. 8a's
150 ms server).  Validation is eager where it can be (duplicate names,
shadowing, negative sizes) and deferred to :meth:`JobGraph.validate`
where construction order makes eager checks impossible (unknown inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from ..core.errors import SchedulingError

#: The submitting client: a network endpoint, not a cluster machine.
CLIENT = "client"
#: A remote storage service (fig. 8a's 150 ms data server); fetched
#: through :class:`repro.sim.storage_service.StorageService`, never a NIC.
EXTERNAL = "external"

#: Placement sentinels that are not schedulable machines.
NON_MACHINE_LOCATIONS = frozenset({CLIENT, EXTERNAL})


@dataclass(frozen=True)
class DataSpec:
    """A named input datum: declared size and initial placement."""

    name: str
    size: int
    location: str


@dataclass(frozen=True)
class TaskSpec:
    """One invocation: a function, its named inputs, its single output.

    Sizes are declared (the simulator moves byte *counts*, not contents);
    ``compute_seconds`` is the pure user-time of the function body, and
    ``cores`` / ``memory_bytes`` are what the platform must bind to run it.
    """

    name: str
    fn: str
    inputs: Tuple[str, ...]
    output: str
    output_size: int
    compute_seconds: float
    cores: int = 1
    memory_bytes: int = 64 << 20

    def __post_init__(self) -> None:
        if self.output_size < 0:
            raise SchedulingError(
                f"task {self.name!r}: negative output size {self.output_size}"
            )
        if self.compute_seconds < 0:
            raise SchedulingError(
                f"task {self.name!r}: negative compute time {self.compute_seconds}"
            )
        if self.cores < 1:
            raise SchedulingError(
                f"task {self.name!r}: needs at least one core, got {self.cores}"
            )
        if self.memory_bytes < 0:
            raise SchedulingError(
                f"task {self.name!r}: negative memory {self.memory_bytes}"
            )


class JobGraph:
    """Data + tasks + the dependency structure implied by named objects."""

    def __init__(self) -> None:
        self.data: Dict[str, DataSpec] = {}
        self.tasks: Dict[str, TaskSpec] = {}
        #: output name -> producing task name, maintained incrementally so
        #: :meth:`producers` stays O(1) and always fresh.
        self._producers: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Construction

    def add_data(self, name: str, size: int, location: str) -> DataSpec:
        if size < 0:
            raise SchedulingError(f"data {name!r}: negative size {size}")
        if name in self.data:
            raise SchedulingError(f"duplicate data object {name!r}")
        if name in self._producers:
            raise SchedulingError(
                f"data {name!r} would shadow the output of task "
                f"{self._producers[name]!r}"
            )
        spec = DataSpec(name=name, size=size, location=location)
        self.data[name] = spec
        return spec

    def add_task(self, task: TaskSpec) -> TaskSpec:
        if task.name in self.tasks:
            raise SchedulingError(f"duplicate task {task.name!r}")
        if task.output in self._producers:
            raise SchedulingError(
                f"task {task.name!r}: output {task.output!r} already "
                f"produced by {self._producers[task.output]!r}"
            )
        if task.output in self.data:
            raise SchedulingError(
                f"task {task.name!r}: output {task.output!r} shadows an "
                "input data object"
            )
        self.tasks[task.name] = task
        self._producers[task.output] = task.name
        return task

    def prefixed(self, prefix: str) -> "JobGraph":
        """A renamed copy: every data, task, and object name gains
        ``prefix/``.

        The cluster's object registry is a single namespace, so running
        two instances of one graph (two tenants submitting the same
        wordcount) would collide on object names; the admission layer
        prefixes each submission with its ticket name.  Placements,
        sizes, and compute are untouched - only names change.
        """
        out = JobGraph()
        for spec in self.data.values():
            out.add_data(f"{prefix}/{spec.name}", spec.size, spec.location)
        for task in self.tasks.values():
            out.add_task(
                TaskSpec(
                    name=f"{prefix}/{task.name}",
                    fn=task.fn,
                    inputs=tuple(f"{prefix}/{name}" for name in task.inputs),
                    output=f"{prefix}/{task.output}",
                    output_size=task.output_size,
                    compute_seconds=task.compute_seconds,
                    cores=task.cores,
                    memory_bytes=task.memory_bytes,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Validation

    def validate(self) -> None:
        """Every task input must be a declared datum or a task output."""
        for task in self.tasks.values():
            for name in task.inputs:
                if name not in self.data and name not in self._producers:
                    raise SchedulingError(
                        f"task {task.name!r}: unknown input {name!r}"
                    )

    # ------------------------------------------------------------------
    # Topology queries

    def producers(self) -> Dict[str, str]:
        """Output name -> producing task name."""
        return dict(self._producers)

    def dependencies(self, task: TaskSpec) -> List[str]:
        """Names of the tasks whose outputs ``task`` consumes (deduped,
        input order)."""
        deps = [
            self._producers[name]
            for name in task.inputs
            if name in self._producers
        ]
        return list(dict.fromkeys(deps))

    def topological_order(self) -> List[TaskSpec]:
        """Tasks in dependency order (stable within a rank).

        Raises :class:`SchedulingError` when the graph has a cycle.
        """
        indegree = {name: len(self.dependencies(t)) for name, t in self.tasks.items()}
        consumers: Dict[str, List[str]] = {name: [] for name in self.tasks}
        for name, task in self.tasks.items():
            for dep in self.dependencies(task):
                consumers[dep].append(name)
        ready = [name for name, degree in indegree.items() if degree == 0]
        order: List[TaskSpec] = []
        cursor = 0
        while cursor < len(ready):
            name = ready[cursor]
            cursor += 1
            order.append(self.tasks[name])
            for consumer in consumers[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self.tasks):
            stuck = sorted(set(self.tasks) - {t.name for t in order})
            raise SchedulingError(f"dependency cycle involving {stuck}")
        return order

    def schedule(self) -> Iterator[Tuple[TaskSpec, float, float]]:
        """``(task, start, finish)`` in dependency order, on an infinitely
        wide cluster with free data movement: a task starts when its last
        dependency finishes and runs for its compute time."""
        finish: Dict[str, float] = {}
        for task in self.topological_order():
            start = max(
                (finish[dep] for dep in self.dependencies(task)), default=0.0
            )
            finish[task.name] = start + task.compute_seconds
            yield task, start, finish[task.name]

    def critical_path_seconds(self) -> float:
        """Longest chain of compute time through the graph: the last
        finish in :meth:`schedule` (the makespan floor)."""
        return max((finish for _, _, finish in self.schedule()), default=0.0)
