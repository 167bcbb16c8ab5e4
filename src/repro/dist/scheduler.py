"""Dataflow-aware placement: run the code where the data already lives.

The scheduler prices every machine by the bytes its :class:`ObjectView`
believes would have to move (paper 4.2.2), so a task lands on the holder
of its largest dependency and ``predicted_move_bytes`` is zero when the
data is local.  Pricing and the decision itself live in
:mod:`repro.dist.costmodel` - the same policy the executing runtime's
:meth:`repro.fixpoint.net.FixpointNode.delegate_best` resolves through -
and all machines are priced in one pass over the inputs (the holdings
index in the view), so a wide task like fig. 10's 1,987-input link does
not pay O(machines x inputs).  The decision scans the machines once,
comparing ``(priced bytes, load, name)`` keys, and builds a
:class:`~repro.dist.costmodel.Quote` for the winner only, so a
placement is O(inputs + believed replicas + machines) with a small
per-machine constant.  (The per-machine scan itself goes once placement
is restricted to :func:`~repro.dist.costmodel.contenders` - ROADMAP
1(c).)  Equal-cost candidates (independent tasks, external-only inputs)
spread by outstanding load, fed back through
:meth:`DataflowScheduler.task_started` / :meth:`task_finished`.

Two ablation/extension levers:

* ``locality=False`` - seeded-random placement, the fig. 8b
  "Fixpoint (no locality)" row;
* ``use_hints=True`` - output-size hints: when the caller knows where the
  task's consumer will run, moving the *output* is priced too, which can
  pull a small-input/large-output producer toward its consumer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.errors import SchedulingError
from ..obs import NULL_OBS, Obs
from .costmodel import choose
from .graph import TaskSpec
from .membership import MembershipView
from .objectview import ObjectView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cluster import Cluster


@dataclass(frozen=True)
class Placement:
    """A scheduling decision and its believed data-movement price."""

    task: str
    machine: str
    #: Input bytes the view believes are absent from ``machine`` (what the
    #: network workers will actually have to fetch there).
    predicted_move_bytes: int


class DataflowScheduler:
    """Locality-first placement over a (possibly stale) object view."""

    def __init__(
        self,
        cluster: "Cluster",
        view: ObjectView,
        locality: bool = True,
        use_hints: bool = False,
        seed: int = 0,
        outstanding: Optional[Dict[str, int]] = None,
        obs: Obs = NULL_OBS,
        membership: Optional[MembershipView] = None,
    ):
        self.cluster = cluster
        self.view = view
        #: Liveness beliefs: when wired (FixpointSim under gossip with
        #: membership on), confirmed-dead machines are excluded from
        #: every placement - in the locality path via
        #: ``costmodel.choose(exclude=...)``, and in the random-ablation
        #: path by filtering before the draw.
        self.membership = membership
        self.locality = locality
        self.use_hints = use_hints
        self.rng = random.Random(seed)
        #: Observability is off (``NULL_OBS``) unless the platform wires
        #: one in - :class:`~repro.dist.engine.FixpointSim` passes its
        #: sim-clocked obs, so ``scheduler_place_seconds`` observes
        #: simulated durations (0.0: placement is instantaneous in sim
        #: time) and stays bit-identical under seeded replay, while the
        #: benchmarks pass a wall-clocked obs to get real us/decision.
        self.obs = obs
        self._m_place = obs.registry.histogram(
            "scheduler_place_seconds", "Placement decision time"
        )
        self._m_placements = obs.registry.counter(
            "scheduler_placements_total", "Placement decisions, by machine"
        )
        self._m_move_bytes = obs.registry.counter(
            "scheduler_predicted_move_bytes_total",
            "Believed bytes the chosen placements must move",
        )
        self._machines: List[str] = cluster.machine_names()
        if not self._machines:
            raise SchedulingError("cannot schedule on an empty cluster")
        #: Outstanding tasks per machine - the load-feedback signal that
        #: spreads equal-cost siblings instead of convoying them.  Pass a
        #: shared dict to let several schedulers (one per concurrent job,
        #: each with its own possibly-stale view) see one cluster-wide
        #: load picture, so co-resident jobs spread around each other.
        self._outstanding: Dict[str, int] = (
            {m: 0 for m in self._machines} if outstanding is None else outstanding
        )

    # ------------------------------------------------------------------
    # Load feedback

    def task_started(self, machine: str) -> None:
        try:
            self._outstanding[machine] += 1
        except KeyError:
            raise SchedulingError(
                f"no machine {machine!r} to start a task on"
            ) from None

    def task_finished(self, machine: str) -> None:
        if self._outstanding.get(machine, 0) <= 0:
            raise SchedulingError(f"no outstanding task on {machine!r}")
        self._outstanding[machine] -= 1

    def note_output(
        self, name: str, machine: str, size: Optional[int] = None
    ) -> None:
        """Advance the view when an output materializes somewhere."""
        self.view.learn(name, machine, size)

    # ------------------------------------------------------------------
    # Placement

    def place(
        self, task: TaskSpec, consumer_location: Optional[str] = None
    ) -> Placement:
        """Choose a machine for ``task``.

        With locality on, the winner minimises believed bytes moved: its
        missing inputs, plus - when hints are enabled and the consumer's
        location is known - the output's journey to that consumer.  Ties
        break by outstanding load, then name (determinism).  The whole
        decision is one :func:`repro.dist.costmodel.choose` call.
        """
        with self._m_place.time():
            missing = self.view.bytes_missing_many(
                self.cluster, task.inputs, self._machines
            )
            dead = (
                self.membership.dead_nodes()
                if self.membership is not None
                else None
            )
            if not self.locality:
                live = (
                    self._machines
                    if not dead
                    else [m for m in self._machines if m not in dead]
                )
                if not live:
                    raise SchedulingError("every machine is confirmed dead")
                machine = self.rng.choice(live)
                placement = Placement(
                    task=task.name,
                    machine=machine,
                    predicted_move_bytes=missing[machine],
                )
            else:
                best = choose(
                    self._machines,
                    missing.__getitem__,
                    self._outstanding.__getitem__,
                    output_size=task.output_size,
                    consumer_location=(
                        consumer_location if self.use_hints else None
                    ),
                    exclude=dead,
                )
                placement = Placement(
                    task=task.name,
                    machine=best.candidate,
                    predicted_move_bytes=best.move_bytes,
                )
        self._m_placements.inc(machine=placement.machine)
        if placement.predicted_move_bytes:
            self._m_move_bytes.inc(placement.predicted_move_bytes)
        return placement
