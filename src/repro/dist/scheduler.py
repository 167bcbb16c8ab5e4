"""Dataflow-aware placement: run the code where the data already lives.

The scheduler prices a machine by the bytes its :class:`ObjectView`
believes would have to move there (paper 4.2.2), so a task lands on the
holder of its largest dependency and ``predicted_move_bytes`` is zero
when the data is local.  Pricing and the decision itself live in
:mod:`repro.dist.costmodel`, on the one path the executing runtime's
:meth:`repro.fixpoint.net.FixpointNode._place` takes too:
:meth:`ObjectView.bid` makes one pass over the inputs (so fig. 10's
1,987-input link does not pay O(machines x inputs)) and keeps the
machines that can still win, the live holders and the hinted consumer;
:func:`~repro.dist.costmodel.choose` compares their ``(priced bytes,
load, name)`` keys and builds a :class:`~repro.dist.costmodel.Quote`
for the winner only.  The
scheduler passes registry sizes, the hinted consumer and the tombstoned
machines, and no unshippable keys: the simulated network moves
anything.  A placement is therefore O(inputs + believed replicas +
contenders): it follows the data the task names, not the size of the
cluster.  Only when no live machine is believed to hold a byte
(external-only inputs, independent tasks, every holder dead) does
everyone tie on bytes and every machine get compared, spreading by
outstanding load, fed back through
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
from .costmodel import Quote, choose, quote
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
        #: The machines as the set pricing asks ``in`` of and the
        #: collection an all-tie placement compares, in cluster order.
        self._candidates: Dict[str, None] = dict.fromkeys(self._machines)
        #: Outstanding tasks per machine - the load-feedback signal that
        #: spreads equal-cost siblings instead of convoying them.  Pass a
        #: shared dict to let several schedulers (one per concurrent job,
        #: each with its own possibly-stale view) see one cluster-wide
        #: load picture, so co-resident jobs spread around each other.
        self._outstanding: Dict[str, int] = (
            {m: 0 for m in self._machines} if outstanding is None else outstanding
        )
        # A placement reads the load of its contenders only, so a shared
        # map with a hole would fail for some tasks and not for others.
        unknown = [m for m in self._machines if m not in self._outstanding]
        if unknown:
            raise SchedulingError(
                f"outstanding-load map has no entry for {', '.join(unknown)}"
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
        decision is one :func:`repro.dist.costmodel.choose` call over
        the contenders :meth:`ObjectView.bid` returns.

        Cost: O(inputs + believed replicas + contenders) - one pass over
        the inputs, then one key comparison per live machine believed to
        hold an input byte (plus the hinted consumer), whatever the size
        of the cluster.  It falls back to comparing every machine only
        when there is no such holder - nothing believed held, zero-size
        inputs only, every holder confirmed dead - because then all
        machines tie on bytes and the spread by load has to see them all.
        """
        with self._m_place.time():
            dead = (
                self.membership.dead_nodes()
                if self.membership is not None
                else None
            )
            hinted = consumer_location if self.use_hints else None
            lookup = self.cluster.object
            contenders, move_bytes = self.view.bid(
                ((name, lookup(name).size) for name in task.inputs),
                self._candidates,
                consumer_location=hinted,
                exclude=dead,
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
                    predicted_move_bytes=move_bytes(machine),
                )
            else:
                best = choose(
                    contenders,
                    move_bytes,
                    self._outstanding.__getitem__,
                    output_size=task.output_size,
                    consumer_location=hinted,
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

    def explain(
        self, task: TaskSpec, consumer_location: Optional[str] = None
    ) -> List[Quote]:
        """Why ``task`` lands where it does: the quotes of its live
        contenders, cheapest first, so ``explain(task)[0]`` is the
        machine :meth:`place` would pick from the same beliefs and loads.

        Read-only (no metric, no load, no belief moves) and off the hot
        path: it prices through the same :meth:`ObjectView.bid` call as
        :meth:`place` but builds a :class:`Quote` per contender
        and sorts them.  A machine believed to hold nothing is listed
        only when nobody holds anything (the all-tie case); the list is
        empty when every machine is confirmed dead.  The
        ``locality=False`` ablation draws at random and consults none of
        this - the quotes say what locality would have weighed.
        """
        dead = (
            self.membership.dead_nodes() if self.membership is not None else None
        )
        hinted = consumer_location if self.use_hints else None
        lookup = self.cluster.object
        contenders, move_bytes = self.view.bid(
            ((name, lookup(name).size) for name in task.inputs),
            self._candidates,
            consumer_location=hinted,
            exclude=dead,
        )
        return sorted(
            (
                quote(
                    machine,
                    move_bytes(machine),
                    self._outstanding[machine],
                    output_size=task.output_size,
                    consumer_location=hinted,
                )
                for machine in contenders
                if not dead or machine not in dead
            ),
            key=Quote.sort_key,
        )
