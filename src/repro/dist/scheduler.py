"""Dataflow-aware placement: run the code where the data already lives.

The scheduler prices a machine by the bytes its :class:`ObjectView`
believes would have to move there (paper 4.2.2), so a task lands on the
holder of its largest dependency and ``predicted_move_bytes`` is zero
when the data is local.  Pricing and the decision itself live in
:mod:`repro.dist.costmodel`, on the one path the executing runtime's
:meth:`repro.fixpoint.net.FixpointNode._place` and the baselines'
:meth:`repro.baselines.base.Platform._choose` take too, and a
placement is one pass from the task's inputs to the winning
``(priced bytes, load, name)`` key.  The scheduler hands
:meth:`ObjectView.bid` the input names and their sizes as two streams,
the sizes read from the registry's name -> size index
(:attr:`Cluster.sizes <repro.sim.cluster.Cluster.sizes>`, one ``dict``
read per input through ``map``); the view reads each name's believed
holders the same way and sums the bytes per distinct holder set, so
fig. 10's 1,987-input link pays one dict update per input and walks
each set's holders once, not O(machines x inputs).
:func:`~repro.dist.costmodel.bid` keeps the machines that can still
win, the live holders and the hinted consumer, with their prices in a
dict, and :func:`~repro.dist.costmodel.choose` compares their
``(priced bytes, load, name)`` keys by ``map``, ``zip`` and ``min``
and builds a :class:`~repro.dist.costmodel.Quote` for the winner only:
no Python frame runs per contender.  The scheduler passes the consumer
it is handed and the tombstoned machines, and no unshippable keys: the
simulated network moves anything.  A placement is therefore O(inputs +
distinct holder sets x their holders + contenders): it follows the data
the task names, not the size of the cluster.  Only when no live machine
is believed to hold a byte (external-only inputs, independent tasks,
every holder dead) does everyone tie on bytes and every machine get
compared, spreading by the ``outstanding`` load map: ``FixpointSim``'s
invocation path writes it, and a bare scheduler's caller feeds it
through :meth:`DataflowScheduler.task_started` / :meth:`task_finished`.
An input the registry has no record of raises the typed
:class:`~repro.core.errors.SchedulingError` naming it.

``locality=False`` is the one ablation lever: seeded-random placement,
the fig. 8b "Fixpoint (no locality)" row.  Output-size hints are not a
scheduler setting: :meth:`~DataflowScheduler.place` and
:meth:`~DataflowScheduler.explain` price whatever ``consumer_location``
they are handed (moving the *output* there is priced too, which can pull
a small-input/large-output producer toward its consumer), and
:class:`~repro.dist.engine.FixpointSim` decides whether to infer one.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

from ..core.errors import SchedulingError
from ..obs import NULL_OBS, Obs
from .costmodel import Quote, choose
from .graph import TaskSpec
from .membership import MembershipView
from .objectview import ObjectView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.cluster import Cluster

class Placement(NamedTuple):
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
        self.rng = random.Random(seed)
        #: Observability is off (``NULL_OBS``) unless the platform wires
        #: one in - :class:`~repro.dist.engine.FixpointSim` passes its
        #: sim-clocked obs, so ``scheduler_place_seconds`` observes
        #: simulated durations (0.0: placement is instantaneous in sim
        #: time) and stays bit-identical under seeded replay, while the
        #: benchmarks pass a wall-clocked obs to get real us/decision
        #: (off, the histogram is ``None`` and :meth:`place` times nothing).
        self.obs = obs
        self._clock = obs.clock
        self._m_place = obs.registry.histogram(
            "scheduler_place_seconds", "Placement decision time"
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

    def _bid(self, task: TaskSpec, consumer_location: Optional[str]):
        """What :meth:`place` and :meth:`explain` both price from: the
        tombstoned machines (``None`` without membership) and
        :meth:`ObjectView.bid`'s ``(contenders, move_bytes)`` over the
        task's inputs, their sizes read from the registry's size index,
        and ``consumer_location``.  An input the registry does not know
        raises the typed :class:`SchedulingError` naming it."""
        dead = (
            self.membership.dead_nodes() if self.membership is not None else None
        )
        inputs = task.inputs
        try:
            contenders, move_bytes = self.view.bid(
                inputs,
                map(self.cluster.sizes.__getitem__, inputs),
                self._candidates,
                consumer_location=consumer_location,
                exclude=dead,
            )
        except KeyError:
            for name in inputs:
                self.cluster.object(name)  # the typed error, naming the input
            raise
        return dead, contenders, move_bytes

    def place(
        self, task: TaskSpec, consumer_location: Optional[str] = None
    ) -> Placement:
        """Choose a machine for ``task``.

        With locality on, the winner minimises believed bytes moved: its
        missing inputs, plus - when a ``consumer_location`` is given -
        the output's journey to that consumer.  Ties
        break by outstanding load, then name (determinism).  The whole
        decision is one :func:`repro.dist.costmodel.choose` call over
        the contenders :meth:`ObjectView.bid` returns.

        Cost: O(inputs + distinct holder sets x their holders +
        contenders) - one pass over the inputs, one over the distinct
        sets of believed holders they fall into, then one key comparison
        per live machine believed to hold an input byte (plus the hinted
        consumer), whatever the size of the cluster.  It falls back to
        comparing every machine only when there is no such holder -
        nothing believed held, zero-size inputs only, every holder
        confirmed dead - because then all machines tie on bytes and the
        spread by load has to see them all.
        """
        timer = self._m_place
        started = self._clock() if timer is not None else 0.0
        try:
            dead, contenders, move_bytes = self._bid(task, consumer_location)
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
                    consumer_location=consumer_location,
                    exclude=dead,
                )
                placement = Placement(task.name, best.candidate, best.move_bytes)
        finally:
            if timer is not None:
                timer.observe(self._clock() - started)
        return placement

    def explain(self, task: TaskSpec) -> List[Quote]:
        """Why ``task`` lands where it does: the quotes of its live
        contenders, cheapest first, so ``explain(task)[0]`` is the
        machine :meth:`place` would pick from the same beliefs and loads
        with no consumer hint.

        Read-only (no metric, no load, no belief moves) and off the hot
        path: it prices through the same :meth:`ObjectView.bid` call as
        :meth:`place` but builds a :class:`Quote` per contender
        and sorts them.  A machine believed to hold nothing is listed
        only when nobody holds anything (the all-tie case); the list is
        empty when every machine is confirmed dead.  The
        ``locality=False`` ablation draws at random and consults none of
        this - the quotes say what locality would have weighed.
        """
        dead, contenders, move_bytes = self._bid(task, None)
        return sorted(
            (
                Quote(machine, move_bytes(machine), 0, self._outstanding[machine])
                for machine in contenders
                if not dead or machine not in dead
            ),
            key=Quote.sort_key,
        )
