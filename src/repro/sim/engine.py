"""A small deterministic discrete-event simulation engine.

The paper's evaluation (section 5) runs on 10-node EC2 clusters; this
engine is the substitute substrate: simulated time, generator-based
processes, events, and a strictly deterministic event order (ties broken
by schedule sequence), so every experiment is exactly reproducible.

**The ordering rule.**  Callbacks run by time, then in the order they
were scheduled.  Most have no delay (an event firing, a process
starting), and those skip the heap: a callback due at ``now + delay ==
now`` joins a FIFO lane.  The loop runs the heap entries due at ``now``,
then the lane until it is empty, and only then advances the clock - the
same (time, sequence) order one heap gives, because a heap entry due at
``now`` was pushed at an earlier clock reading (pushed at ``now`` it
would be due later, or be in the lane), hence before anything in the
lane, and the lane itself is appended to in schedule order.

The programming model mirrors SimPy's, implemented from scratch:

* a *process* is a generator that ``yield``s :class:`Event` objects and is
  resumed with the event's value;
* :meth:`Simulator.timeout` makes a delay event;
* :class:`Event` can be succeeded or failed exactly once; failing an event
  re-raises the exception inside every waiting process;
* :func:`all_of` joins several events.

Example::

    sim = Simulator()

    def worker(sim, results):
        yield sim.timeout(1.5)
        results.append(sim.now)

    results = []
    sim.process(worker(sim, results))
    sim.run()
    assert results == [1.5]
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple,
)

from ..core.errors import SimulationError

ProcessGen = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence carrying a value or an exception."""

    __slots__ = ("sim", "_callbacks", "_done", "_ok", "value", "_name")

    def __init__(self, sim: "Simulator", name: str | tuple = ""):
        self.sim = sim
        self._name = name
        self._callbacks: List[Callable[[Event], None]] = []
        self._done = False
        self._ok = False
        self.value: Any = None

    @property
    def name(self) -> str:
        """Built when read: only error messages read it, so a hot path
        passes ``(template, *args)`` and pays for no formatting."""
        name = self._name
        return name if isinstance(name, str) else name[0].format(*name[1:])

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def ok(self) -> bool:
        return self._done and self._ok

    def succeed(self, value: Any = None) -> "Event":
        if self._done:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._done = True
        self._ok = True
        self.value = value
        self._fire()
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._done:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._done = True
        self._ok = False
        self.value = exc
        self._fire()
        return self

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        lane = self.sim._lane  # no delay: straight to the lane
        for callback in callbacks:
            lane.append((callback, self))

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._done:
            self.sim._lane.append((callback, self))
        else:
            self._callbacks.append(callback)


class Process(Event):
    """An event that completes when its generator returns."""

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str | tuple = ""):
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        sim._lane.append((self._resume, sim._bootstrap))

    def _resume(self, event: Event) -> None:
        if self._done:
            raise SimulationError(f"process {self.name!r} resumed after completion")
        try:
            if event._ok:
                target = self._gen.send(event.value)
            else:
                target = self._gen.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            if isinstance(exc, SimulationError):
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected an Event"
            )
        target.add_callback(self._resume)


class Simulator:
    """The event loop: a heap of (time, seq, callback, event) for later
    and a FIFO lane of (callback, event) for now (module docstring)."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[[Event], None], Event]] = []
        self._lane: Deque[Tuple[Callable[[Event], None], Event]] = deque()
        self._seq = 0
        #: What every new process is first resumed with (value ``None``).
        self._bootstrap = Event(self, "bootstrap")
        self._bootstrap._done = self._bootstrap._ok = True

    # ------------------------------------------------------------------
    # Scheduling primitives

    def _schedule_call(
        self, callback: Callable[[Event], None], event: Event, delay: float = 0.0
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        due = self.now + delay
        if due == self.now:  # also a delay too small to move the clock
            self._lane.append((callback, event))
        else:
            self._seq += 1
            heapq.heappush(self._heap, (due, self._seq, callback, event))

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that succeeds ``delay`` simulated seconds from now."""
        event = Event(self, ("timeout({})", delay))
        self._schedule_call(lambda e: e.succeed(value), event, delay)
        return event

    def event(self, name: str | tuple = "") -> Event:
        return Event(self, name)

    def process(self, gen: ProcessGen, name: str | tuple = "") -> Process:
        return Process(self, gen, name)

    # ------------------------------------------------------------------
    # Running

    def _drain(self, until: Optional[float], target: Optional[Event]) -> None:
        """Run callbacks in order until ``target`` has triggered, the
        next one is due after ``until``, or none is left."""
        heap, lane = self._heap, self._lane
        while target is None or not target._done:
            if heap and heap[0][0] == self.now:
                _time, _seq, callback, event = heapq.heappop(heap)
            elif lane:
                callback, event = lane.popleft()
            elif heap and (until is None or heap[0][0] <= until):
                if heap[0][0] < self.now:
                    raise SimulationError("time moved backwards")
                self.now = heap[0][0]
                continue
            else:
                return
            callback(event)

    def run(self, until: Optional[float] = None) -> float:
        """Drain the pending callbacks; returns the final simulated time.
        With ``until``, stops before the first one due later and leaves
        the clock at ``until`` - even when that turns it back, in which
        case the lane's entries move to the heap to keep their time."""
        if until is None or until >= self.now:
            self._drain(until, None)
        else:
            while self._lane:
                self._seq += 1
                entry = (self.now, self._seq, *self._lane.popleft())
                heapq.heappush(self._heap, entry)
        if until is not None and self._heap:
            self.now = until
        return self.now

    def run_until(self, event: Event) -> Any:
        """Run until ``event`` triggers; returns its value (or raises)."""
        self._drain(None, event)
        if not event.triggered:
            raise SimulationError(
                f"deadlock: event {event.name!r} can never trigger"
            )
        if not event.ok:
            raise event.value
        return event.value


class Signal:
    """A re-armable broadcast, the condition variable of the sim world.

    :meth:`wait` hands out the current armed :class:`Event`; :meth:`fire`
    succeeds it (waking every process waiting on it) and the next
    :meth:`wait` arms a fresh one.  A fire with nobody waiting is a no-op
    - there is no memory, exactly like a condition variable - so users
    must re-check their predicate after waking.  This is what lets many
    concurrent job processes block on "the world changed" (a job
    finished, capacity freed) without polling the clock.
    """

    __slots__ = ("sim", "name", "_event")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._event: Optional[Event] = None

    def wait(self) -> Event:
        """The event the next :meth:`fire` will succeed."""
        if self._event is None or self._event.triggered:
            self._event = self.sim.event(("signal:{}", self.name))
        return self._event

    def fire(self, value: Any = None) -> None:
        """Wake everyone currently waiting (no-op when nobody is)."""
        if self._event is not None and not self._event.triggered:
            self._event.succeed(value)


def all_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event succeeding when every input has succeeded.

    Fails fast with the first failure.  The value is the list of event
    values in input order.
    """
    events = list(events)
    joined = sim.event("all_of")
    remaining = len(events)
    if remaining == 0:
        return joined.succeed([])

    def on_done(event: Event) -> None:
        nonlocal remaining
        if joined.triggered:
            return
        if not event.ok:
            joined.fail(event.value)
            return
        remaining -= 1
        if remaining == 0:
            joined.succeed([e.value for e in events])

    for event in events:
        event.add_callback(on_done)
    return joined


def any_of(sim: Simulator, events: Iterable[Event]) -> Event:
    """An event succeeding when the first input succeeds."""
    events = list(events)
    joined = sim.event("any_of")

    def on_done(event: Event) -> None:
        if joined.triggered:
            return
        if event.ok:
            joined.succeed(event.value)
        else:
            joined.fail(event.value)

    for event in events:
        event.add_callback(on_done)
    if not events:
        joined.succeed(None)
    return joined
