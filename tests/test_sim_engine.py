"""Tests for the discrete-event engine: events, processes, determinism."""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.sim.engine import Simulator, all_of, any_of
from repro.sim.resources import Resource


class TestEvents:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.timeout(2.5).add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_event_value(self):
        sim = Simulator()
        event = sim.timeout(1.0, value="payload")
        sim.run_until(event)
        assert event.value == "payload"

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_callback_after_trigger_fires(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("done")
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["done"]

    @given(st.lists(st.floats(min_value=0.001, max_value=100), min_size=1, max_size=20))
    def test_clock_is_monotonic(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.timeout(delay).add_callback(lambda e: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    def test_fifo_tiebreak_is_submission_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.timeout(1.0, value=i).add_callback(lambda e: order.append(e.value))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcesses:
    def test_simple_process(self):
        sim = Simulator()
        trace = []

        def proc(sim):
            trace.append(("start", sim.now))
            yield sim.timeout(1.0)
            trace.append(("mid", sim.now))
            yield sim.timeout(2.0)
            trace.append(("end", sim.now))
            return "result"

        process = sim.process(proc(sim))
        sim.run()
        assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]
        assert process.value == "result"

    def test_process_waits_on_event(self):
        sim = Simulator()
        gate = sim.event("gate")
        results = []

        def waiter(sim):
            value = yield gate
            results.append((sim.now, value))

        def opener(sim):
            yield sim.timeout(5.0)
            gate.succeed("open")

        sim.process(waiter(sim))
        sim.process(opener(sim))
        sim.run()
        assert results == [(5.0, "open")]

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def failing(sim):
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def waiter(sim, target):
            try:
                yield target
            except ValueError as exc:
                return f"caught {exc}"

        target = sim.process(failing(sim))
        waiter_proc = sim.process(waiter(sim, target))
        sim.run()
        assert waiter_proc.value == "caught boom"

    def test_unhandled_process_failure_raises_at_run_until(self):
        sim = Simulator()

        def failing(sim):
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled")

        process = sim.process(failing(sim))
        with pytest.raises(RuntimeError):
            sim.run_until(process)

    def test_yielding_non_event_is_an_error(self):
        sim = Simulator()

        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_deadlock_detected(self):
        sim = Simulator()
        never = sim.event("never")
        with pytest.raises(SimulationError):
            sim.run_until(never)

    def test_run_with_until_bound(self):
        sim = Simulator()
        fired = []
        sim.timeout(10.0).add_callback(lambda e: fired.append(1))
        assert sim.run(until=5.0) == 5.0
        assert not fired


class TestCombinators:
    def test_all_of(self):
        sim = Simulator()
        events = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        joined = all_of(sim, events)
        sim.run_until(joined)
        assert sim.now == 3.0
        assert joined.value == [3.0, 1.0, 2.0]

    def test_all_of_empty(self):
        sim = Simulator()
        assert all_of(sim, []).triggered

    def test_all_of_fails_fast(self):
        sim = Simulator()

        def failing(sim):
            yield sim.timeout(1.0)
            raise ValueError("x")

        events = [sim.process(failing(sim)), sim.timeout(10.0)]
        joined = all_of(sim, events)
        with pytest.raises(ValueError):
            sim.run_until(joined)
        assert sim.now == 1.0

    def test_any_of(self):
        sim = Simulator()
        events = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        winner = any_of(sim, events)
        sim.run_until(winner)
        assert sim.now == 1.0
        assert winner.value == 1.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)


# ----------------------------------------------------------------------
# The ordering rule: the zero-delay lane runs callbacks in exactly the
# (time, schedule sequence) order the one-heap loop did.


class HeapOnlySimulator(Simulator):
    """The reference: the engine's loop as it was before the zero-delay
    lane - every callback on one heap, popped in (time, seq) order.

    ``Event`` and ``Process`` append their no-delay callbacks to
    ``sim._lane``; here the lane is the simulator itself and appending
    pushes onto the heap."""

    def __init__(self):
        super().__init__()
        self._lane = self

    def append(self, entry):
        self._schedule_call(*entry)

    def _schedule_call(self, callback, event, delay=0.0):
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, event))

    def run(self, until=None):
        while self._heap:
            time, _seq, callback, event = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            assert time >= self.now
            self.now = time
            callback(event)
        return self.now

    def run_until(self, event):
        while not event.triggered:
            if not self._heap:
                raise SimulationError(f"deadlock: event {event.name!r}")
            time, _seq, callback, target = heapq.heappop(self._heap)
            assert time >= self.now
            self.now = time
            callback(target)
        if not event.ok:
            raise event.value
        return event.value


#: Repeated delays (ties), zero delays, and one so small that it cannot
#: move a clock that has left 0.0 (``now + 1e-30 == now``).
SOUP_DELAYS = (0.0, 0.0, 1e-30, 0.5, 0.5, 1.0, 2.5)


def _soup_plan(rng, depth=0):
    """A seeded script for one process: waits, ``Resource`` holds, joins
    over freshly spawned children, and the odd failure."""
    kinds = ("wait", "wait", "hold", "join", "join", "fail", "check")
    steps = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(kinds[:3] if depth == 2 else kinds)
        if kind == "join":
            children = [_soup_plan(rng, depth + 1) for _ in range(rng.randint(1, 3))]
            steps.append((kind, (rng.random() < 0.5, children)))
        elif kind == "fail" and rng.random() < 0.6:
            steps.append(("wait", 0.0))
        else:
            steps.append((kind, rng.choice(SOUP_DELAYS)))
    return steps


def _soup(sim, seed):
    """Start the seeded soup on ``sim``; returns ``(trace, roots)``."""
    rng = random.Random(seed)
    trace = []
    pool = Resource(sim, 2, name="pool")
    done = sim.event("already done").succeed("early")

    def worker(label, steps):
        for kind, arg in steps:
            trace.append((sim.now, label, kind))
            if kind == "wait":
                yield sim.timeout(arg)
            elif kind == "hold":
                yield pool.acquire(1 + (arg == 0.5))
                trace.append((sim.now, label, "granted"))
                yield sim.timeout(arg)
                pool.release(1 + (arg == 0.5))
            elif kind == "check":  # a callback added after the trigger
                value = yield done
                trace.append((sim.now, label, value))
            elif kind == "fail":
                raise ValueError(label)
            else:
                everyone, plans = arg
                children = [
                    sim.process(worker(f"{label}.{i}", plan))
                    for i, plan in enumerate(plans)
                ]
                try:
                    yield (all_of if everyone else any_of)(sim, children)
                except ValueError as exc:
                    trace.append((sim.now, label, f"caught {exc}"))
        trace.append((sim.now, label, "done"))
        return label

    roots = [
        sim.process(worker(f"p{i}", _soup_plan(rng)))
        for i in range(rng.randint(2, 6))
    ]
    return trace, roots


def _drive_run(sim, roots, rng):
    return [sim.run()]


def _drive_run_in_slices(sim, roots, rng):
    """``run(until=)`` at seeded cut points - one of them *behind* the
    clock, which turns it back with callbacks pending - then the rest."""
    clocks = []
    for cut in sorted(rng.choice((0.0, 0.5, 1.0, 1.75, 3.0)) for _ in range(3)):
        clocks.append(sim.run(until=cut))
        sim.timeout(0.0).add_callback(lambda e: None)  # a non-empty lane
        clocks.append(sim.run(until=cut - 0.25))
    clocks.append(sim.run())
    return clocks


def _drive_run_until(sim, roots, rng):
    outcome = []
    try:
        outcome.append(sim.run_until(all_of(sim, roots)))
    except ValueError as exc:
        outcome.append(f"raised {exc}")
    outcome.append(sim.now)
    outcome.append(sim.run())
    return outcome


class TestOrderingOracle:
    @pytest.mark.parametrize(
        "drive", [_drive_run, _drive_run_in_slices, _drive_run_until]
    )
    def test_random_soups_fire_in_the_heap_only_order(self, drive):
        for seed in range(40):
            runs = []
            for simulator in (HeapOnlySimulator, Simulator):
                sim = simulator()
                trace, roots = _soup(sim, seed)
                clocks = drive(sim, roots, random.Random(seed))
                runs.append((trace, clocks, [r.triggered for r in roots], sim.now))
            assert runs[0] == runs[1], f"seed {seed}"

    def test_soups_exercise_what_they_claim(self):
        """The oracle is only as good as its soups: across the seeds
        there are ties, lane-only delays, contention, failures caught
        and uncaught, and both joins."""
        seen = set()
        for seed in range(40):
            sim = Simulator()
            trace, roots = _soup(sim, seed)
            sim.run()
            seen.update(kind.split()[0] for _now, _label, kind in trace)
            seen.update("uncaught" for r in roots if not r.ok)
            times = [now for now, _label, _kind in trace]
            seen.update("tie" for a, b in zip(times, times[1:]) if a == b)
        assert seen >= {
            "wait", "hold", "granted", "join", "fail", "caught", "check",
            "early", "uncaught", "tie", "done",
        }

    def test_a_delay_too_small_to_move_the_clock_keeps_its_turn(self):
        for simulator in (HeapOnlySimulator, Simulator):
            sim = simulator()
            order = []

            def proc():
                yield sim.timeout(1.0)
                assert sim.now + 1e-30 == sim.now
                for label, delay in (("a", 0.0), ("b", 1e-30), ("c", 0.0)):
                    sim.timeout(delay, value=label).add_callback(
                        lambda e: order.append((sim.now, e.value))
                    )

            sim.process(proc())
            sim.run()
            assert order == [(1.0, "a"), (1.0, "b"), (1.0, "c")]

    def test_heap_entries_due_now_run_before_the_lane(self):
        for simulator in (HeapOnlySimulator, Simulator):
            sim = simulator()
            order = []
            first = sim.timeout(1.0, value="first")
            first.add_callback(
                # scheduled while the clock reads 1.0: after "second",
                # which has been on the heap since 0.0
                lambda e: sim.timeout(0.0, value="third").add_callback(
                    lambda e: order.append(e.value)
                )
            )
            first.add_callback(lambda e: order.append(e.value))
            sim.timeout(1.0, value="second").add_callback(
                lambda e: order.append(e.value)
            )
            sim.run()
            assert order == ["first", "second", "third"]

    def test_run_until_bound_behind_the_clock_keeps_the_lane_for_later(self):
        for simulator in (HeapOnlySimulator, Simulator):
            sim = simulator()
            trace = []

            def proc(label):
                trace.append((sim.now, label))
                yield sim.timeout(0.0)
                trace.append((sim.now, label + " again"))

            sim.timeout(5.0)
            assert sim.run() == 5.0
            sim.process(proc("pending at 5"))  # waits in the lane
            sim.timeout(1.0)
            assert sim.run(until=3.0) == 3.0 and sim.now == 3.0
            assert trace == []
            sim.process(proc("started at 3"))
            assert sim.run() == 6.0
            assert trace == [
                (3.0, "started at 3"),
                (3.0, "started at 3 again"),
                (5.0, "pending at 5"),
                (5.0, "pending at 5 again"),
            ]

    def test_run_until_stops_at_its_event_with_the_lane_still_full(self):
        for simulator in (HeapOnlySimulator, Simulator):
            sim = simulator()
            seen = []
            gate = sim.event("gate")
            gate.add_callback(lambda e: seen.append("after the gate"))

            def opener():
                gate.succeed("open")
                seen.append("opened")
                yield sim.timeout(0.0)
                seen.append("later")

            sim.process(opener())
            assert sim.run_until(gate) == "open"
            assert seen == ["opened"]
            sim.run()
            assert seen == ["opened", "after the gate", "later"]

    def test_deadlock_needs_an_empty_lane_too(self):
        """No heap entry ever exists here: the lane alone must keep
        ``run_until`` going, and only an empty lane is a deadlock."""
        for simulator in (HeapOnlySimulator, Simulator):
            sim = simulator()
            gate = sim.event("gate")
            ran = []

            def proc(label, then=lambda: None):
                ran.append(label)
                then()
                return
                yield

            sim.process(proc("opener", then=lambda: gate.succeed("open")))
            assert sim.run_until(gate) == "open"
            sim.process(proc("bystander"))
            with pytest.raises(SimulationError, match="deadlock.*'never'"):
                sim.run_until(sim.event("never"))
            assert ran == ["opener", "bystander"]  # ran before the verdict
            assert not sim._heap


class TestNamesAreBuiltOnDemand:
    def test_names_read_as_before(self):
        sim = Simulator()
        assert sim.timeout(1.5).name == "timeout(1.5)"
        assert sim.event("plain").name == "plain"
        assert sim.event().name == ""
        resource = Resource(sim, 4, name="node0.cores")
        assert resource.acquire(2).name == "node0.cores.acquire(2)"

        def named():
            yield sim.timeout(0)

        assert sim.process(named()).name == "named"
        assert sim.process(named(), name=("xfer {}->{}", "a", "b")).name == "xfer a->b"

    def test_errors_still_print_the_name(self):
        sim = Simulator()
        event = sim.timeout(2.0)
        sim.run()
        with pytest.raises(SimulationError, match=r"'timeout\(2\.0\)' already"):
            event.succeed()
        resource = Resource(sim, 1, name="r")
        resource.acquire(1)
        with pytest.raises(SimulationError, match=r"deadlock.*'r\.acquire\(1\)'"):
            sim.run_until(resource.acquire(1))
