"""Tests for ``repro.analysis``: the lock-order race detector and the
repo-invariant linter.

Every intentional deadlock here is reconstructed against a *private*
:class:`LockTracker` (via ``tracking(...)``), so a suite-wide ``--race``
tracker only ever sees the real system's behavior and its per-test
clean check stays meaningful.
"""

from __future__ import annotations

import collections
import threading
from pathlib import Path

import pytest

from repro.analysis import sync
from repro.analysis.lint import lint_source, lint_tree, main
from repro.analysis.sync import (
    DeadlockError,
    LockTracker,
    TrackedCondition,
    TrackedLock,
    TrackedRLock,
    current_tracker,
    tracking,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# The pass-through contract: disabled tracking costs nothing


class TestPassthrough:
    """``--race`` installs a tracker for the whole run; these tests
    uninstall it for their own bodies, so they run under it too."""

    def test_disabled_factories_return_raw_primitives(self, monkeypatch):
        """Without a tracker the factories ARE ``threading`` - the
        zero-overhead-when-off contract (the NULL_OBS of locks)."""
        monkeypatch.setattr(sync, "_current", None)
        assert type(TrackedLock()) is type(threading.Lock())
        assert type(TrackedRLock()) is type(threading.RLock())
        assert isinstance(TrackedCondition(), threading.Condition)

    def test_tracked_condition_over_raw_lock_stays_raw(self, monkeypatch):
        monkeypatch.setattr(sync, "_current", None)
        lock = threading.Lock()
        cond = TrackedCondition(lock)
        assert isinstance(cond, threading.Condition)

    def test_tracking_context_installs_and_restores(self):
        before = current_tracker()
        with tracking() as t:
            assert current_tracker() is t
            lock = TrackedLock("scoped")
            assert repr(lock).startswith("<TrackedLock scoped#")
        assert current_tracker() is before


# ----------------------------------------------------------------------
# Lock-order inversion detection


class TestInversionDetection:
    def test_abba_cycle_detected_with_both_stacks(self):
        t = LockTracker()
        a, b = t.lock("A"), t.lock("B")
        with a:
            with b:
                pass
        with b:
            with a:  # closes the cycle: B held, A acquired
                pass
        report = t.report()
        assert len(report.cycles) == 1
        cycle = report.cycles[0]
        assert {n.split("#")[0] for n in cycle.names} == {"A", "B"}
        # Both stacks: the closing acquisition and the stored first edge.
        assert len(cycle.stacks) == 2
        text = report.format()
        assert text.count("test_analysis.py") >= 2
        assert "lock-order inversion" in text

    def test_consistent_order_is_clean(self):
        t = LockTracker()
        a, b, c = t.lock("A"), t.lock("B"), t.lock("C")
        for _ in range(3):
            with a:
                with b:
                    with c:
                        pass
            with a:
                with c:
                    pass
        assert t.report().clean

    def test_transitive_cycle_through_three_locks(self):
        t = LockTracker()
        a, b, c = t.lock("A"), t.lock("B"), t.lock("C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass
        report = t.report()
        assert len(report.cycles) == 1
        names = {n.split("#")[0] for n in report.cycles[0].names}
        assert names == {"A", "B", "C"}
        # three edges in the cycle, each with its stack
        assert len(report.cycles[0].stacks) == 3

    def test_duplicate_cycles_reported_once(self):
        t = LockTracker()
        a, b = t.lock("A"), t.lock("B")
        for _ in range(5):
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        assert len(t.report().cycles) == 1

    def test_concurrent_consistent_order_is_clean(self):
        """Real contention with a consistent order must not false-positive."""
        t = LockTracker()
        outer, inner = t.lock("outer"), t.lock("inner")
        total = [0]

        def work():
            for _ in range(200):
                with outer:
                    with inner:
                        total[0] += 1

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert total[0] == 800
        assert t.report().clean


class TestSelfDeadlock:
    def test_reacquiring_held_lock_raises_before_hanging(self):
        t = LockTracker()
        lock = t.lock("L")
        lock.acquire()
        try:
            with pytest.raises(DeadlockError):
                lock.acquire()
        finally:
            lock.release()
        assert len(t.report().cycles) == 1

    def test_try_acquire_of_held_lock_just_fails(self):
        t = LockTracker()
        lock = t.lock("L")
        with lock:
            assert lock.acquire(blocking=False) is False
        assert not t.report().cycles

    def test_rlock_reentry_is_fine(self):
        t = LockTracker()
        lock = t.rlock("R")
        with lock:
            with lock:
                assert lock._is_owned()
        assert not lock._is_owned()
        assert t.report().clean


# ----------------------------------------------------------------------
# Hold-while-blocking


def _pending_delegation():
    """A delegation to ``beta`` that nothing will settle on its own."""
    from repro.fixpoint.net import Delegation, FixpointNode

    node = FixpointNode("alpha")
    node.outstanding["beta"] = 1
    return Delegation(node, "beta", node.repo.put_blob(b"job"), ())


class TestHoldWhileBlocking:
    def test_delegation_wait_while_holding_a_lock_is_flagged(self):
        with tracking() as t:
            future = _pending_delegation()
            lock = TrackedLock("holder")
            done = threading.Event()

            def settler():
                done.wait(1.0)
                future._settle(future.encode)

            th = threading.Thread(target=settler)
            th.start()
            with lock:
                done.set()
                future.wait(timeout=1.0)
            th.join()
        report = t.report()
        assert any(e.what == "Delegation.wait" for e in report.blocking)
        assert any("holder" in h for e in report.blocking for h in e.held)

    def test_delegation_wait_on_a_settled_future_is_free(self):
        with tracking() as t:
            future = _pending_delegation()
            future._settle(future.encode)
            lock = TrackedLock("holder")
            with lock:
                assert future.wait(timeout=0) is True
        assert not t.report().blocking

    def test_channel_transit_while_holding_a_lock_is_flagged(self):
        from repro.fixpoint.net import FixpointNode

        with tracking() as t:
            a, b = FixpointNode("alpha"), FixpointNode("beta")
            channel = a.connect(b)
            channel.latency = 0.001
            lock = TrackedLock("holder")
            with lock:
                channel.transit()
        assert any(
            e.what == "Channel.transit" for e in t.report().blocking
        )

    def test_condition_wait_exempts_its_own_lock(self):
        with tracking() as t:
            cond = TrackedCondition(name="C")
            with cond:
                cond.wait(timeout=0.01)
        assert t.report().clean

    def test_condition_wait_flags_other_held_locks(self):
        with tracking() as t:
            other = TrackedLock("other")
            cond = TrackedCondition(name="C")
            with other:
                with cond:
                    cond.wait(timeout=0.01)
        blocking = t.report().blocking
        assert any(
            e.what == "Condition.wait"
            and any("other" in h for h in e.held)
            for e in blocking
        )
        # the condition's own lock never appears as held
        assert not any("C#" in h for e in blocking for h in e.held)


# ----------------------------------------------------------------------
# The historical deadlocks, reconstructed in miniature


class TestHistoricalDeadlocks:
    def test_pr4_dispatch_wedge_skeleton(self):
        """PR 4's one-worker dispatch deadlock, as its lock-order core.

        The bug: a dispatcher assigned a wire sequence number (frame k)
        and was preempted before spawning the serve task, so the peer's
        only worker picked up frame k+1 first and parked in the delivery
        window waiting for frame k - whose serve task was queued *behind*
        it on the very worker it occupied.  Skeleton: the worker slot
        and the frame-k delivery turn are two resources acquired in
        opposite orders by the dispatcher and the worker.  The fix
        (spawn inside the dispatch lock) makes queue order match wire
        order, i.e. imposes one global acquisition order.
        """
        t = LockTracker()
        worker_slot = t.lock("peer-worker-slot")
        frame_k_turn = t.lock("frame-k-delivery-turn")
        # The serve task for frame k: owns its delivery turn, needs the
        # worker slot to run.
        with frame_k_turn:
            with worker_slot:
                pass
        # The wedged interleaving: the worker, already occupied by frame
        # k+1, parks in the delivery window waiting for frame k's turn.
        with worker_slot:
            with frame_k_turn:
                pass
        report = t.report()
        assert len(report.cycles) == 1
        names = {n.split("#")[0] for n in report.cycles[0].names}
        assert names == {"peer-worker-slot", "frame-k-delivery-turn"}

    def test_pr5_double_dial_skeleton(self):
        """PR 5's concurrent-connect race, as its lock-order core.

        The bug: two threads (or both endpoints) racing to link the
        same pair each minted a Channel, splitting the pair's sequence
        space.  A per-node-lock fix would have been the classic ABBA:
        ``alpha.connect(beta)`` takes alpha-then-beta while
        ``beta.connect(alpha)`` takes beta-then-alpha.  The detector
        sees that inversion immediately - which is exactly why the real
        fix is one process-wide topology lock, not nested node locks.
        """
        t = LockTracker()
        alpha = t.rlock("alpha.peers")
        beta = t.rlock("beta.peers")
        with alpha:  # alpha.connect(beta)
            with beta:
                pass
        with beta:  # beta.connect(alpha), concurrently
            with alpha:
                pass
        report = t.report()
        assert len(report.cycles) == 1
        names = {n.split("#")[0] for n in report.cycles[0].names}
        assert names == {"alpha.peers", "beta.peers"}

    def test_topology_lock_discipline_stays_clean(self):
        """The *actual* fixed code path: concurrent dials of one pair
        from both ends share one channel and produce no inversion."""
        from repro.fixpoint.net import FixpointNode

        with tracking() as t:
            a, b = FixpointNode("alpha"), FixpointNode("beta")
            channels = []

            def dial(x, y):
                channels.append(x.connect(y))

            # Bounded joins: a regression to nested node locks deadlocks
            # for real, and must fail with the inversion, not hang.
            t1 = threading.Thread(target=dial, args=(a, b), daemon=True)
            t2 = threading.Thread(target=dial, args=(b, a), daemon=True)
            t1.start(); t2.start(); t1.join(10); t2.join(10)
        report = t.report()
        assert not report.cycles, report.format()
        assert not report.blocking, report.format()
        assert channels[0] is channels[1]


# ----------------------------------------------------------------------
# The linter


def _violations(source: str, relpath: str = "src/repro/fixpoint/x.py"):
    return lint_source(source, relpath)


class TestLinter:
    def test_src_tree_is_clean(self):
        violations = lint_tree([SRC])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_wall_clock_in_sim_clocked_module(self):
        bad = "import time\ndef f():\n    return time.time()\n"
        out = _violations(bad, "src/repro/sim/engine.py")
        assert [v.rule for v in out] == ["wall-clock"]
        assert out[0].line == 3
        # the same source outside a sim-clocked path is fine
        assert _violations(bad, "src/repro/baselines/x.py") == []

    def test_datetime_now_in_sim_clocked_module(self):
        bad = "import datetime\nx = datetime.datetime.now()\n"
        assert [
            v.rule for v in _violations(bad, "src/repro/dist/engine.py")
        ] == ["wall-clock"]

    def test_unseeded_random_in_sim_clocked_module(self):
        bad = "import random\nx = random.random()\ny = random.Random()\n"
        out = _violations(bad, "src/repro/dist/gossip.py")
        assert [v.rule for v in out] == ["unseeded-random", "unseeded-random"]
        ok = "import random\nr = random.Random(42)\nx = r.random()\n"
        assert _violations(ok, "src/repro/dist/gossip.py") == []

    def test_from_random_import_in_sim_clocked_module(self):
        bad = "from random import choice\n__all__ = ['choice']\n"
        assert [
            v.rule for v in _violations(bad, "src/repro/sim/cluster.py")
        ] == ["unseeded-random"]

    def test_wall_clock_alias_forms_are_seen_through(self):
        # each of these used to evade the rule: it matched the dotted
        # ``time.X`` spelling only, so importing the name (or aliasing
        # the module) laundered the call
        forms = [
            "from time import monotonic\nx = monotonic()\n",
            "from time import perf_counter as pc\nx = pc()\n",
            "import time as t\nx = t.monotonic()\n",
            "from datetime import datetime as dt\nx = dt.now()\n",
        ]
        for src in forms:
            out = _violations(src, "src/repro/sim/engine.py")
            assert [v.rule for v in out] == ["wall-clock"], src
            # outside sim-clocked paths the same spelling stays legal
            assert _violations(src, "src/repro/fixpoint/x.py") == [], src
        # the message names the canonical target, not just the alias
        out = _violations(
            "import time as t\nx = t.monotonic()\n", "src/repro/sim/engine.py"
        )
        assert "time.monotonic" in out[0].message

    @pytest.mark.parametrize(
        "name",
        [
            "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
            "thread_time", "thread_time_ns", "clock_gettime",
            "clock_gettime_ns",
        ],
    )
    @pytest.mark.parametrize(
        "form",
        [
            "import time\nx = time.{}()\n",
            "from time import {} as clock\nx = clock()\n",
        ],
        ids=["plain", "aliased"],
    )
    def test_nanosecond_and_thread_clocks_are_wall_clocks(self, name, form):
        # the rule used to list only the five float-second readers, so
        # these siblings passed in a sim-clocked module unnoticed
        src = form.format(name)
        out = _violations(src, "src/repro/dist/x.py")
        assert [v.rule for v in out] == ["wall-clock"]
        assert f"time.{name}" in out[0].message
        assert _violations(src, "src/repro/fixpoint/x.py") == []

    def test_unseeded_random_alias_forms_are_seen_through(self):
        out = _violations(
            "import random as r\nx = r.random()\n", "src/repro/dist/gossip.py"
        )
        assert [v.rule for v in out] == ["unseeded-random"]
        # `from random import random as rnd` flags the import *and* the call
        out = _violations(
            "from random import random as rnd\nx = rnd()\n",
            "src/repro/dist/gossip.py",
        )
        assert [v.rule for v in out] == ["unseeded-random"] * 2
        # a seeded stream drawn through an aliased module stays legal
        ok = "import random as r\ns = r.Random(7)\nx = s.random()\n"
        assert _violations(ok, "src/repro/dist/gossip.py") == []

    def test_raw_lock_outside_analysis(self):
        bad = "import threading\nlock = threading.Lock()\n"
        out = _violations(bad, "src/repro/fixpoint/new.py")
        assert [v.rule for v in out] == ["raw-lock"]
        assert "TrackedLock" in out[0].message
        # the tracker itself is exempt
        assert _violations(bad, "src/repro/analysis/sync.py") == []

    def test_from_threading_import_lock_flagged(self):
        bad = "from threading import RLock\nlock = RLock()\n"
        assert [
            v.rule for v in _violations(bad, "src/repro/core/new.py")
        ] == ["raw-lock"]

    @pytest.mark.parametrize(
        "src",
        [
            "import time\ntime.sleep(1)\n",
            "from time import sleep as pause\npause(1)\n",
            "import time as t\nt.sleep(0)\n",
        ],
    )
    def test_sleep_anywhere_outside_analysis(self, src):
        # --race cannot see a sleep under a lock, so lint forbids it in
        # every module the tracker watches, sim-clocked or not
        for relpath in ("src/repro/fixpoint/x.py", "src/repro/sim/engine.py"):
            out = _violations(src, relpath)
            assert [v.rule for v in out] == ["sleep"], (relpath, src)
            assert "time.sleep" in out[0].message
        assert _violations(src, "src/repro/analysis/sync.py") == []

    def test_threading_event_and_thread_are_fine(self):
        ok = (
            "import threading\n"
            "e = threading.Event()\n"
            "t = threading.Thread(target=print)\n"
        )
        assert _violations(ok) == []

    def test_bare_except(self):
        bad = "try:\n    pass\nexcept:\n    pass\n"
        out = _violations(bad)
        assert [v.rule for v in out] == ["bare-except"]
        ok = "try:\n    pass\nexcept BaseException:\n    pass\n"
        assert _violations(ok) == []

    def test_unused_import(self):
        bad = (
            "import os, sys\n"
            "from typing import Dict, List as L\n"
            "import xml.dom\n"
            "def f(x: 'Dict[str, int]'):\n"
            "    return sys.argv\n"
        )
        out = _violations(bad)
        assert [(v.rule, v.line) for v in out] == [
            ("unused-import", 1), ("unused-import", 2), ("unused-import", 3),
        ]
        assert [v.message.split()[0] for v in out] == ["os", "List", "xml.dom"]
        # read anywhere, exported through __all__, a future import, or a
        # package __init__ (which imports to re-export): all fine
        ok = (
            "from __future__ import annotations\n"
            "import xml.dom\n"
            "from typing import Dict\n"
            "__all__ = ['Dict']\n"
            "def f():\n"
            "    return xml.dom\n"
        )
        assert _violations(ok) == []
        assert _violations(bad, "src/repro/fixpoint/__init__.py") == []
        skipped = "import os  # lint: skip[unused-import]\n"
        assert _violations(skipped) == []

    def test_skip_comment_suppresses_one_rule(self):
        src = "import threading\nlock = threading.Lock()  # lint: skip[raw-lock]\n"
        assert _violations(src) == []
        wrong = "import threading\nlock = threading.Lock()  # lint: skip[bare-except]\n"
        assert [v.rule for v in _violations(wrong)] == ["raw-lock"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        dirty = tmp_path / "repro" / "sim"
        dirty.mkdir(parents=True)
        bad = dirty / "bad.py"
        bad.write_text("import time\nnow = time.time()\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out
        assert main([str(tmp_path / "missing")]) == 2

    def test_syntax_error_is_a_violation_not_a_crash(self):
        out = _violations("def broken(:\n")
        assert [v.rule for v in out] == ["syntax"]


# ----------------------------------------------------------------------
# ObjectView lock-discipline stress (hypothesis-driven)


@pytest.mark.stress
class TestObjectViewLockDiscipline:
    """Four threads hammer one shared :class:`ObjectView` (plus a peer
    for ``exchange``) with a hypothesis-generated op mix, under a private
    lock tracker: the RLock held across both passes of ``bid`` - the
    placement path, with an unshippable key as the executing runtime
    passes it - must produce no lock-order inversion, no
    hold-while-blocking event, and per-location counts that never
    disagree with the forward location map.
    """

    THREADS = 4

    @staticmethod
    def _ops():
        from hypothesis import strategies as st

        names = st.integers(min_value=0, max_value=15)
        locations = st.sampled_from(["n0", "n1", "n2"])
        learn = st.tuples(
            st.just("learn"), names, locations,
            st.integers(min_value=1, max_value=4096),
        )
        forget = st.tuples(st.just("forget"), names, locations)
        exchange = st.tuples(st.just("exchange"))
        price = st.tuples(st.just("price"), names, names)
        return st.lists(
            st.one_of(learn, forget, exchange, price),
            min_size=16,
            max_size=120,
        )

    @staticmethod
    def _apply(view, peer, op):
        from repro.dist.gossip import Participant, exchange

        kind = op[0]
        if kind == "learn":
            view.learn(op[1], op[2], size=op[3])
        elif kind == "forget":
            view.forget(op[1], op[2])
        elif kind == "exchange":
            exchange(Participant(view), Participant(peer))
        elif kind == "price":
            view.bid(
                [(op[1], 1024), (op[2], 0)],
                dict.fromkeys(["n0", "n1", "n2"]),
                unshippable=[op[2]],
            )

    @staticmethod
    def _assert_index_consistent(view):
        """Each location's count is the number of names the forward map
        places there, and no count is zero (a ``Counter`` holds none)."""
        with view._lock:
            placed = dict(
                collections.Counter(
                    loc for locs in view._locations.values() for loc in locs
                )
            )
            assert view._counts == placed

    def test_concurrent_ops_keep_discipline(self):
        from hypothesis import HealthCheck, given, settings

        @given(ops=self._ops())
        @settings(
            max_examples=20,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        def run(ops):
            from repro.dist.objectview import ObjectView

            with tracking() as t:
                view = ObjectView("stress")
                peer = ObjectView("peer")
                errors = []

                def worker(slice_index):
                    try:
                        for op in ops[slice_index :: self.THREADS]:
                            self._apply(view, peer, op)
                    except BaseException as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(self.THREADS)
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                    assert not th.is_alive(), "stress threads deadlocked"
                assert not errors, f"stress op died: {errors[0]!r}"
                self._assert_index_consistent(view)
                self._assert_index_consistent(peer)
            report = t.report()
            assert not report.cycles, report.format()
            assert not report.blocking, report.format()

        run()
