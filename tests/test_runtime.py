"""Integration tests for the Fixpoint runtime: the paper's figs. 2-3."""

from __future__ import annotations

import collections
import gc
import threading
import time
import weakref

import pytest

from repro.codelets.stdlib import blob_int, int_blob
from repro.core.errors import NotAFunctionError, ResourceLimitError
from repro.core.limits import ResourceLimits
from repro.core.thunks import make_application, make_identification, strict
from repro.fixpoint import runtime as runtime_module
from repro.fixpoint.jobs import Job
from repro.fixpoint.runtime import Fixpoint


def fib_reference(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestTrivialFunctions:
    def test_add_u8(self, fixpoint):
        a = fixpoint.repo.put_blob(int_blob(200, 1))
        b = fixpoint.repo.put_blob(int_blob(100, 1))
        result = fixpoint.run(fixpoint.stdlib["add_u8"], [a, b])
        assert blob_int(fixpoint.repo.get_blob(result).data) == (200 + 100) % 256

    def test_identity(self, fixpoint):
        arg = fixpoint.repo.put_blob(b"v" * 64)
        result = fixpoint.run(fixpoint.stdlib["identity"], [arg])
        assert result.content_key() == arg.content_key()

    def test_increment(self, fixpoint):
        arg = fixpoint.repo.put_blob(int_blob(41))
        result = fixpoint.run(fixpoint.stdlib["increment"], [arg])
        assert blob_int(fixpoint.repo.get_blob(result).data) == 42


class TestIfProcedure:
    """Paper fig. 2: lazy branch selection - the untaken branch never runs."""

    def _run_if(self, fixpoint, predicate: bool):
        repo = fixpoint.repo
        bomb = fixpoint.compile(
            "def _fix_apply(fix, input):\n    raise ValueError('branch ran')",
            "bomb",
        )
        value = repo.put_blob(int_blob(7))
        taken = make_application(repo, fixpoint.stdlib["identity"], [value])
        not_taken = make_application(repo, bomb, [])
        pred = repo.put_blob(b"\x01" if predicate else b"\x00")
        # if-tree: [rlimit, if, pred, a, b]; a runs when pred is true.
        a = taken if predicate else not_taken
        b = not_taken if predicate else taken
        thunk = fixpoint.invoke(fixpoint.stdlib["if"], [pred, a, b])
        return fixpoint.eval(thunk.wrap_strict()), value

    def test_true_branch(self, fixpoint):
        result, value = self._run_if(fixpoint, True)
        assert blob_int(fixpoint.repo.get_blob(result).data) == 7

    def test_false_branch(self, fixpoint):
        result, value = self._run_if(fixpoint, False)
        assert blob_int(fixpoint.repo.get_blob(result).data) == 7

    def test_untaken_branch_never_invoked(self, fixpoint):
        self._run_if(fixpoint, True)
        assert fixpoint.trace.invocation_count("bomb") == 0


class TestFibonacci:
    """Paper fig. 3: recursion via thunks and a tail call to add."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 15])
    def test_fib(self, fixpoint, n):
        x = fixpoint.repo.put_blob(int_blob(n))
        thunk = fixpoint.invoke(fixpoint.stdlib["fib"], [fixpoint.stdlib["add"], x])
        result = fixpoint.eval(thunk.wrap_strict())
        assert blob_int(fixpoint.repo.get_blob(result).data) == fib_reference(n)

    def test_memoization_collapses_call_tree(self, fixpoint):
        x = fixpoint.repo.put_blob(int_blob(20))
        thunk = fixpoint.invoke(fixpoint.stdlib["fib"], [fixpoint.stdlib["add"], x])
        fixpoint.eval(thunk.wrap_strict())
        # Without content-addressed memoization fib(20) needs ~22k calls;
        # with it, one invocation per distinct n plus the adds.
        assert fixpoint.trace.invocation_count("fib") == 21

    def test_parallel_matches_sequential(self, parallel_fixpoint):
        fp = parallel_fixpoint
        x = fp.repo.put_blob(int_blob(14))
        thunk = fp.invoke(fp.stdlib["fib"], [fp.stdlib["add"], x])
        result = fp.eval(thunk.wrap_strict())
        assert blob_int(fp.repo.get_blob(result).data) == fib_reference(14)


class TestTailCalls:
    def test_long_chain_does_not_overflow(self, fixpoint):
        """A 600-deep tail-call chain (continuation-passing countdown)."""
        source = (
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    n = int.from_bytes(fix.read_blob(entries[2]), 'little')\n"
            "    if n == 0:\n"
            "        return fix.create_blob((0).to_bytes(8, 'little'))\n"
            "    arg = fix.create_blob((n - 1).to_bytes(8, 'little'))\n"
            "    tree = fix.create_tree([entries[0], entries[1], arg])\n"
            "    return fix.application(tree)\n"
        )
        countdown = fixpoint.compile(source, "countdown")
        arg = fixpoint.repo.put_blob(int_blob(600))
        result = fixpoint.run(countdown, [arg])
        assert blob_int(fixpoint.repo.get_blob(result).data) == 0
        assert fixpoint.trace.invocation_count("countdown") == 601


class TestRuntimeBehaviour:
    def test_non_codelet_function_slot(self, fixpoint):
        not_code = fixpoint.repo.put_blob(b"just bytes" * 10)
        with pytest.raises(NotAFunctionError):
            fixpoint.run(not_code, [])

    def test_memory_limit_propagates(self, fixpoint):
        source = (
            "def _fix_apply(fix, input):\n"
            "    return fix.create_blob(bytes(1000))\n"
        )
        hog = fixpoint.compile(source, "hog")
        with pytest.raises(ResourceLimitError):
            fixpoint.run(hog, [], limits=ResourceLimits(memory_bytes=500))

    def test_identification_of_ref_performs_io(self, fixpoint):
        """The runtime, not the function, resolves a Ref dependency."""
        repo = fixpoint.repo
        secret = repo.put_blob(b"secret" * 20)
        reader = fixpoint.compile(
            "def _fix_apply(fix, input):\n"
            "    entries = fix.read_tree(input)\n"
            "    data = fix.read_blob(entries[2])\n"
            "    return fix.create_blob(data[:6])\n",
            "reader",
        )
        io_request = strict(make_identification(secret.as_ref()))
        thunk = fixpoint.invoke(reader, [io_request])
        result = fixpoint.eval(thunk.wrap_strict())
        assert repo.get_blob(result).data == b"secret"

    def test_double_close_is_safe(self):
        fp = Fixpoint(workers=2)
        fp.close()
        fp.close()


class TestSpawnAndTasks:
    """Spawned tasks: how delegations are served and siblings forked."""

    def test_spawn_with_a_pool_runs_on_a_serve_thread(self):
        with Fixpoint(workers=2) as fx:
            done = threading.Event()
            names = []

            def task():
                names.append(threading.current_thread().name)
                done.set()

            fx.spawn(task)
            assert done.wait(5)
            assert names == ["fixpoint-serve"]

    def test_spawn_without_pool_uses_a_thread(self):
        fx = Fixpoint(workers=0)
        done = threading.Event()
        fx.spawn(done.set)
        assert done.wait(5)


SUM_SOURCE = (
    "def _fix_apply(fix, input):\n"
    "    total = 0\n"
    "    for entry in fix.read_tree(input)[2:]:\n"
    "        total += int.from_bytes(fix.read_blob(entry), 'little')\n"
    "    return fix.create_blob(total.to_bytes(8, 'little'))\n"
)


class _Siblings(Fixpoint):
    """A runtime whose leaf Encodes (``increment(v)``) are counted per
    argument, on and off the caller's thread, and run ``on_leaf(v)``
    just before they apply."""

    def __init__(self, workers: int):
        super().__init__(workers=workers)
        self.sum = self.compile(SUM_SOURCE, "sum")
        self.applied = collections.Counter()
        self.forked = collections.Counter()
        self.on_leaf = lambda value: None
        self._count = threading.Lock()

    def leaf(self, value):
        arg = self.repo.put_blob(int_blob(value))
        return self.invoke(self.stdlib["increment"], [arg]).wrap_strict()

    def join(self, children):
        return self.invoke(self.sum, children).wrap_strict()

    def value(self, encode) -> int:
        return blob_int(self.repo.get_blob(self.eval(encode)).data)

    def _apply(self, evaluator, resolved, invocation):
        if invocation.function == self.stdlib["increment"]:
            arg = self.repo.get_tree(resolved)[2]
            value = blob_int(self.repo.get_blob(arg).data)
            with self._count:
                self.applied[value] += 1
                if threading.current_thread().name == "fixpoint-serve":
                    self.forked[value] += 1
            self.on_leaf(value)
        return super()._apply(evaluator, resolved, invocation)


def _in_background(fn):
    """Run ``fn`` on a thread of its own; returns (thread, outcome list)."""
    outcome = []
    thread = threading.Thread(
        target=lambda: outcome.append(fn()), daemon=True
    )
    thread.start()
    return thread, outcome


class TestForksNeverQueue:
    """Sibling Encodes fork onto serve threads while one of ``workers``
    slots is free and run on the caller's thread otherwise: nothing
    queues, polls or waits for a thread."""

    def test_at_most_workers_siblings_run_off_the_caller(self):
        fx = _Siblings(workers=2)
        entered, gate = threading.Semaphore(0), threading.Event()
        caller = threading.current_thread()

        def on_leaf(value):
            if threading.current_thread() is caller:
                if value == 0:
                    # Both forks are blocked in flight at once.
                    assert all(entered.acquire(timeout=5) for _ in range(2))
                    gate.set()
            else:
                entered.release()
                assert gate.wait(5)

        fx.on_leaf = on_leaf
        total = fx.value(fx.join([fx.leaf(v) for v in range(5)]))
        assert total == sum(v + 1 for v in range(5))
        assert sum(fx.forked.values()) == 2
        assert sum(fx.applied.values()) == 5

    def test_every_sibling_is_applied_once(self, monkeypatch):
        fx = _Siblings(workers=4)
        entered, parent_waits = threading.Semaphore(0), threading.Event()
        caller = threading.current_thread()
        real_wait = Job.wait

        def wait(job, timeout=None):
            if threading.current_thread() is caller:
                parent_waits.set()
            return real_wait(job, timeout)

        def on_leaf(value):
            if threading.current_thread() is caller:
                if value == 0:
                    # Every fork is past its memo check and blocked.
                    assert all(entered.acquire(timeout=5) for _ in range(4))
            else:
                entered.release()
                assert parent_waits.wait(5)

        monkeypatch.setattr(Job, "wait", wait)
        fx.on_leaf = on_leaf
        total = fx.value(fx.join([fx.leaf(v) for v in range(5)]))
        assert total == sum(v + 1 for v in range(5))
        assert fx.applied == {v: 1 for v in range(5)}
        assert fx.forked == {v: 1 for v in range(1, 5)}

    def test_a_nested_fork_join_at_one_worker_finishes(self):
        fx = _Siblings(workers=1)
        left = fx.join([fx.leaf(1), fx.leaf(2)])
        right = fx.join([fx.leaf(3), fx.leaf(4)])
        thread, outcome = _in_background(
            lambda: fx.value(fx.join([left, right]))
        )
        thread.join(10)
        assert outcome == [2 + 3 + 4 + 5]
        assert fx.applied == {v: 1 for v in range(1, 5)}

    def test_a_failing_fork_raises_in_the_parent_and_frees_its_slot(self):
        fx = _Siblings(workers=1)

        def on_leaf(value):
            if value == 2:
                raise RuntimeError("boom")

        fx.on_leaf = on_leaf
        with pytest.raises(RuntimeError, match="boom"):
            fx.value(fx.join([fx.leaf(1), fx.leaf(2)]))
        assert fx.forked[2] == 1
        # The slot is back: the next fork/join forks again.
        assert fx.value(fx.join([fx.leaf(3), fx.leaf(4)])) == 4 + 5
        assert fx.forked[4] == 1

    def test_a_pooled_runtime_starts_no_thread(self):
        before = set(threading.enumerate())
        fx = Fixpoint(workers=4)
        assert set(threading.enumerate()) <= before
        fx.close()

    def test_close_while_a_fork_runs_keeps_its_result(self):
        fx = _Siblings(workers=1)
        entered, gate = threading.Event(), threading.Event()

        def on_leaf(value):
            if threading.current_thread().name == "fixpoint-serve":
                entered.set()
                assert gate.wait(5)

        fx.on_leaf = on_leaf
        thread, outcome = _in_background(
            lambda: fx.value(fx.join([fx.leaf(1), fx.leaf(2)]))
        )
        assert entered.wait(5)
        fx.close()
        gate.set()
        thread.join(10)
        assert outcome == [2 + 3]


def _await(predicate, within=5.0):
    """Poll ``predicate`` until it holds or ``within`` seconds pass."""
    deadline = time.monotonic() + within
    while not predicate():
        if time.monotonic() > deadline:
            return False
        gc.collect()
        time.sleep(0.005)
    return True


class TestServeThreadsAreReused:
    """A sequential runtime serves on parked ``fixpoint-serve`` threads
    when one is idle, and on a new thread at once when none is."""

    def test_awaited_spawns_run_on_one_thread(self):
        fx = Fixpoint(workers=0, with_stdlib=False)
        seen = []
        for _ in range(50):
            done = threading.Event()

            def task(done=done):
                seen.append(threading.current_thread())
                done.set()

            fx.spawn(task)
            assert done.wait(5)
            # Awaited means parked again, not just finished.
            assert _await(lambda: len(fx._serve._idle) == 1)
        assert len(set(map(id, seen))) == 1
        assert seen[0].name == "fixpoint-serve"
        fx.close()

    def test_concurrent_tasks_never_queue(self):
        fx = Fixpoint(workers=0, with_stdlib=False)
        warm = threading.Event()
        fx.spawn(warm.set)  # one parked thread to hand a task to
        assert warm.wait(5)
        barrier = threading.Barrier(8, timeout=5)
        threads, finished = [], []

        def task():
            threads.append(threading.current_thread())
            barrier.wait()
            finished.append(True)

        for _ in range(8):
            fx.spawn(task)
        assert _await(lambda: len(finished) == 8, within=10.0)
        assert len(set(map(id, threads))) == 8
        assert {t.name for t in threads} == {"fixpoint-serve"}
        fx.close()

    def test_a_raising_task_ends_its_thread(self, monkeypatch):
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        fx = Fixpoint(workers=0, with_stdlib=False)
        threads = []

        def boom():
            threads.append(threading.current_thread())
            raise RuntimeError("boom")

        fx.spawn(boom)
        assert _await(lambda: len(raised) == 1)
        threads[0].join(5.0)
        assert not threads[0].is_alive()
        assert isinstance(raised[0].exc_value, RuntimeError)
        assert raised[0].thread is threads[0]
        done = threading.Event()
        fx.spawn(lambda: (threads.append(threading.current_thread()),
                          done.set()))
        assert done.wait(5)
        assert threads[1] is not threads[0]
        fx.close()

    def test_an_idle_thread_exits_and_is_not_handed_work(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "_SERVE_IDLE_S", 0.05)
        fx = Fixpoint(workers=0, with_stdlib=False)
        threads = []
        for _ in range(2):
            done = threading.Event()
            fx.spawn(lambda done=done: (
                threads.append(threading.current_thread()), done.set()))
            assert done.wait(5)
            threads[-1].join(5.0)
            assert not threads[-1].is_alive()
            assert fx._serve._idle == []
        assert threads[0] is not threads[1]
        fx.close()

    def test_close_releases_parked_threads(self, monkeypatch):
        # Far longer than the join bound: only close() can end them.
        monkeypatch.setattr(runtime_module, "_SERVE_IDLE_S", 60.0)
        fx = Fixpoint(workers=0, with_stdlib=False)
        barrier = threading.Barrier(4, timeout=5)
        threads = []

        def task():
            threads.append(threading.current_thread())
            barrier.wait()

        for _ in range(4):
            fx.spawn(task)
        assert _await(lambda: len(fx._serve._idle) == 4)
        fx.close()
        for thread in threads:
            thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        # After close a task still runs, on a thread that does not park.
        done = threading.Event()
        late = []
        fx.spawn(lambda: (late.append(threading.current_thread()),
                          done.set()))
        assert done.wait(5)
        late[0].join(5.0)
        assert not late[0].is_alive()
        assert late[0].name == "fixpoint-serve"

    def test_a_parked_thread_drops_its_finished_task(self, monkeypatch):
        # Far longer than the poll bound: the thread stays parked.
        monkeypatch.setattr(runtime_module, "_SERVE_IDLE_S", 60.0)
        fx = Fixpoint(workers=0, with_stdlib=False)
        done = threading.Event()

        def task():
            done.set()

        ref = weakref.ref(task)
        fx.spawn(task)
        del task
        assert done.wait(5)
        assert _await(lambda: len(fx._serve._idle) == 1)
        assert _await(lambda: ref() is None)
        fx.close()
