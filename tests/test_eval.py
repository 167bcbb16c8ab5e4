"""Tests for the Fix evaluator: forcing rules, encodes, memoization."""

from __future__ import annotations

import collections
import os
import subprocess
import sys
import threading
import traceback
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codelets.stdlib import blob_int, int_blob
from repro.core.errors import EvaluationError, SelectionError
from repro.core.eval import Evaluator
from repro.core.handle import Handle, ThunkStyle
from repro.core.storage import Repository
from repro.core.thunks import (
    make_application,
    make_identification,
    make_selection,
    make_selection_range,
    pack_index,
    shallow,
    strict,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def ev(repo):
    return Evaluator(repo)


class TestIdentification:
    def test_strict_identification_yields_object(self, repo, ev):
        value = repo.put_blob(b"v" * 64)
        result = ev.eval_encode(strict(make_identification(value.as_ref())))
        assert result.is_object
        assert result.key == value.key

    def test_shallow_identification_yields_ref(self, repo, ev):
        value = repo.put_blob(b"v" * 64)
        result = ev.eval_encode(shallow(make_identification(value)))
        assert result.is_ref
        assert result.key == value.key

    def test_shallow_of_literal_stays_literal(self, repo, ev):
        value = repo.put_blob(b"tiny")
        result = ev.eval_encode(shallow(make_identification(value)))
        assert result.is_literal  # literals cannot be hidden


class TestSelection:
    def test_select_tree_child(self, repo, ev):
        a = repo.put_blob(b"a" * 64)
        b = repo.put_blob(b"b" * 64)
        target = repo.put_tree([a, b])
        result = ev.eval_encode(strict(make_selection(repo, target, 1)))
        assert result.key == b.key

    def test_select_tree_range_makes_subtree(self, repo, ev):
        children = [repo.put_blob(bytes([i]) * 64) for i in range(5)]
        target = repo.put_tree(children)
        result = ev.eval_encode(strict(make_selection_range(repo, target, 1, 4)))
        sub = repo.get_tree(result)
        assert list(sub) == children[1:4]

    def test_select_blob_byte(self, repo, ev):
        target = repo.put_blob(b"0123456789" * 7)
        result = ev.eval_encode(strict(make_selection(repo, target, 3)))
        assert repo.get_blob(result).data == b"3"

    def test_select_blob_range(self, repo, ev):
        target = repo.put_blob(b"0123456789" * 7)
        result = ev.eval_encode(strict(make_selection_range(repo, target, 0, 10)))
        assert repo.get_blob(result).data == b"0123456789"

    def test_out_of_range(self, repo, ev):
        target = repo.put_tree([repo.put_blob(b"a" * 64)])
        with pytest.raises(SelectionError):
            ev.eval_encode(strict(make_selection(repo, target, 5)))

    def test_selection_through_thunk_target(self, repo, ev):
        inner_child = repo.put_blob(b"deep" * 20)
        inner = repo.put_tree([inner_child])
        outer = repo.put_tree([repo.put_blob(b"pad" * 30), inner])
        first = make_selection(repo, outer, 1)  # forces to the inner tree
        chained = repo.put_tree([first, pack_index(0)]).make_selection()
        result = ev.eval_encode(strict(chained))
        assert result.key == inner_child.key

    def test_selection_returns_child_asis_even_if_ref(self, repo, ev):
        hidden = repo.put_blob(b"h" * 64).as_ref()
        target = repo.put_tree([hidden])
        result = ev.eval_encode(shallow(make_selection(repo, target, 0)))
        assert result.is_ref

    @given(st.lists(st.binary(min_size=31, max_size=40), min_size=1, max_size=8), st.data())
    def test_selection_matches_python_indexing(self, payloads, data):
        repo = Repository()
        ev = Evaluator(repo)
        children = [repo.put_blob(p) for p in payloads]
        target = repo.put_tree(children)
        index = data.draw(st.integers(min_value=0, max_value=len(children) - 1))
        result = ev.eval_encode(strict(make_selection(repo, target, index)))
        assert result.key == children[index].key


class TestStrictDeepResolution:
    def test_nested_encode_in_tree_is_resolved(self, repo, ev):
        value = repo.put_blob(b"v" * 64)
        encode = strict(make_identification(value.as_ref()))
        tree = repo.put_tree([encode, repo.put_blob(b"w" * 64)])
        result = ev.eval(tree)
        resolved = repo.get_tree(result)
        assert resolved[0].is_object
        assert resolved[0].key == value.key

    def test_ref_entries_are_preserved(self, repo, ev):
        ref = repo.put_blob(b"r" * 64).as_ref()
        tree = repo.put_tree([ref])
        result = ev.eval(tree)
        assert repo.get_tree(result)[0].is_ref

    def test_plain_blob_eval_is_identity(self, repo, ev):
        value = repo.put_blob(b"p" * 64)
        assert ev.eval(value) == value

    def test_unchanged_tree_keeps_handle(self, repo, ev):
        tree = repo.put_tree([repo.put_blob(b"a" * 64)])
        assert ev.eval(tree).key == tree.key

    def test_nested_tree_resolution(self, repo, ev):
        value = repo.put_blob(b"n" * 64)
        inner = repo.put_tree([strict(make_identification(value.as_ref()))])
        outer = repo.put_tree([inner])
        result = ev.eval(outer)
        inner_resolved = repo.get_tree(repo.get_tree(result)[0])
        assert inner_resolved[0].key == value.key


class _CountingEvaluator(Evaluator):
    """Counts the thunks it steps, by style: a memo hit steps none."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = collections.Counter()

    def _step(self, thunk, depth):
        self.steps[thunk.thunk_style] += 1
        return super()._step(thunk, depth)


class TestMemoization:
    def test_encode_result_is_memoized(self, repo):
        ev = _CountingEvaluator(repo)
        value = repo.put_blob(b"m" * 64)
        encode = strict(make_identification(value))
        first = ev.eval_encode(encode)
        assert ev.steps == {ThunkStyle.IDENTIFICATION: 1}
        second = ev.eval_encode(encode)
        assert first == second
        assert ev.steps == {ThunkStyle.IDENTIFICATION: 1}

    def test_memoization_shared_across_evaluators(self, repo):
        value = repo.put_blob(b"s" * 64)
        encode = strict(make_identification(value))
        first = Evaluator(repo).eval_encode(encode)
        ev2 = _CountingEvaluator(repo)
        assert ev2.eval_encode(encode) == first
        assert not ev2.steps

    def test_memoize_false_recomputes(self, repo):
        ev = _CountingEvaluator(repo, memoize=False)
        value = repo.put_blob(b"n" * 64)
        encode = strict(make_identification(value))
        ev.eval_encode(encode)
        ev.eval_encode(encode)
        assert ev.steps == {ThunkStyle.IDENTIFICATION: 2}

    def test_determinism(self, repo):
        value = repo.put_blob(b"d" * 64)
        encode = strict(make_identification(value.as_ref()))
        results = {Evaluator(repo).eval_encode(encode) for _ in range(3)}
        assert len(results) == 1


class TestErrors:
    def test_application_without_apply_hook(self, repo, ev):
        fn = repo.put_blob(b"f" * 64)
        thunk = repo.put_tree(
            [repo.put_blob(b"\x00" * 16), fn]
        ).make_application()
        with pytest.raises(EvaluationError):
            ev.eval_encode(strict(thunk))

    def test_eval_encode_requires_encode(self, repo, ev):
        with pytest.raises(EvaluationError):
            ev.eval_encode(repo.put_blob(b"x" * 64))

    def test_steps_counted_by_style(self, repo):
        ev = _CountingEvaluator(repo)
        value = repo.put_blob(b"c" * 64)
        target = repo.put_tree([value])
        selected = ev.eval_encode(strict(make_selection(repo, target, 0)))
        identified = ev.eval_encode(shallow(make_identification(value)))
        assert ev.steps == {
            ThunkStyle.SELECTION: 1,
            ThunkStyle.IDENTIFICATION: 1,
        }
        assert selected.is_object
        assert selected.key == value.key
        assert identified.is_ref
        assert identified.key == value.key


class _SaveRestoreEachCall:
    """Mutant: the guard as a per-call save and restore of the limit, so
    whichever evaluation leaves first puts back what it found."""

    def __enter__(self):
        self._old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(self._old, 320_000))

    def __exit__(self, *exc):
        if sys.getrecursionlimit() > self._old:
            sys.setrecursionlimit(self._old)


def _chain(repo, length):
    """``length`` nested strict applications of one function over 0."""
    current = repo.put_blob(int_blob(0))
    function = repo.put_blob(b"increment" * 4)
    for _ in range(length):
        current = strict(make_application(repo, function, [current]))
    return current


def _shallow_leaves_under_a_deep_one():
    """Thread A evaluates one application and blocks in it; thread B
    evaluates a chain and blocks in its innermost application, deeper
    than the limit the process started with.  A is released and
    returns, then B.  Returns B's result (or what it raised), B's depth
    in frames while blocked, and the limit before and after."""
    start = sys.getrecursionlimit()
    repo = Repository()
    a_in, b_in = threading.Event(), threading.Event()
    # Plain locks as gates: their acquire is one C call, so a thread
    # released above the limit resumes in its own code, not threading's.
    a_gate, b_gate = threading.Lock(), threading.Lock()
    a_gate.acquire()
    b_gate.acquire()
    depth = []

    def shallow_apply(evaluator, resolved, invocation):
        a_in.set()
        assert a_gate.acquire(timeout=10)
        return invocation.args[0]

    def deep_apply(evaluator, resolved, invocation):
        if not b_in.is_set():  # the innermost application runs first
            depth.append(sum(1 for _ in traceback.walk_stack(None)))
            b_in.set()
            assert b_gate.acquire(timeout=10)
        value = blob_int(evaluator.repo.get_blob(invocation.args[0]).data)
        return evaluator.repo.put_blob(int_blob(value + 1))

    outcome = {}

    def run(name, apply_fn, encode):
        try:
            outcome[name] = Evaluator(repo, apply_fn).eval_encode(encode)
        except BaseException as exc:  # noqa: BLE001 - reported below
            outcome[name] = exc

    shallow_encode = strict(
        make_application(repo, repo.put_blob(b"f" * 64), [repo.put_blob(b"a" * 64)])
    )
    a = threading.Thread(target=run, args=("a", shallow_apply, shallow_encode))
    b = threading.Thread(target=run, args=("b", deep_apply, _chain(repo, 400)))
    a.start()
    assert a_in.wait(10)
    b.start()
    assert b_in.wait(10)
    a_gate.release()
    a.join(10)
    b_gate.release()
    b.join(10)
    result = outcome["b"]
    if isinstance(result, Handle):
        result = blob_int(repo.get_blob(result).data)
    return result, depth[0], start, sys.getrecursionlimit()


def _in_a_fresh_interpreter(guard=None):
    """Run :func:`_shallow_leaves_under_a_deep_one` in a cold
    interpreter, with ``guard`` (a name in this module) standing in for
    ``_DeepRecursion``; return its exit status and one-line report.  A
    thread running deeper than the limit can abort the interpreter, not
    just raise: a collection while its ``RecursionError`` is built runs
    finalizers past the headroom CPython allows."""
    patch = f"repro.core.eval._DeepRecursion = test_eval.{guard}" if guard else ""
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})",
        "import repro.core.eval",
        "import test_eval",
        patch,
        "result, depth, start, after = test_eval._shallow_leaves_under_a_deep_one()",
        "print(result if isinstance(result, int) else type(result).__name__,",
        "      depth > start, after == start)",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout.strip()


class TestRecursionLimitIsShared:
    """The recursion limit is process-wide, and so is the guard that
    raises it: an evaluation that leaves while another thread is still
    evaluating leaves the raised limit in place.  B runs above the limit
    the process started with, returns the chain's value, and the limit
    is back where it started once both threads are done."""

    def test_a_deep_chain_survives_a_shallow_evaluation_leaving(self):
        assert _in_a_fresh_interpreter() == (0, "400 True True")

    def test_the_check_catches_a_per_call_save_and_restore(self):
        status, report = _in_a_fresh_interpreter("_SaveRestoreEachCall")
        assert (status, report) != (0, "400 True True")
