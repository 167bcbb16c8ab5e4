"""Mutation campaign over ``dist/``'s protocol core and the wire rows
of ``core/frames.py``.

A *mutant* is a target module with one small edit inside a function
body; a test *kills* it when the test fails with the edit applied, and a
*survivor* is a mutant no test kills.  The edits:

- a comparison flipped (``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``in``/``not in``, ``is``/``is not``);
- an integer operand of a comparison or of arithmetic moved up by one;
- ``and``/``or`` swapped, or a ``not`` dropped;
- a statement replaced by ``pass``;
- a ``return`` before the function's first statement.

A mutant's id is its function's qualname, the source text before and
after the edit, and an ordinal when that pair repeats in the function,
so an id survives edits elsewhere in the file.

One baseline run of the tier-1 suite, with this file loaded as a pytest
plugin, records per test which target functions it reached on any
thread (``sys.setprofile`` and ``threading.setprofile``), which
``src/repro`` functions it called directly (the caller's frame is in
``tests/``), and its time.  Each mutant then runs only the tests that
reach its function, in a worker's own copy of ``src/`` put first on
``PYTHONPATH``; the repo is never written.  There is one worker per
core.  The plugin loads a Hypothesis profile that is derandomized,
keeps no example database and does not shrink, so a kill replays.

Verdicts: *killed* (a selected test failed), *collection* (a test
module failed to collect, such as one that calls the mutant at import,
or pytest exited 2), *timeout* (the run outlived ``TIMEOUT_FACTOR``
times its tests' baseline time plus ``STARTUP_S``), *survived*; any
other pytest exit (an internal or usage error, no tests) stops the
campaign.  A survivor ends in a test that kills it, in
:data:`EQUIVALENT` with the reason no input tells it apart, or in
deleting a statement no input tells apart from ``pass`` (safety code,
such as a check of outside input, stays).

A test is a *deletion candidate* when (a) every ``src/repro`` function
it calls directly is in a target module - one that drives the
scheduler, the runtime or a core type checks code this campaign never
mutated - (b) every mutant it kills is killed by a test that stays, and
it is not a class on CI's guard list.  Candidates are taken weakest
first (fewest kills), rechecking (b) after each; whether a candidate
asserts something no kept test asserts is for the reader to check.

Run from the repo root::

    python tools/mutants.py

It prints the survivors by function, the deletion candidates, and a
last line with the totals; it exits non-zero while a survivor is
unexplained or an ``EQUIVALENT`` entry names no survivor.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue
from typing import Dict, List, NamedTuple, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: The modules mutated, relative to ``src/repro``.
TARGETS = (
    "core/frames.py",
    "dist/costmodel.py",
    "dist/membership.py",
    "dist/gossip.py",
    "dist/objectview.py",
)
TIMEOUT_FACTOR = 3
STARTUP_S = 30
#: pytest's exit code (``None`` at the timeout) -> verdict.
_VERDICTS = {None: "timeout", 0: "survived", 1: "killed", 2: "collection"}
PYTEST = ("-q", "-m", "not bench", "-p", "no:cacheprovider", "-p", "mutants")
_GUARD = re.compile(r'"(tests/[\w/]+\.py::\w+)"')

_SHORT = (
    "a length that ends the frame leaves no fields, and the field reads "
    "refuse that too"
)
_LATER = "a later bound check breaks on every entry this one breaks on"
_EMPTY = (
    "an empty delta applies nothing and moves no cap either way; the "
    "return only skips the lock on a converged handshake"
)

#: Survivors no input tells apart from the module as written: id -> why.
EQUIVALENT = {
    "costmodel.choose: there < (moved + hint, busy, winner)"
    " -> there <= (moved + hint, busy, winner)":
        "the consumer's key and the winner's end in two names, so they "
        "are never equal",
    "membership.join_members: b.order_key() > a.order_key()"
    " -> b.order_key() >= a.order_key()":
        "equal order keys of one node are equal Members",
    "gossip.unpack_delta: offset + whole.size <= end -> offset + whole.size < end":
        "an entry that ends the frame falls from the one-struct read to "
        "the entry's own reads, which read it the same",
    "gossip.unpack_delta: at > end -> at >= end": _SHORT,
    "gossip.unpack_delta: if stamp > end: -> pass": _LATER,
    "gossip.unpack_delta: stamp > end -> stamp >= end": _LATER,
    "gossip.unpack_delta: break -> pass #2": _LATER,
    "gossip.unpack_delta: name_at > end -> name_at >= end": _LATER,
    "gossip.unpack_delta: location_at > end -> location_at >= end": _LATER,
    "gossip.unpack_delta: if flag_at > end: -> pass": _LATER,
    "gossip.unpack_delta: flag_at > end -> flag_at >= end": _LATER,
    "gossip.unpack_delta: break -> pass #6": _LATER,
    "gossip.unpack_delta: name_len = 0 -> pass":
        "name_len is read only once whole is set, and the two are set together",
    "objectview.ObjectView.merge_delta: if delta.is_empty: -> pass": _EMPTY,
    "objectview.ObjectView.merge_delta: return 0 -> pass": _EMPTY,
}

_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
    ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Mutant(NamedTuple):
    id: str
    path: str  # target, relative to src/repro
    function: str  # "path:qualname" of the function it edits
    start: Tuple[int, int]  # (line, utf-8 column) of the replaced text
    end: Tuple[int, int]
    text: str  # what replaces it


def _own_nodes(function: ast.AST):
    """The nodes of ``function``'s body, not of the functions, classes
    or f-strings nested in it (before 3.12 an f-string's parts carry no
    columns of their own)."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (*_SCOPES, ast.JoinedStr))
        )


def _edits(function: ast.AST):
    """``(node, mutated node or source text)`` for each edit of one
    function, in source order."""
    body = function.body
    first = 1 if (
        isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ) else 0
    edits = []
    if first < len(body) and not isinstance(body[first], ast.Return):
        edits.append((body[first], None))
    for node in _own_nodes(function):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _FLIP:
                    ops = [*node.ops[:i], _FLIP[type(op)](), *node.ops[i + 1:]]
                    edits.append((node, ast.Compare(node.left, ops, node.comparators)))
        elif isinstance(node, ast.BoolOp):
            swap = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            edits.append((node, ast.BoolOp(swap, node.values)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            edits.append((node, node.operand))
        if isinstance(node, (ast.Compare, ast.BinOp)):
            for field in ("left", "right", "comparators"):
                value = getattr(node, field, None)
                operands = value if isinstance(value, list) else [value]
                for j, operand in enumerate(operands):
                    if isinstance(operand, ast.Constant) and type(operand.value) is int:
                        moved = copy.copy(node)
                        bound = ast.Constant(operand.value + 1)
                        setattr(moved, field, [*operands[:j], bound, *operands[j + 1:]]
                                if isinstance(value, list) else bound)
                        edits.append((node, moved))
        if isinstance(node, ast.stmt) and not isinstance(node, ast.Pass) and not (
            first and node is body[0]
        ):
            edits.append((node, "pass"))
    edits.sort(key=lambda e: (e[0].lineno, e[0].col_offset, e[1] is not None))
    return edits


def _functions(tree: ast.AST, prefix: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _SCOPES):
            qual = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield qual, node
            yield from _functions(node, qual + ".")
        elif not isinstance(node, ast.expr):
            yield from _functions(node, prefix)


def mutants(path: str) -> List[Mutant]:
    """Every mutant of ``src/repro/<path>``, in source order."""
    tree = ast.parse((ROOT / "src" / "repro" / path).read_text())
    module = Path(path).stem
    found: List[Mutant] = []
    for qual, function in _functions(tree):
        seen: Dict[str, int] = defaultdict(int)
        for node, new in _edits(function):
            before = ast.unparse(node).splitlines()[0]
            start = (node.lineno, node.col_offset)
            if new is None:  # the early return goes in before the node
                after, end = "return", start
                text = "return\n" + " " * node.col_offset
            elif new == "pass":
                after, end, text = "pass", (node.end_lineno, node.end_col_offset), "pass"
            else:
                after = ast.unparse(new)
                end, text = (node.end_lineno, node.end_col_offset), f"({after})"
            label = f"{module}.{qual}: {before} -> {after}"
            seen[label] += 1
            if seen[label] > 1:
                label += f" #{seen[label]}"
            found.append(Mutant(label, path, f"{path}:{qual}", start, end, text))
    return found


def apply(source: bytes, mutant: Mutant) -> bytes:
    """``source`` with ``mutant``'s edit made (columns are utf-8 bytes)."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    at = starts[mutant.start[0] - 1] + mutant.start[1]
    to = starts[mutant.end[0] - 1] + mutant.end[1]
    return source[:at] + mutant.text.encode() + source[to:]


# ----------------------------------------------------------------------
# The pytest plugin: ``-p mutants`` with this directory on PYTHONPATH.
# Each test started ("R id"), test failed ("F id") and module that
# failed to collect ("C path") is a line appended to MUTANTS_LOG, so a
# run killed at its timeout still names its kills.
# MUTANTS_TRACE names the file the baseline's per-test records go to.
# With MUTANTS_FULL set, the first that many tests named on the command
# line run whatever fails, and the run stops at a failure after them.

_FAILED: Set[str] = set()
_TESTS: Dict[str, dict] = {}


def _log(line: str) -> None:
    with open(os.environ["MUTANTS_LOG"], "a") as log:
        log.write(line + "\n")


def pytest_configure(config):
    from hypothesis import Phase, settings

    settings.register_profile(
        "mutants",
        derandomize=True,
        database=None,
        deadline=None,
        phases=(Phase.explicit, Phase.generate),
    )
    settings.load_profile("mutants")


def pytest_collection_modifyitems(config, items):
    order = {arg: i for i, arg in enumerate(config.args)}
    items.sort(key=lambda item: order.get(item.nodeid, len(order)))


def pytest_runtest_logstart(nodeid, location):
    _log("R " + nodeid)


def pytest_runtest_logreport(report):
    if report.failed:
        _FAILED.add(report.nodeid)
        _log("F " + report.nodeid)


def pytest_collectreport(report):
    if report.failed:
        _log("C " + report.nodeid)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if "MUTANTS_TRACE" not in os.environ:
        full = item.config.args[: int(os.environ.get("MUTANTS_FULL", len(item.config.args)))]
        try:
            return (yield)
        finally:
            if item.nodeid in _FAILED and item.nodeid not in full:
                item.session.shouldfail = "a test after the full ones failed"
    src = os.environ["MUTANTS_SRC"]
    targets = {src + path for path in os.environ["MUTANTS_TARGETS"].split(os.pathsep)}
    tests = str(item.config.rootpath / "tests") + os.sep
    reach: Set[str] = set()
    direct: Set[str] = set()

    def profile(frame, event, arg):
        if event != "call" or not frame.f_code.co_filename.startswith(src):
            return
        code = frame.f_code
        qual = getattr(code, "co_qualname", code.co_name)  # 3.10: functions only
        function = code.co_filename[len(src):] + ":" + qual.replace(".<locals>", "")
        if code.co_filename in targets:
            reach.add(function)
        back = frame.f_back
        if back is not None and back.f_code.co_filename.startswith(tests):
            direct.add(function)

    began = time.perf_counter()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        return (yield)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        _TESTS[item.nodeid] = {
            "reach": sorted(reach),
            "direct": sorted(direct),
            "seconds": time.perf_counter() - began,
        }


def pytest_sessionfinish(session):
    if "MUTANTS_TRACE" in os.environ:
        with open(os.environ["MUTANTS_TRACE"], "w") as f:
            json.dump(_TESTS, f)


# ----------------------------------------------------------------------
# The campaign.


def _pytest(tree: Path, args, timeout=None, **env) -> Tuple[int, List[str]]:
    """pytest over ``tree``'s copy of ``src``: the exit code (``None`` at
    the timeout, 2 when a test module failed to collect) and the tests
    that failed, the one running at the timeout included."""
    log = tree / "log"
    log.write_text("")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MUTANTS_")} | env
    env.update(
        PYTHONPATH=f"{tree / 'src'}{os.pathsep}{Path(__file__).resolve().parent}",
        PYTHONDONTWRITEBYTECODE="1",
        MUTANTS_LOG=str(log),
        MUTANTS_SRC=f"{tree / 'src' / 'repro'}{os.sep}",
    )
    try:
        code = subprocess.run(
            [sys.executable, "-m", "pytest", *PYTEST, *args],
            cwd=ROOT, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    lines = log.read_text().splitlines()
    if any(line[0] == "C" for line in lines):
        code = 2  # it exits 4 when the module's tests were named by id
    failed = [line[2:] for line in lines if line[0] == "F"]
    if code is None and lines and lines[-1][0] == "R":
        failed.append(lines[-1][2:])
    return code, list(dict.fromkeys(failed))


def _candidates(tests) -> Set[str]:
    """Tests that reach a target, call directly no ``src/repro`` function
    outside the targets, and are not in a class on CI's guard list."""
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    guards = set(_GUARD.findall(ci.read_text())) if ci.exists() else set()
    return {
        test
        for test, record in tests.items()
        if record["reach"] and record["direct"]
        and {d.split(":")[0] for d in record["direct"]} <= set(TARGETS)
        and "::".join(test.split("::")[:2]) not in guards
    }


def campaign():
    """Run every mutant: ``(mutants, verdicts, kills, tests)``.

    ``verdicts[id]`` is ``killed``, ``collection``, ``timeout`` or
    ``survived``; ``kills[id]`` lists every deletion candidate that kills
    it and the first other test that does (the others run fastest
    first, and stop there); ``tests`` is the baseline's record per test.
    """
    found = [m for path in TARGETS for m in mutants(path)]
    workers = os.cpu_count() or 1
    scratch = Path(tempfile.mkdtemp(prefix="mutants-"))
    trees: Queue = Queue()
    try:
        for i in range(workers):
            shutil.copytree(
                ROOT / "src", scratch / str(i) / "src",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            trees.put(scratch / str(i))
        trace = scratch / "trace.json"
        code, failing = _pytest(
            scratch / "0", [],
            MUTANTS_TRACE=str(trace), MUTANTS_TARGETS=os.pathsep.join(TARGETS),
        )
        if code not in (0, 1):
            raise RuntimeError(f"the baseline run exited {code}")
        tests = {t: r for t, r in json.loads(trace.read_text()).items() if t not in failing}
        candidates = _candidates(tests)
        reaching: Dict[str, List[str]] = defaultdict(list)
        for test, record in tests.items():
            for function in record["reach"]:
                reaching[function].append(test)

        def run(mutant: Mutant):
            selected = reaching.get(mutant.function, [])
            if not selected:
                return "survived", []
            full = [t for t in selected if t in candidates]
            rest = sorted(set(selected) - candidates, key=lambda t: tests[t]["seconds"])
            seconds = sum(tests[t]["seconds"] for t in selected)
            tree = trees.get()
            target = tree / "src" / "repro" / mutant.path
            original = target.read_bytes()
            target.write_bytes(apply(original, mutant))
            try:
                code, failed = _pytest(
                    tree, full + rest,
                    timeout=TIMEOUT_FACTOR * seconds + STARTUP_S,
                    MUTANTS_FULL=str(len(full)),
                )
            finally:
                target.write_bytes(original)
                trees.put(tree)
            if code not in _VERDICTS:
                raise RuntimeError(f"pytest exited {code} under {mutant.id}")
            return _VERDICTS[code], failed

        verdicts, kills = {}, {}
        with ThreadPoolExecutor(workers) as pool:
            for done, (mutant, (verdict, failed)) in enumerate(
                zip(found, pool.map(run, found)), 1
            ):
                verdicts[mutant.id], kills[mutant.id] = verdict, failed
                print(f"[{done}/{len(found)}] {verdict}: {mutant.id}", file=sys.stderr)
        return found, verdicts, kills, tests
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def deletable(kills, tests) -> List[Tuple[str, Set[str], List[str]]]:
    """The deletion candidates whose every kill a kept test also makes,
    weakest first: ``(test, its kills, kept tests that make them)``."""
    killed_by: Dict[str, Set[str]] = defaultdict(set)
    for mutant, failed in kills.items():
        for test in failed:
            killed_by[test].add(mutant)
    kept = set(tests)
    found = []
    for test in sorted(_candidates(tests), key=lambda t: (len(killed_by[t]), t)):
        if all(set(kills[m]) & (kept - {test}) for m in killed_by[test]):
            kept.discard(test)
            cover: List[str] = []
            left = set(killed_by[test])
            while left:
                best = max(sorted(kept), key=lambda t: len(killed_by[t] & left))
                cover.append(best)
                left -= killed_by[best]
            found.append((test, killed_by[test], cover))
    return found


def report(found, verdicts, kills, tests) -> int:
    """Print the survivors, the deletion candidates and the totals; the
    exit status is 1 while a survivor or an entry is unexplained."""
    survivors: Dict[str, List[str]] = defaultdict(list)
    for mutant in found:
        if verdicts[mutant.id] == "survived":
            survivors[mutant.function].append(mutant.id)
    for function, ids in survivors.items():
        print(function)
        for mutant in ids:
            reason = EQUIVALENT.get(mutant)
            print(f"  {mutant}" + (f"  [equivalent: {reason}]" if reason else ""))
    for test, killed, cover in deletable(kills, tests):
        print(f"deletable: {test}  kills {len(killed)}; covered by {', '.join(cover) or '-'}")
    survived = [m for ids in survivors.values() for m in ids]
    equivalent = sum(m in EQUIVALENT for m in survived)
    stale = len(set(EQUIVALENT) - set(survived))
    print(
        f"# mutants: {len(found)}; killed {len(found) - len(survived)}; "
        f"survived {len(survived)} ({equivalent} equivalent, "
        f"{len(survived) - equivalent} unexplained); "
        f"stale EQUIVALENT entries: {stale}"
    )
    return 1 if len(survived) > equivalent or stale else 0


if __name__ == "__main__":
    if sys.version_info < (3, 11):
        sys.exit("a method's tests are found by code.co_qualname: Python 3.11+")
    sys.exit(report(*campaign()))
