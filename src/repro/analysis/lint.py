"""AST-based repo-invariant linter: ``python -m repro.analysis.lint src``.

Every rule here is an invariant the team kept re-deriving in review;
now the build re-derives it instead:

``wall-clock``
    Sim-clocked modules (``repro/sim/``, ``repro/dist/``) must not read
    the wall clock (``time.time``/``perf_counter``/``monotonic``/
    ``process_time``/``thread_time``/``clock_gettime`` and their
    ``_ns`` forms, ``datetime.now``/``utcnow``/``today``):
    the seeded-replay bit-identity contract (PR 6) requires every
    simulated timestamp to come from the simulator's clock.  Import
    bindings are tracked per module, so ``from time import monotonic``,
    ``import time as t`` and ``from datetime import datetime as dt``
    are seen through - the call is canonicalized before rule matching.

``unseeded-random``
    The same modules must not draw from the process-global ``random``
    module or an unseeded ``random.Random()``: replay determinism means
    every stream is a ``random.Random(seed)`` owned by a component.
    Alias-aware like ``wall-clock`` (``import random as r``,
    ``from random import random as rnd``).

``raw-lock``
    No ``threading.Lock()`` / ``RLock()`` / ``Condition()`` outside
    ``repro/analysis/``: all lock sites go through the tracked factories
    in :mod:`repro.analysis.sync` so the ``--race`` detector sees them.

``sleep``
    No ``time.sleep`` outside ``repro/analysis/`` (aliases seen through,
    as for ``wall-clock``): every other blocking wait announces itself
    to the ``--race`` tracker, which flags it when a lock is held, but
    a sleep is invisible to it.  Wait on a tracked condition with a
    timeout instead (``Channel.transit`` is the pattern).

``bare-except``
    No ``except:`` - it swallows ``KeyboardInterrupt`` and worker-pool
    shutdown; name the exception (``except BaseException:`` where a
    frame boundary genuinely must catch everything).

``unused-import``
    Every name a module-level import binds is read somewhere in the
    module, by name or inside a string that spells an expression (a
    quoted annotation, an ``__all__`` entry).  Package ``__init__.py``
    files are exempt: importing is how they re-export.

(Blocking while holding a lock is not checked here: tier-1 under
``pytest --race`` records every hold-while-blocking event and fails the
test that made it, and ``sleep`` above covers the one wait the tracker
cannot see.  Nor is the wire format: ``TestCodecTruncation`` in
``tests/test_membership.py`` decodes every codec's frame against the
value it was packed from and pairs every ``pack_*``/``encode_*`` with
its reader, because only a decode sees values, not just field widths.)

A line may opt out of one rule with ``# lint: skip[<rule>]`` when the
violation is deliberate (e.g. the wall-clock *default* in a module that
also accepts a sim clock).
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

__all__ = ["Violation", "lint_path", "lint_source", "lint_tree", "main"]

#: Path fragments marking a module as sim-clocked (seeded-replay
#: bit-identity applies; see PR 6's snapshot byte-equality test).
SIM_CLOCKED = ("repro/sim/", "repro/dist/")

#: Path fragments exempt from ``raw-lock`` and ``sleep`` (the tracker
#: itself).
TRACKER_EXEMPT = ("repro/analysis/",)

_WALL_CLOCK_TIME = {
    "time", "monotonic", "perf_counter", "process_time", "thread_time",
    "clock_gettime", "time_ns", "monotonic_ns", "perf_counter_ns",
    "process_time_ns", "thread_time_ns", "clock_gettime_ns",
}
_WALL_CLOCK_DATE = {"now", "utcnow", "today"}
_RAW_LOCK_NAMES = {"Lock", "RLock", "Condition"}

#: Modules whose import bindings we canonicalize: aliasing one of these
#: (``import time as t``, ``from random import random as rnd``) must
#: not launder a call past the path-scoped rules above.
_ALIAS_MODULES = {"time", "random", "datetime"}


@dataclass(frozen=True)
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def last_identifier(node: ast.expr) -> str:
    """The trailing identifier of a Name/Attribute chain (else '')."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def dotted(node: ast.expr) -> str:
    """``a.b.c`` for a Name/Attribute chain (best effort, else '')."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def canonical(spelled: str, aliases: Dict[str, str]) -> str:
    """Resolve the leading identifier through an import-binding map.

    ``t.monotonic`` -> ``time.monotonic``; bare ``sleep`` (bound by
    ``from time import sleep``) -> ``time.sleep``.  Unknown heads pass
    through unchanged.
    """
    head, _, rest = spelled.partition(".")
    target = aliases.get(head)
    if target is None:
        return spelled
    return f"{target}.{rest}" if rest else target


class _Checker(ast.NodeVisitor):
    def __init__(self, relpath: str, sim_clocked: bool, tracker_exempt: bool):
        self.relpath = relpath
        self.sim_clocked = sim_clocked
        self.tracker_exempt = tracker_exempt
        self.violations: List[Violation] = []
        #: Local name -> canonical dotted path (``t`` -> ``time``,
        #: ``rnd`` -> ``random.random``) for the modules in
        #: _ALIAS_MODULES.
        self._aliases: Dict[str, str] = {}

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.relpath, node.lineno, rule, message)
        )

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        spelled = dotted(node.func)
        canon = canonical(spelled, self._aliases)
        # Rule matching runs on the canonical spelling; messages show
        # the source spelling (plus the resolution when they differ).
        shown = spelled if canon == spelled else f"{spelled} (= {canon})"
        attr = canon.rsplit(".", 1)[-1] if canon else last_identifier(node.func)
        if self.sim_clocked:
            if canon.startswith("time.") and attr in _WALL_CLOCK_TIME:
                self._flag(
                    node, "wall-clock",
                    f"{shown}() in a sim-clocked module breaks seeded "
                    "replay; take the simulator's clock instead",
                )
            elif attr in _WALL_CLOCK_DATE and (
                "datetime" in canon or "date." in canon
            ):
                self._flag(
                    node, "wall-clock",
                    f"{shown}() in a sim-clocked module breaks seeded replay",
                )
            if canon.startswith("random.") and attr != "Random":
                self._flag(
                    node, "unseeded-random",
                    f"{shown}() draws from the process-global stream; use "
                    "a component-owned random.Random(seed)",
                )
            elif canon in ("random.Random", "Random") and not (
                node.args or node.keywords
            ):
                self._flag(
                    node, "unseeded-random",
                    "unseeded random.Random() is nondeterministic across "
                    "runs; pass an explicit seed",
                )
        if not self.tracker_exempt:
            if canon.startswith("threading.") and attr in _RAW_LOCK_NAMES:
                self._flag(
                    node, "raw-lock",
                    f"raw {shown}() is invisible to the --race tracker; use "
                    f"repro.analysis.sync.Tracked{attr}",
                )
            if canon == "time.sleep":
                self._flag(
                    node, "sleep",
                    f"{shown}() blocks where the --race tracker cannot see "
                    "it; wait on a tracked condition with a timeout",
                )
        self.generic_visit(node)

    # -- imports --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.partition(".")[0] in _ALIAS_MODULES:
                self._aliases[(alias.asname or alias.name).partition(".")[0]] = (
                    alias.name if alias.asname else alias.name.partition(".")[0]
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in _ALIAS_MODULES:
            for alias in node.names:
                if alias.name == "*":
                    continue
                self._aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        if node.module == "threading" and not self.tracker_exempt:
            for alias in node.names:
                if alias.name in _RAW_LOCK_NAMES:
                    self._flag(
                        node, "raw-lock",
                        f"`from threading import {alias.name}` bypasses the "
                        "tracked factories in repro.analysis.sync",
                    )
        if node.module == "random" and self.sim_clocked:
            for alias in node.names:
                if alias.name != "Random":
                    self._flag(
                        node, "unseeded-random",
                        f"`from random import {alias.name}` pulls the "
                        "process-global stream into a sim-clocked module",
                    )
        self.generic_visit(node)

    # -- except --------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                node, "bare-except",
                "bare `except:` swallows KeyboardInterrupt and pool "
                "shutdown; name the exception type",
            )
        self.generic_visit(node)


def _spelled_in_strings(tree: ast.Module):
    """Names a string constant spells as an expression: a quoted
    annotation (``x: "Repository"``) or an ``__all__`` entry."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            yield from (n.id for n in ast.walk(expr) if isinstance(n, ast.Name))


def unused_imports(tree: ast.Module, relpath: str) -> List[Violation]:
    """``unused-import``: each name a module-level import binds that the
    module never reads."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read.update(_spelled_in_strings(tree))
    violations = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [
                (a.asname or a.name.partition(".")[0], a.name) for a in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a.asname or a.name, a.name) for a in node.names if a.name != "*"]
        else:
            continue
        violations.extend(
            Violation(
                relpath, node.lineno, "unused-import",
                f"{spelled} is imported but never read; drop the import",
            )
            for name, spelled in bound
            if name not in read
        )
    return violations


_SKIP_MARK = re.compile(r"#\s*lint:\s*skip\[([a-z-]+)\]")


def skip_marks(source: str) -> Dict[int, str]:
    """Line number -> rule for every ``# lint: skip[<rule>]`` comment."""
    marks: Dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SKIP_MARK.search(text)
        if match is not None:
            marks[lineno] = match.group(1)
    return marks


def lint_source(source: str, relpath: str) -> List[Violation]:
    """Lint one module's source; ``relpath`` drives path-scoped rules."""
    normalized = relpath.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [
            Violation(
                relpath, exc.lineno or 0, "syntax",
                f"cannot parse: {exc.msg}",
            )
        ]
    checker = _Checker(
        relpath,
        sim_clocked=any(frag in normalized for frag in SIM_CLOCKED),
        tracker_exempt=any(frag in normalized for frag in TRACKER_EXEMPT),
    )
    checker.visit(tree)
    violations = checker.violations
    if not normalized.endswith("__init__.py"):
        violations += unused_imports(tree, relpath)
    marks = skip_marks(source)
    return [v for v in violations if marks.get(v.line) != v.rule]


def lint_path(path: Path) -> List[Violation]:
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def python_files(roots: Sequence[Path]) -> List[Path]:
    """Every ``*.py`` under each root, sorted (a file root is itself)."""
    return [
        path
        for root in roots
        for path in ([root] if root.is_file() else sorted(root.rglob("*.py")))
    ]


def lint_tree(roots: Sequence[Path]) -> List[Violation]:
    """Lint every ``*.py`` under each root (a file root lints itself)."""
    violations: List[Violation] = []
    for path in python_files(roots):
        violations.extend(lint_path(path))
    return violations


def main(argv: Sequence[str]) -> int:
    if not argv or any(arg in ("-h", "--help") for arg in argv):
        print(__doc__)
        print("usage: python -m repro.analysis.lint <path> [path...]")
        return 0 if argv else 2
    roots = [Path(arg) for arg in argv]
    missing = [str(p) for p in roots if not p.exists()]
    if missing:
        print(f"lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    violations = lint_tree(roots)
    for violation in violations:
        print(violation.format())
    checked = len(python_files(roots))
    if violations:
        print(
            f"lint: {len(violations)} violation(s) in {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint: {checked} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
