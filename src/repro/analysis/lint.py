"""AST-based repo-invariant linter: ``python -m repro.analysis.lint src``.

Every rule here is an invariant the team kept re-deriving in review;
now the build re-derives it instead:

``wall-clock``
    Sim-clocked modules (``repro/sim/``, ``repro/dist/``) must not read
    the wall clock (``time.time``/``perf_counter``/``monotonic``/
    ``process_time``/``sleep``, ``datetime.now``/``utcnow``/``today``):
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

``bare-except``
    No ``except:`` - it swallows ``KeyboardInterrupt`` and worker-pool
    shutdown; name the exception (``except BaseException:`` where a
    frame boundary genuinely must catch everything).

``codec-pairing``
    Every ``pack_X`` (or ``_pack_X``) in a module has a matching
    ``unpack_X`` in the same module: a wire format you can encode but
    not decode is half a protocol.

``codec-layout``
    A ``pack_X``/``unpack_X`` pair must agree on its fixed-width
    ``struct`` layout.  The checker collects every module-level
    ``struct.Struct`` constant (and literal ``struct.pack``/``unpack``
    format) each side references - transitively, through helpers
    defined in the same module, because ``pack_digest`` may inline a
    width that ``unpack_digest`` reaches via ``_unpack_name`` - and
    flags the pair when the referenced byte widths disagree.  That is
    the encode-side-grew-a-field, decode-side-did-not drift that
    otherwise only surfaces as a corrupt frame at the far end.

(Blocking while holding a lock is not checked here: it is
:mod:`repro.analysis.flow`'s interprocedural ``hold-blocking`` rule.)

A line may opt out of one rule with ``# lint: skip[<rule>]`` when the
violation is deliberate (e.g. the wall-clock *default* in a module that
also accepts a sim clock).
"""

from __future__ import annotations

import ast
import re
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "canonical",
    "dotted",
    "last_identifier",
    "lint_path",
    "lint_source",
    "lint_tree",
    "main",
    "python_files",
    "skip_marks",
]

#: Path fragments marking a module as sim-clocked (seeded-replay
#: bit-identity applies; see PR 6's snapshot byte-equality test).
SIM_CLOCKED = ("repro/sim/", "repro/dist/")

#: Path fragments exempt from ``raw-lock`` (the tracker itself).
RAW_LOCK_EXEMPT = ("repro/analysis/",)

_WALL_CLOCK_TIME = {"time", "monotonic", "perf_counter", "process_time", "sleep"}
_WALL_CLOCK_DATE = {"now", "utcnow", "today"}
_RAW_LOCK_NAMES = {"Lock", "RLock", "Condition"}

#: Modules whose import bindings we canonicalize: aliasing one of these
#: (``import time as t``, ``from random import random as rnd``) must
#: not launder a call past the path-scoped rules above.
_ALIAS_MODULES = {"time", "random", "datetime", "struct"}

#: ``struct``-module call forms whose first argument is a format string
#: (a literal fixed-width layout reference, pseudo-constant for
#: ``codec-layout``).
_STRUCT_FMT_CALLS = {
    "struct.Struct",
    "struct.pack",
    "struct.pack_into",
    "struct.unpack",
    "struct.unpack_from",
    "struct.calcsize",
}


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


def _fmt_size(fmt: str) -> Optional[int]:
    """Byte width of a struct format string, or None if it is invalid
    (leave invalid formats to the runtime - this rule is about drift
    between two valid sides)."""
    try:
        return struct.calcsize(fmt)
    except struct.error:
        return None


class _Checker(ast.NodeVisitor):
    def __init__(self, relpath: str, sim_clocked: bool, lock_exempt: bool):
        self.relpath = relpath
        self.sim_clocked = sim_clocked
        self.lock_exempt = lock_exempt
        self.violations: List[Violation] = []
        self.pack_defs: Dict[str, Tuple[int, str]] = {}
        self.unpack_defs: Dict[str, str] = {}
        #: Local name -> canonical dotted path (``t`` -> ``time``,
        #: ``rnd`` -> ``random.random``) for the modules in
        #: _ALIAS_MODULES.
        self._aliases: Dict[str, str] = {}
        #: codec-layout state: module-level Struct constants (name ->
        #: byte width), and per-def struct references / local calls for
        #: the transitive closure in finish().
        self.struct_consts: Dict[str, int] = {}
        self._fn_stack: List[str] = []
        self._fn_names: Dict[str, Set[str]] = {}
        self._fn_literals: Dict[str, Dict[str, int]] = {}
        self._fn_calls: Dict[str, Set[str]] = {}

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.relpath, node.lineno, rule, message)
        )

    def _current_fn(self) -> Optional[str]:
        # Nested helpers fold into their outermost def: a struct
        # referenced by a closure counts toward the enclosing codec.
        return self._fn_stack[0] if self._fn_stack else None

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
        if (
            not self.lock_exempt
            and canon.startswith("threading.")
            and attr in _RAW_LOCK_NAMES
        ):
            self._flag(
                node, "raw-lock",
                f"raw {shown}() is invisible to the --race tracker; use "
                f"repro.analysis.sync.Tracked{attr}",
            )
        self._note_struct_call(node, canon)
        self.generic_visit(node)

    def _note_struct_call(self, node: ast.Call, canon: str) -> None:
        fn = self._current_fn()
        if fn is None:
            return
        if isinstance(node.func, ast.Name):
            self._fn_calls.setdefault(fn, set()).add(node.func.id)
        if canon in _STRUCT_FMT_CALLS and node.args and isinstance(
            node.args[0], ast.Constant
        ) and isinstance(node.args[0].value, str):
            size = _fmt_size(node.args[0].value)
            if size is not None:
                self._fn_literals.setdefault(fn, {})[node.args[0].value] = size

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
        if node.module == "threading" and not self.lock_exempt:
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

    # -- codec-layout bookkeeping ---------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        fn = self._current_fn()
        if fn is not None:
            self._fn_names.setdefault(fn, set()).add(node.id)
        self.generic_visit(node)

    def _note_struct_const(self, target: ast.expr, value: ast.expr) -> None:
        if self._fn_stack or not isinstance(target, ast.Name):
            return
        if not (isinstance(value, ast.Call) and value.args):
            return
        if canonical(dotted(value.func), self._aliases) != "struct.Struct":
            return
        arg = value.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            size = _fmt_size(arg.value)
            if size is not None:
                self.struct_consts[target.id] = size

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_struct_const(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_struct_const(node.target, node.value)
        self.generic_visit(node)

    # -- except / defs --------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                node, "bare-except",
                "bare `except:` swallows KeyboardInterrupt and pool "
                "shutdown; name the exception type",
            )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._note_codec_def(node.name, node.lineno)
        self._fn_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._fn_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._note_codec_def(node.name, node.lineno)
        self._fn_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._fn_stack.pop()

    def _note_codec_def(self, name: str, lineno: int) -> None:
        bare = name.lstrip("_")
        if bare.startswith("pack_"):
            self.pack_defs.setdefault(bare[len("pack_"):], (lineno, name))
        elif bare.startswith("unpack_"):
            self.unpack_defs.setdefault(bare[len("unpack_"):], name)

    def _layout_refs(self, fn: str) -> Dict[str, int]:
        """Struct items ``fn`` references, transitively through calls to
        helpers defined in this module: display name -> byte width."""
        refs: Dict[str, int] = {}
        seen: Set[str] = set()
        queue = [fn]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            for name in self._fn_names.get(current, ()):
                if name in self.struct_consts:
                    refs[name] = self.struct_consts[name]
            for fmt, size in self._fn_literals.get(current, {}).items():
                refs[f'"{fmt}"'] = size
            for callee in self._fn_calls.get(current, ()):
                # Only intra-module helpers extend the closure; calls to
                # names we never saw defined are ignored.
                if callee in self._fn_names or callee in self._fn_calls:
                    queue.append(callee)
        return refs

    def finish(self) -> None:
        for suffix, (lineno, pack_name) in sorted(self.pack_defs.items()):
            unpack_name = self.unpack_defs.get(suffix)
            if unpack_name is None:
                self.violations.append(
                    Violation(
                        self.relpath, lineno, "codec-pairing",
                        f"pack_{suffix} has no matching unpack_{suffix} in "
                        "this module: a wire format you can encode but not "
                        "decode is half a protocol",
                    )
                )
                continue
            pack_refs = self._layout_refs(pack_name)
            unpack_refs = self._layout_refs(unpack_name)
            # Compare byte widths of the distinct struct items each side
            # reaches; spelling may differ (a constant on one side, an
            # equivalent literal format on the other) without drift.
            if not pack_refs or not unpack_refs:
                continue
            if sorted(pack_refs.values()) == sorted(unpack_refs.values()):
                continue
            self.violations.append(
                Violation(
                    self.relpath, lineno, "codec-layout",
                    f"{pack_name}/{unpack_name} disagree on fixed-width "
                    f"struct layout: {pack_name} references "
                    f"{_layout_text(pack_refs)}; {unpack_name} references "
                    f"{_layout_text(unpack_refs)}",
                )
            )


def _layout_text(refs: Dict[str, int]) -> str:
    return ", ".join(
        f"{name}({size}B)" for name, size in sorted(refs.items())
    )


def skip_marks(source: str, tool: str) -> Dict[int, str]:
    """Line number -> rule for every ``# <tool>: skip[<rule>]`` comment
    (``tool`` is ``lint`` here, ``flow`` in :mod:`repro.analysis.flow`)."""
    marker = re.compile(rf"#\s*{tool}:\s*skip\[([a-z-]+)\]")
    marks: Dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = marker.search(text)
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
        lock_exempt=any(frag in normalized for frag in RAW_LOCK_EXEMPT),
    )
    checker.visit(tree)
    checker.finish()
    marks = skip_marks(source, "lint")
    return [v for v in checker.violations if marks.get(v.line) != v.rule]


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
