"""Interprocedural may-block / lock-summary analysis:
``python -m repro.analysis.flow src``.

Where :mod:`repro.analysis.lint` is lexical (one function body at a
time) and the :mod:`repro.analysis.sync` tracker is dynamic (only the
lock orders a test actually exercised), this analysis is *whole-program
and static*: it builds a best-effort call graph over the tree
(:mod:`repro.analysis.callgraph`), infers a **may-block** effect for
every function, computes per-function **lock summaries** - which
tracked-factory locks a function acquires, directly or through any
chain of calls - and derives the *static lock-acquisition graph* whose
nodes are creation-site labels, the same vocabulary the runtime
tracker uses.

Two rules fire on the result:

``hold-blocking``
    A function performs (or calls into, any number of frames down) a
    blocking operation while holding a tracked lock.  ``with lock:
    self._helper()`` is flagged even when the ``Job.wait`` is three
    calls deep.  A condition's own lock is exempt at its ``wait`` - the
    wait releases it; that is the point of a condition.

``lock-cycle``
    The static lock graph has a cycle: the classic ABBA inversion, with
    a full call-chain witness for every edge.  A *self* cycle on a
    non-reentrant label is reported too - two instances of the same
    lock class acquired nested (PR 5's double-dial was exactly this
    shape, instance-symmetric and invisible to per-instance reasoning).
    Reentrant (RLock) self-edges are skipped: label-level analysis
    cannot tell reentry on one instance from nesting across two, and
    reentry is the overwhelmingly common - and legal - case.

A line may opt out of one rule with ``# flow: skip[<rule>]`` plus a
justification, mirroring the linter.  For a ``lock-cycle`` the marker
may sit on any line participating in the cycle's witness heads.

Exit codes: 0 clean, 1 findings, 2 usage error.  ``--graph`` prints
the static lock graph; ``--unresolved`` lists every call the model
could not resolve (documented blind spots: dynamic callables, stored
callbacks, containers of functions), grouped by reason.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from .callgraph import (
    FunctionInfo,
    LockType,
    Program,
    build_program,
    build_program_from_sources,
)
from .lint import skip_marks

__all__ = [
    "Edge",
    "Finding",
    "FlowReport",
    "analyze_source",
    "analyze_tree",
    "main",
]


@dataclass(frozen=True)
class Edge:
    """One static lock-order edge: ``dst`` acquired while ``src`` held."""

    src: str
    dst: str
    relpath: str
    line: int
    chain: Tuple[str, ...]  # formatted frames, outermost first

    def format(self) -> str:
        lines = [f"{self.src} -> {self.dst}"]
        lines.extend(f"  {frame}" for frame in self.chain)
        return "\n".join(lines)


@dataclass(frozen=True)
class Finding:
    rule: str
    relpath: str
    line: int
    message: str
    chain: Tuple[str, ...] = ()

    def format(self) -> str:
        head = f"{self.relpath}:{self.line}: [{self.rule}] {self.message}"
        if not self.chain:
            return head
        return "\n".join([head] + [f"  {frame}" for frame in self.chain])


@dataclass(frozen=True)
class Unresolved:
    reason: str
    relpath: str
    line: int
    callee: str
    function: str


@dataclass
class FlowReport:
    findings: List[Finding] = field(default_factory=list)
    edges: Dict[Tuple[str, str], Edge] = field(default_factory=dict)
    labels: Set[str] = field(default_factory=set)
    unresolved: List[Unresolved] = field(default_factory=list)
    functions: int = 0
    may_block: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def edge_pairs(self) -> Set[Tuple[str, str]]:
        return set(self.edges)


# ----------------------------------------------------------------------
# The interprocedural solver.


class _Solver:
    def __init__(self, program: Program):
        self.program = program
        self.fns = program.functions
        #: label -> (reentrant, condition)
        self.lock_meta: Dict[str, Tuple[bool, bool]] = {}
        self._collect_lock_meta()
        #: qname -> base blocking fact reached (or absent)
        self.may_block: Dict[str, str] = {}
        #: qname -> witness step: ("direct", line) | ("call", cs, g)
        self.block_via: Dict[str, Tuple] = {}
        #: qname -> {label -> ("acquire", line) | ("call", cs, g)}
        self.acq: Dict[str, Dict[str, Tuple]] = {
            q: {} for q in self.fns
        }

    def _collect_lock_meta(self) -> None:
        def note(t: object) -> None:
            if isinstance(t, LockType):
                prev = self.lock_meta.get(t.label)
                if prev is None:
                    self.lock_meta[t.label] = (t.reentrant, t.condition)

        for mod in self.program.modules.values():
            for t in mod.globals_types.values():
                note(t)
        for cls in self.program.classes.values():
            for t in cls.attr_types.values():
                note(t)
        # Labels only seen at acquire sites (locals, parameters).
        for fn in self.fns.values():
            for a in fn.acquires:
                if a.label not in self.lock_meta:
                    self.lock_meta[a.label] = (a.reentrant, a.condition)

    def reentrant(self, label: str) -> bool:
        return self.lock_meta.get(label, (False, False))[0]

    def solve(self) -> None:
        """Propagate may-block and acquired-locks to a fixpoint."""
        for qname, fn in self.fns.items():
            if fn.blocks:
                b = fn.blocks[0]
                self.may_block[qname] = b.what
                self.block_via[qname] = ("direct", b.line)
            for a in fn.acquires:
                self.acq[qname].setdefault(a.label, ("acquire", a.line))

        changed = True
        while changed:
            changed = False
            for qname, fn in self.fns.items():
                mine = self.acq[qname]
                for cs in fn.calls:
                    for tq in cs.targets:
                        if tq == qname:
                            continue
                        for label in self.acq.get(tq, ()):
                            if label not in mine:
                                mine[label] = ("call", cs, tq)
                                changed = True
                        if qname not in self.may_block and tq in self.may_block:
                            self.may_block[qname] = self.may_block[tq]
                            self.block_via[qname] = ("call", cs, tq)
                            changed = True

    # -- witnesses -----------------------------------------------------

    def _fmt(self, fn: FunctionInfo, line: int, text: str) -> str:
        return f"{fn.relpath}:{line}: {fn.qname} {text}"

    def _chain(self, qname: str, step_of, last: str) -> List[str]:
        """Witness frames from ``qname`` down to the terminal frame
        (text ``last``).  ``step_of(qname)`` is that function's step:
        ``("call", cs, callee)``, a terminal ``(kind, line)``, or None."""
        frames: List[str] = []
        seen: Set[str] = set()
        cur = qname
        while cur not in seen:
            seen.add(cur)
            fn, step = self.fns[cur], step_of(cur)
            if step is None:
                break
            if step[0] != "call":
                frames.append(self._fmt(fn, step[1], last))
                break
            _, cs, cur = step
            frames.append(
                self._fmt(fn, cs.line, f"calls {self.fns[cur].qname}")
            )
        return frames

    def acquire_chain(self, qname: str, label: str) -> List[str]:
        """Call-chain frames from ``qname`` down to the acquire site."""
        return self._chain(
            qname, lambda q: self.acq[q].get(label), f"acquires {label!r}"
        )

    def block_chain(self, qname: str) -> List[str]:
        return self._chain(
            qname,
            self.block_via.get,
            f"blocks on {self.may_block.get(qname)}",
        )

    # -- the static lock graph ----------------------------------------

    def lock_edges(self) -> Dict[Tuple[str, str], Edge]:
        edges: Dict[Tuple[str, str], Edge] = {}

        def add(
            src: str,
            dst: str,
            fn: FunctionInfo,
            line: int,
            tail: List[str],
        ) -> None:
            if src == dst and self.reentrant(src):
                return
            key = (src, dst)
            if key in edges:
                return
            edges[key] = Edge(
                src=src,
                dst=dst,
                relpath=fn.relpath,
                line=line,
                chain=tuple(tail),
            )

        for qname, fn in self.fns.items():
            for a in fn.acquires:
                for h in a.held:
                    add(
                        h, a.label, fn, a.line,
                        [self._fmt(
                            fn, a.line,
                            f"acquires {a.label!r} while holding {h!r}",
                        )],
                    )
            for cs in fn.calls:
                if not cs.held:
                    continue
                for tq in cs.targets:
                    for label in self.acq.get(tq, ()):
                        for h in cs.held:
                            head = self._fmt(
                                fn, cs.line,
                                f"[holding {h!r}] calls {self.fns[tq].qname}",
                            )
                            add(
                                h, label, fn, cs.line,
                                [head] + self.acquire_chain(tq, label),
                            )
        return edges

    # -- rules ---------------------------------------------------------

    def findings(
        self, edges: Dict[Tuple[str, str], Edge]
    ) -> List[Finding]:
        found: List[Finding] = []
        found.extend(self._hold_blocking())
        found.extend(self._lock_cycles(edges))
        return found

    def _hold_blocking(self) -> List[Finding]:
        found: List[Finding] = []
        seen: Set[Tuple[str, int]] = set()
        for qname, fn in self.fns.items():
            for b in fn.blocks:
                if not b.held:
                    continue
                key = (fn.relpath, b.line)
                if key in seen:
                    continue
                seen.add(key)
                found.append(
                    Finding(
                        rule="hold-blocking",
                        relpath=fn.relpath,
                        line=b.line,
                        message=(
                            f"{fn.qname} blocks on {b.what} while "
                            f"holding {list(b.held)}"
                        ),
                        chain=(self._fmt(fn, b.line, f"blocks on {b.what}"),),
                    )
                )
            for cs in fn.calls:
                if not cs.held:
                    continue
                blocking_target = next(
                    (tq for tq in cs.targets if tq in self.may_block), None
                )
                if blocking_target is None:
                    continue
                key = (fn.relpath, cs.line)
                if key in seen:
                    continue
                seen.add(key)
                what = self.may_block[blocking_target]
                chain = [
                    self._fmt(
                        fn, cs.line,
                        f"[holding {list(cs.held)}] calls "
                        f"{self.fns[blocking_target].qname}",
                    )
                ] + self.block_chain(blocking_target)
                found.append(
                    Finding(
                        rule="hold-blocking",
                        relpath=fn.relpath,
                        line=cs.line,
                        message=(
                            f"{fn.qname} calls {cs.callee} while holding "
                            f"{list(cs.held)}, and it blocks on {what} "
                            "down the call chain"
                        ),
                        chain=tuple(chain),
                    )
                )
        return found

    def _lock_cycles(
        self, edges: Dict[Tuple[str, str], Edge]
    ) -> List[Finding]:
        graph: Dict[str, Set[str]] = {}
        for src, dst in edges:
            graph.setdefault(src, set()).add(dst)
            graph.setdefault(dst, set())
        cycles = _simple_cycles(graph)
        found: List[Finding] = []
        for cycle in cycles:
            cycle_edges = [
                edges[(cycle[i], cycle[(i + 1) % len(cycle)])]
                for i in range(len(cycle))
            ]
            anchor = min(cycle_edges, key=lambda e: (e.relpath, e.line))
            pretty = " -> ".join(list(cycle) + [cycle[0]])
            chain: List[str] = []
            for e in cycle_edges:
                chain.append(f"edge {e.src} -> {e.dst}:")
                chain.extend(f"  {frame}" for frame in e.chain)
            if len(cycle) == 1:
                message = (
                    f"non-reentrant lock {cycle[0]!r} may be acquired "
                    "while an instance with the same label is already "
                    "held (instance-symmetric ABBA, the double-dial shape)"
                )
            else:
                message = f"potential lock-order inversion: {pretty}"
            found.append(
                Finding(
                    rule="lock-cycle",
                    relpath=anchor.relpath,
                    line=anchor.line,
                    message=message,
                    chain=tuple(chain),
                )
            )
        return found


def _simple_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Elementary cycles of a small digraph, each reported once.

    DFS rooted at each node in sorted order, only visiting nodes >= the
    root (so every cycle is found exactly once, rotated to start at its
    smallest node).  The lock graphs here have tens of nodes; no need
    for Johnson's algorithm.
    """
    order = sorted(graph)
    index = {n: i for i, n in enumerate(order)}
    cycles: List[List[str]] = []

    def dfs(root: str, node: str, path: List[str], on_path: Set[str]) -> None:
        for nxt in sorted(graph.get(node, ())):
            if index[nxt] < index[root]:
                continue
            if nxt == root:
                cycles.append(list(path))
                continue
            if nxt in on_path:
                continue
            path.append(nxt)
            on_path.add(nxt)
            dfs(root, nxt, path, on_path)
            on_path.remove(nxt)
            path.pop()

    for root in order:
        dfs(root, root, [root], {root})  # a self-edge yields [root]
    return cycles


# ----------------------------------------------------------------------
# Suppressions.


def _apply_suppressions(report: FlowReport, program: Program) -> FlowReport:
    marks: Dict[str, Dict[int, str]] = {
        relpath: skip_marks(mod.source, "flow")
        for relpath, mod in program.modules.items()
    }

    def line_marked(relpath: str, line: int, rule: str) -> bool:
        return marks.get(relpath, {}).get(line) == rule

    kept: List[Finding] = []
    for f in report.findings:
        if line_marked(f.relpath, f.line, f.rule):
            continue
        if f.rule == "lock-cycle":
            # The justification may sit on any witness head of the cycle.
            heads = _witness_heads(f.chain)
            if any(
                line_marked(relpath, line, f.rule)
                for relpath, line in heads
            ):
                continue
        kept.append(f)
    report.findings = kept
    return report


_FRAME = re.compile(r"^\s*(\S+?):(\d+): ")


def _witness_heads(chain: Sequence[str]) -> List[Tuple[str, int]]:
    heads: List[Tuple[str, int]] = []
    for frame in chain:
        match = _FRAME.match(frame)
        if match is not None:
            heads.append((match.group(1), int(match.group(2))))
    return heads


# ----------------------------------------------------------------------
# Entry points.


def _analyze_program(program: Program) -> FlowReport:
    solver = _Solver(program)
    solver.solve()
    edges = solver.lock_edges()
    report = FlowReport(
        edges=edges,
        labels=set(solver.lock_meta),
        functions=len(program.functions),
        may_block=dict(solver.may_block),
        errors=list(program.errors),
    )
    report.findings = sorted(
        solver.findings(edges),
        key=lambda f: (f.relpath, f.line, f.rule, f.message),
    )
    for fn in program.functions.values():
        for cs in fn.calls:
            if cs.reason is not None:
                report.unresolved.append(
                    Unresolved(
                        reason=cs.reason,
                        relpath=fn.relpath,
                        line=cs.line,
                        callee=cs.callee,
                        function=fn.qname,
                    )
                )
    return _apply_suppressions(report, program)


def analyze_tree(roots: Sequence[Path]) -> FlowReport:
    """Analyze every ``*.py`` under each root."""
    return _analyze_program(build_program(roots))


def analyze_source(source: str, relpath: str = "<string>") -> FlowReport:
    """Analyze a single in-memory module (the test entry point)."""
    return _analyze_program(build_program_from_sources([(relpath, source)]))


# ----------------------------------------------------------------------
# CLI.


def _print_graph(report: FlowReport) -> None:
    print(f"static lock graph: {len(report.labels)} labels, "
          f"{len(report.edges)} edges")
    for (src, dst), edge in sorted(report.edges.items()):
        print(edge.format())


def _print_unresolved(report: FlowReport) -> None:
    by_reason: Dict[str, List[Unresolved]] = {}
    for u in report.unresolved:
        by_reason.setdefault(u.reason, []).append(u)
    print(f"unresolved calls: {len(report.unresolved)}")
    for reason in sorted(by_reason):
        entries = by_reason[reason]
        print(f"  [{reason}] x{len(entries)}")
        for u in entries[:10]:
            print(f"    {u.relpath}:{u.line}: {u.callee} (in {u.function})")
        if len(entries) > 10:
            print(f"    ... {len(entries) - 10} more")


def main(argv: Sequence[str]) -> int:
    args = list(argv)
    show_graph = "--graph" in args
    show_unresolved = "--unresolved" in args
    as_json = "--json" in args
    paths = [
        a for a in args
        if a not in ("--graph", "--unresolved", "--json")
    ]
    if not paths or any(a in ("-h", "--help") for a in paths):
        print(__doc__)
        print(
            "usage: python -m repro.analysis.flow <path> [path...] "
            "[--graph] [--unresolved] [--json]"
        )
        return 0 if paths else 2
    roots = [Path(p) for p in paths]
    missing = [str(p) for p in roots if not p.exists()]
    if missing:
        print(f"flow: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = analyze_tree(roots)
    if as_json:
        print(json.dumps(
            {
                "functions": report.functions,
                "labels": sorted(report.labels),
                "edges": sorted(list(e) for e in report.edges),
                "findings": [
                    {
                        "rule": f.rule,
                        "path": f.relpath,
                        "line": f.line,
                        "message": f.message,
                    }
                    for f in report.findings
                ],
                "unresolved": len(report.unresolved),
                "errors": report.errors,
            },
            indent=2,
        ))
        return 0 if report.clean else 1
    if show_graph:
        _print_graph(report)
    if show_unresolved:
        _print_unresolved(report)
    for error in report.errors:
        print(f"flow: parse error: {error}", file=sys.stderr)
    for finding in report.findings:
        print(finding.format())
    summary = (
        f"flow: {report.functions} function(s), "
        f"{len(report.labels)} lock label(s), "
        f"{len(report.edges)} static order edge(s), "
        f"{len(report.unresolved)} unresolved call(s), "
        f"{len(report.findings)} finding(s)"
    )
    if report.clean:
        print(summary)
        return 0
    print(summary, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
