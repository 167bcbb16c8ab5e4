"""Census of settable values in ``src/repro`` that no caller sets.

For each defaulted parameter of a public function, method or constructor
in ``src/repro`` (and each defaulted field of a public frozen dataclass,
a config object), count the call sites in ``src/``, ``benchmarks/``,
``examples/`` and ``tests/`` that pass it, positionally or by keyword.
Call sites are matched by callee name: ``f(...)`` and ``x.f(...)`` for a
function or method, the class name for a constructor, ``cls(...)`` in a
base class for its subclasses, ``super().__init__(...)`` for the bases,
and ``replace(obj, field=...)`` for a dataclass field.  A call that
forwards ``*args`` or ``**kwargs`` counts as passing every parameter.

A value every caller only forwards is as unset as one no caller passes.
``--forwarded`` lists the defaulted parameters that some call passes,
but only ever as a *same-named* value: ``p=p``, ``p=obj.p`` or a
positional ``p``/``obj.p``.  Such a parameter is a hop in a chain, and
the chain is followed by hand: look up who sets the forwarded name, and
if it is another listed or unset parameter, every hop always holds the
default.  (``AdmissionController.submit(deadline_slack_hours)`` was set
by no caller, and ``Platform.start`` and ``FixpointSim.start`` only
received it forwarded from ``admission.py``, so four hops carried 0.0.)
A ``*args``/``**kwargs`` call is not a same-named pass: the values
behind it are out of sight, so a parameter it reaches is never listed.

``--readers`` is the same census over definitions instead of values: it
lists each function, method and class in ``src/repro`` whose name nothing
in ``src/``, ``benchmarks/`` or ``examples/`` reads, matched by name as
callees are (``x.f``, ``from m import f``, and a bare ``f`` for a
module-level definition only: a method or property spelled bare is a
same-named parameter or local, not a read).  A string constant that is
a name reads it too, since some callers name what they patch by string
(``benchmarks/perf/spans.py``'s ``TARGETS``); a dotted string such as a
span name (``"gossip.absorb"``) reads nothing.  A read inside the
definition itself does not count, and dunder methods are skipped (the
language calls them).  Each definition kept although only tests read it
is listed in :data:`KEPT` with its reason; the census also lists each
``KEPT`` entry that names nothing unread any more, so the table cannot
outlive what it excuses.

Run from the repo root::

    python tools/option_census.py              # the values no caller sets
    python tools/option_census.py --all        # every value, with its count
    python tools/option_census.py --forwarded  # values only ever forwarded
    python tools/option_census.py --readers    # definitions only tests read

The last line gives the totals.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "benchmarks", "examples", "tests")
READERS = ("src", "benchmarks", "examples")
_NAME = re.compile(r"[A-Za-z_]\w*")

_VISITOR = "an ast.NodeVisitor hook: NodeVisitor.visit calls it by name"
_CONDITION = "threading.Condition's lock protocol: Condition calls it"
_SEAM = "test seam: "

#: Definitions that only tests read, kept on purpose: qualname (or the
#: qualname of an enclosing module or class) -> why.  A test seam is kept
#: because a test checks something else through it, and would otherwise
#: have to re-inline its body.
KEPT = {
    "repro.core.api.FixAPI": "the paper's Fix API surface (core/api.py)",
    "repro.core.attestation": "pay-for-results' end-to-end audit (README)",
    "repro.dist.scheduler.DataflowScheduler.explain": (
        "why a task landed where it did (README); ROADMAP items 2, 6 "
        "and 9 build on it"
    ),
    "repro.analysis.lint._Checker.visit_Call": _VISITOR,
    "repro.analysis.lint._Checker.visit_Import": _VISITOR,
    "repro.analysis.lint._Checker.visit_ImportFrom": _VISITOR,
    "repro.analysis.lint._Checker.visit_ExceptHandler": _VISITOR,
    "repro.codelets.sandbox._Validator.visit_Name": _VISITOR,
    "repro.codelets.sandbox._Validator.visit_Attribute": _VISITOR,
    "repro.codelets.sandbox._Validator.visit_FunctionDef": _VISITOR,
    "repro.analysis.sync._TrackedLock._is_owned": _CONDITION,
    "repro.analysis.sync._TrackedLock._release_save": _CONDITION,
    "repro.analysis.sync._TrackedLock._acquire_restore": _CONDITION,
    "repro.analysis.sync.RaceReport.clean": _SEAM + "test_analysis' verdicts",
    "repro.baselines.base.RunResult.as_row": (
        _SEAM + "TestASecondRunReportsItsOwnWork compares two runs' rows"
    ),
    "repro.baselines.minio.MinIO.size_of": _SEAM + "TestMinIO's preload size",
    "repro.bench.harness.ExperimentResult.systems": (
        _SEAM + "test_bench_harness' rows per system"
    ),
    "repro.codelets.linker.Linker.cache_size": _SEAM + "TestLinker's cache",
    "repro.core.gc.index_from_repository": (
        _SEAM + "the GC recovery tests' recipe index"
    ),
    "repro.core.minrepo.Footprint.is_subset_of": (
        _SEAM + "the footprint subset properties"
    ),
    "repro.core.storage.Repository.absorb": (
        _SEAM + "test_gossip's absorbed stores for the shipping filter"
    ),
    "repro.core.storage.Repository.result_count": (
        _SEAM + "test_results_memoization's memo size"
    ),
    "repro.core.storage.Repository.data_bytes": (
        _SEAM + "the stores' payload total in test_data_storage and "
        "the shipping-filter oracle"
    ),
    "repro.core.thunks.identified_value": (
        _SEAM + "TestIdentification's round trip"
    ),
    "repro.dist.engine.FixpointSim.fail_machine": (
        _SEAM + "the simulated kill in test_membership"
    ),
    "repro.dist.engine.FixpointSim.restart_machine": (
        _SEAM + "the simulated restart in test_membership"
    ),
    "repro.dist.gossip.GossipCoordinator.views": (
        _SEAM + "the round and restart tests' registered views"
    ),
    "repro.dist.gossip.exchange": _SEAM + "the gossip tests' direct handshake",
    "repro.dist.membership.MembershipView.declare_dead": (
        _SEAM + "the membership tests' ground-truth kill"
    ),
    "repro.dist.membership.MembershipView.live_nodes": (
        _SEAM + "test_membership's liveness checks"
    ),
    "repro.dist.multitenancy.AppProfile.lifetime": (
        _SEAM + "the admission tests' profiles"
    ),
    "repro.flatware.archive.compress_archive": (
        _SEAM + "extract_compressed's round trip"
    ),
    "repro.flatware.fs.read_file": _SEAM + "build_fs' round-trip property",
    "repro.flatware.fs.list_dir": _SEAM + "build_fs' entry order",
    "repro.sim.engine.any_of": _SEAM + "the simulator's process-tree property",
}


def _name(node: ast.expr) -> str:
    return getattr(node, "attr", getattr(node, "id", ""))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _init_false(value) -> bool:
    """``field(..., init=False)``: not a constructor parameter."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False
        for k in value.keywords
    )


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and _name(d.func) == "dataclass"
        and any(k.arg == "frozen" for k in d.keywords)
        for d in node.decorator_list
    )


def definitions(sources):
    """``(qualname, callee, kind, [(param, position or None)])`` for each
    public callable (``kind``: "function", "init" or "field")."""
    for path in sources:
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)

        def visit(body, cls=None):
            for node in body:
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    if _frozen_dataclass(node):
                        fields = [
                            item.target.id
                            for item in node.body
                            if isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)
                            and "ClassVar" not in ast.unparse(item.annotation)
                            and not _init_false(item.value)
                        ]
                        defaulted = [
                            (item.target.id, fields.index(item.target.id))
                            for item in node.body
                            if isinstance(item, ast.AnnAssign)
                            and item.target.id in fields
                            and item.value is not None
                        ]
                        if defaulted:
                            yield f"{module}.{node.name}", node.name, "field", defaulted
                    yield from visit(node.body, node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name.startswith("_") and node.name != "__init__":
                        continue
                    args = node.args
                    positional = args.posonlyargs + args.args
                    bound = cls is not None and "staticmethod" not in {
                        _name(d) for d in node.decorator_list
                    }
                    first = len(positional) - len(args.defaults)
                    params = [
                        (arg.arg, index - bound)
                        for index, arg in enumerate(positional)
                        if index >= first
                    ]
                    params += [
                        (arg.arg, None)
                        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None
                    ]
                    if not params:
                        continue
                    if cls is None:
                        yield f"{module}.{node.name}", node.name, "function", params
                    elif node.name == "__init__":
                        yield f"{module}.{cls.name}.__init__", cls.name, "init", params
                    else:
                        qual = f"{module}.{cls.name}.{node.name}"
                        yield qual, node.name, "function", params

        yield from visit(_parse(path).body)


def call_sites(paths, bases):
    """callee name -> ``[(positional names, keywords, forwards all)]``:
    the name each positional argument's value has (``""`` for anything
    but ``x`` or ``obj.x``), and keyword -> whether its value is
    same-named."""
    calls = defaultdict(list)
    for path in paths:
        tree = _parse(path)
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for inner in ast.walk(cls):
                    owner[id(inner)] = cls.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            site = (
                [_name(a) for a in node.args if not isinstance(a, ast.Starred)],
                {k.arg: _name(k.value) == k.arg for k in node.keywords if k.arg},
                any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords),
            )
            name = _name(node.func)
            if name == "cls" and id(node) in owner:
                calls["cls:" + owner[id(node)]].append(site)
            elif (
                name == "__init__"
                and isinstance(node.func.value, ast.Call)
                and _name(node.func.value.func) == "super"
                and id(node) in owner
            ):
                for base in bases[owner[id(node)]]:
                    calls[base].append(site)
            elif name:
                calls[name].append(site)
                if name == "replace":  # dataclasses.replace(obj, field=...)
                    calls["replace()"].append(([], site[1], site[2]))
    return calls


def declared(sources):
    """``(qualname, name, path, first line, last line, module level)``
    for each function, method and class at module or class level (dunder
    methods skipped)."""
    for path in sources:
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)

        def visit(body, prefix, top):
            for node in body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                qual = f"{prefix}.{node.name}"
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield qual, node.name, path, node.lineno, node.end_lineno, top
                if isinstance(node, ast.ClassDef):
                    yield from visit(node.body, qual, False)

        yield from visit(_parse(path).body, module, True)


def reads(paths):
    """``(bare, named)``: name -> ``[(path, line)]`` of every bare name
    (``f``), and of every attribute (``x.f``), imported name or string
    constant that is a name.  A bare name reads only a module-level
    definition: inside a function it is as likely a same-named
    parameter or local as the definition."""
    bare, named = defaultdict(list), defaultdict(list)
    for path in paths:
        for node in ast.walk(_parse(path)):
            found = named
            if isinstance(node, ast.Name):
                names, found = [node.id], bare
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value] if _NAME.fullmatch(node.value) else []
            else:
                continue
            for name in names:
                found[name].append((path, node.lineno))
    return bare, named


def _kept_by(qual):
    return next(
        (key for key in KEPT if qual == key or qual.startswith(key + ".")), None
    )


def unread():
    """``(unexplained, stale)``: each definition only tests read and
    :data:`KEPT` does not excuse, as ``(qualname, path, line, lines)``;
    and each ``KEPT`` key that excuses no such definition."""
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    bare, named = reads(
        p for top in READERS for p in sorted((ROOT / top).rglob("*.py"))
    )
    unexplained, used = [], set()
    for qual, name, path, first, last, top in declared(sources):
        found = named[name] + bare[name] if top else named[name]
        if any(p != path or not first <= line <= last for p, line in found):
            continue
        key = _kept_by(qual)
        if key is None:
            unexplained.append((qual, path, first, last - first + 1))
        used.add(key)
    return unexplained, sorted(set(KEPT) - used)


def main(argv) -> int:
    if "--readers" in argv:
        unexplained, stale = unread()
        for qual, path, line, lines in unexplained:
            where = f"{path.relative_to(ROOT)}:{line}"
            print(f"{lines:4d}  {qual}  ({where})")
        for key in stale:
            print(f"   -  {key}  (KEPT, but nothing it names is unread)")
        print(
            f"# read only by tests: {len(unexplained)} unexplained "
            f"({sum(u[3] for u in unexplained)} lines), {len(KEPT)} kept; "
            f"stale KEPT entries: {len(stale)}"
        )
        return 0
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    bases = defaultdict(set)
    for path in sources:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] |= {_name(b) for b in node.bases}

    def ancestors(name):
        seen, todo = {name}, [name]
        while todo:
            for base in bases[todo.pop()] - seen:
                seen.add(base)
                todo.append(base)
        return seen

    paths = [p for top in CALLERS for p in sorted((ROOT / top).rglob("*.py"))]
    calls = call_sites(paths, bases)
    forwarded_only = "--forwarded" in argv
    total = unset = forwarded = 0
    for qual, callee, kind, params in definitions(sources):
        sites = list(calls[callee])
        if kind == "init":
            for base in ancestors(callee):
                sites += calls["cls:" + base]
        elif kind == "field":
            sites += calls["replace()"]
        for param, position in params:
            passed = through = 0
            for names, keywords, forwards in sites:
                if param in keywords:
                    through += keywords[param]
                elif position is not None and position < len(names):
                    through += names[position] == param
                elif not forwards:
                    continue
                passed += 1
            total += 1
            unset += passed == 0
            only_forwarded = 0 < passed == through
            forwarded += only_forwarded
            shown = only_forwarded if forwarded_only else passed == 0
            if shown or "--all" in argv:
                print(f"{passed:4d}  {qual}({param})")
    line = f"# defaulted values: {total}; set by no caller: {unset}"
    if forwarded_only:
        line += f"; set only by forwarding: {forwarded}"
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
