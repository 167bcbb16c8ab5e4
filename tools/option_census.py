"""Census of settable values in ``src/repro`` with fewer than two in use.

For each defaulted parameter of a public function, method or constructor
in ``src/repro`` (and each defaulted field of a public frozen dataclass,
a config object), collect the values the call sites in ``src/``,
``benchmarks/`` and ``examples/`` pass it; tests are not callers.  Call
sites are matched by callee name: ``f(...)`` and ``x.f(...)`` for a
function or method; the class name for a constructor, and the name of
each subclass that inherits it (every subclass, for a dataclass field);
``cls(...)`` in a class or one of its bases; ``super().__init__(...)``
for the bases; and ``replace(obj, field=...)`` for a dataclass field.
A call passes a value:

- by omitting the argument, or passing a constant equal to the default:
  the default;
- by passing another constant: that constant;
- by a *same-named forward* (``p=p``, or a positional ``p`` in ``p``'s
  place) of a parameter of an enclosing function that nothing rebinds:
  whatever values reach that parameter, followed through its own call
  sites (a function nothing calls by name passes on its own default);
- through ``**kwargs``, the enclosing function's own and otherwise
  unread: what that function's callers pass under the parameter's name;
  a ``**`` of anything else passes many values to each name a dict
  display in the same file spells, and omits the rest;
- by any other expression: many values.

A value with fewer than two values in use should be a constant.  Each
one kept is listed in :data:`KEPT_VALUES` with its reason; the census
lists each one that is not, and each ``KEPT_VALUES`` entry that excuses
nothing any more.

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
outlive what it excuses.  A read through a module outside ``repro``
reads nothing: an attribute of a name ``import X`` bound (the stdlib's
``gc.collect()`` is not ``repro.core.gc.collect``), or a name ``from X
import`` bound.

Run from the repo root::

    python tools/option_census.py              # values with < 2 in use
    python tools/option_census.py --all        # every value, with its uses
    python tools/option_census.py --readers    # definitions only tests read

The last line gives the totals.
"""

from __future__ import annotations

import ast
import operator
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
    "repro.core.gc.collect": (
        _SEAM + "the store-ops property check_handles_of_is_the_scan_"
        "asked_by_key (test_gossip) runs its `gc` op through it"
    ),
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

_FORMAT = "the paper's own format or model: "
_NULL = "a null object keeps its real class's signature"
_CANNOT_FOLLOW = "a caller outside tests the census cannot follow: "

#: Settable values with fewer than two values in use, kept on purpose:
#: ``qualname(parameter)`` -> why.  A value stays for one of four
#: reasons: the paper's own format or model; a null object; a test seam
#: (a named test sets it to check something else); or a caller outside
#: tests that the census cannot follow, named by file:line.
KEPT_VALUES = {
    "repro.fixpoint.runtime.Fixpoint.run(limits)": (
        _FORMAT + "every invocation carries its resource limits"
    ),
    "repro.flatware.asyncify.io_invocation(limits)": (
        _FORMAT + "every invocation carries its resource limits"
    ),
    "repro.flatware.asyncify.run_io_program(limits)": (
        _FORMAT + "every invocation carries its resource limits"
    ),
    "repro.flatware.wasi.run_program(limits)": (
        _FORMAT + "every invocation carries its resource limits"
    ),
    "repro.workloads.bptree.lookup_thunk(limits)": (
        _FORMAT + "every invocation carries its resource limits"
    ),
    "repro.fixpoint.billing.InvocationMeter(deadline_slack_hours)": (
        _FORMAT + "section 6's deadline discount"
    ),
    "repro.obs.__init__.NullObs.__init__(name)": _NULL,
    "repro.obs.metrics.Counter.inc(value)": (
        _SEAM + "TestCounter's amounts: every counter in src reads its "
        "component's state, and benchmarks/perf/layers.py prices inc(1)"
    ),
    "repro.baselines.base.Platform.build(seed)": (
        _SEAM + "the random draws of test_dist_engine's "
        "test_no_locality_moves_data, TestRay, TestPheromone, "
        "TestExternalDataIsFetchedOnce and test_admission's TestDeterminism"
    ),
    "repro.baselines.base.Platform.__init__(seed)": (
        _SEAM + "Platform.build(seed), forwarded"
    ),
    "repro.dist.engine.FixpointSim.__init__(seed)": (
        _SEAM + "Platform.build(seed), forwarded"
    ),
    "repro.dist.gossip.GossipConfig(membership)": (
        _SEAM + "TestEngineFailMachine: simulated placement avoids a "
        "tombstoned machine"
    ),
    "repro.dist.gossip.GossipConfig(suspect_after)": (
        _SEAM + "TestEngineFailMachine's detection delay"
    ),
    "repro.dist.gossip.GossipConfig(confirm_after)": (
        _SEAM + "TestEngineFailMachine's detection delay"
    ),
    "repro.dist.gossip.GossipConfig(rounds_per_output)": (
        _SEAM + "TestFixpointSimGossip's stale and aged schedulers"
    ),
    "repro.dist.gossip.GossipCoordinator.__init__(fanout)": (
        _SEAM + "TestRoundEquivalence at fanout 3, and test_membership's "
        "all-pairs rounds"
    ),
    "repro.dist.multitenancy.spiky_workload(stagger_slots)": (
        _SEAM + "TestPacking's aligned and staggered fleets"
    ),
    "repro.dist.admission.spike_job(peak_bytes)": (
        _SEAM + "TestAdmissionSafety's refusals and "
        "test_drr_admits_around_blocked_head_of_line"
    ),
    "repro.dist.admission.spike_job(sustained_bytes)": (
        _SEAM + "test_drr_admits_around_blocked_head_of_line's small job"
    ),
    "repro.workloads.corpus.make_corpus(seed)": (
        _SEAM + "the corpora of test_workloads and test_integration"
    ),
    "repro.workloads.titles.make_titles(seed)": (
        _SEAM + "TestBPTree's key sets"
    ),
    "repro.dist.admission.AdmissionController.__init__(capacity_bytes)": (
        _CANNOT_FOLLOW + "benchmarks/bench_admission.py:62,90 and "
        "examples/admission_billing.py:48 pass it to a `controller` "
        "parameter that holds the class"
    ),
}

#: A value set the census cannot bound: any expression but a constant or
#: a same-named forward.
MANY = None

_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos, ast.Not: operator.not_}
_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
    ast.LShift: operator.lshift,
}


def _name(node: ast.expr) -> str:
    return getattr(node, "attr", getattr(node, "id", ""))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _fold(node):
    """The value of a constant expression; ``ValueError`` for any other."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_fold(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_fold(node.left), _fold(node.right))
    if isinstance(node, ast.Tuple):
        return tuple(map(_fold, node.elts))
    raise ValueError(ast.unparse(node))


def _value(default: ast.expr):
    """The key a default is counted under: its value if constant, else
    its source text."""
    try:
        return ("=", _fold(default))
    except ValueError:
        return ("expr", ast.unparse(default))


def _init_false(value) -> bool:
    """``field(..., init=False)``: not a constructor parameter."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False
        for k in value.keywords
    )


def _field_default(value):
    """The default of a dataclass field's right-hand side, or ``None``."""
    if not (isinstance(value, ast.Call) and _name(value.func) == "field"):
        return value
    keywords = {k.arg: k.value for k in value.keywords}
    if "default" in keywords:
        return keywords["default"]
    return value if "default_factory" in keywords else None


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and _name(d.func) == "dataclass"
        and any(k.arg == "frozen" for k in d.keywords)
        for d in node.decorator_list
    )


class _Callable:
    """A function, method, constructor or frozen dataclass, as the census
    follows it: its parameters (name -> ``(position or None, default node
    or None)``), its ``*args``/``**kwargs`` names, and which call-site
    keys reach it (``kind``: "function", "init", "field" or "lambda")."""

    def __init__(self, node, kind, name, params, star=(), kwarg=None):
        self.node, self.kind, self.name = node, kind, name
        self.params, self.star, self.kwarg = params, star, kwarg


class _Site:
    """One call: its positional arguments up to the first ``*``, whether
    one follows, its keywords, its ``**`` arguments, the functions it sits
    in (outermost first), the dict keys its file spells, and whether an
    omitted argument keeps the value (``replace``) instead of defaulting."""

    def __init__(self, call, scope, keys, keeps=False):
        given = [] if keeps else call.args  # replace(obj, **fields)
        self.args = []
        for arg in given:
            if isinstance(arg, ast.Starred):
                break
            self.args.append(arg)
        self.star = len(self.args) < len(given)
        self.keywords = {k.arg: k.value for k in call.keywords if k.arg}
        self.splats = [k.value for k in call.keywords if k.arg is None]
        self.scope, self.keys, self.keeps = scope, keys, keeps


def _function(node, cls) -> _Callable:
    if isinstance(node, ast.Lambda):
        kind, name, bound = "lambda", "", 0
    else:
        kind = "init" if cls is not None and node.name == "__init__" else "function"
        name = cls.name if kind == "init" else node.name
        bound = int(
            cls is not None
            and "staticmethod" not in {_name(d) for d in node.decorator_list}
        )
    args = node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    params = {
        arg.arg: (index - bound, default)
        for index, (arg, default) in enumerate(zip(positional, defaults))
    }
    params.update(
        (arg.arg, (None, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
    )
    star = {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    return _Callable(node, kind, name, params, star, args.kwarg and args.kwarg.arg)


class _Census:
    """The call sites of every file in :data:`READERS`, and the values
    they pass, followed through forwards."""

    def __init__(self, root: Path):
        self.root = root
        self.trees = {}
        self.callables = {}
        self.bases = defaultdict(set)
        self.inits = set()
        self.fields = {}
        self.calls = defaultdict(list)
        self.memo = {}
        paths = [p for top in READERS for p in sorted((root / top).rglob("*.py"))]
        for path in paths:
            tree = self.trees[path] = _parse(path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.bases[node.name] |= {_name(b) for b in node.bases}
                    if any(
                        isinstance(f, ast.FunctionDef) and f.name == "__init__"
                        for f in node.body
                    ):
                        self.inits.add(node.name)
                    if _frozen_dataclass(node):
                        self.fields[node.name] = node
        for path, tree in self.trees.items():
            keys = frozenset(
                k.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Dict)
                for k in node.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            ) | frozenset(
                k.arg
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and _name(node.func) == "dict"
                for k in node.keywords
                if k.arg
            )
            self._walk(tree, (), None, keys)

    # -- call sites ---------------------------------------------------

    def function(self, node, cls=None) -> _Callable:
        if id(node) not in self.callables:
            self.callables[id(node)] = _function(node, cls)
        return self.callables[id(node)]

    def dataclass(self, cls: ast.ClassDef) -> _Callable:
        """A frozen dataclass's constructor, its fields as parameters (a
        frozen dataclass base's fields first)."""
        if id(cls) not in self.callables:
            params = {}
            for base in self.bases[cls.name]:
                if base in self.fields:
                    params.update(self.dataclass(self.fields[base]).params)
            for item in cls.body:
                if (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)
                    and not _init_false(item.value)
                ):
                    default = item.value and _field_default(item.value)
                    params[item.target.id] = (len(params), default)
            self.callables[id(cls)] = _Callable(cls, "field", cls.name, params)
        return self.callables[id(cls)]

    def _walk(self, node, scope, owner, keys):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                self._record(child, scope, owner, keys)
            if isinstance(child, ast.ClassDef):
                self._walk(child, scope, child.name, keys)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                method = node if isinstance(node, ast.ClassDef) else None
                fn = self.function(child, method)
                self._walk(child, scope + (fn,), owner, keys)
            else:
                self._walk(child, scope, owner, keys)

    def _record(self, call, scope, owner, keys):
        site = _Site(call, scope, keys)
        name = _name(call.func)
        if name == "cls" and owner:
            self.calls["cls:" + owner].append(site)
        elif (
            name == "__init__"
            and isinstance(call.func.value, ast.Call)
            and _name(call.func.value.func) == "super"
            and owner
        ):
            for base in self.bases[owner]:
                self.calls[base].append(site)
        elif name:
            self.calls[name].append(site)
            if name == "replace":  # dataclasses.replace(obj, field=...)
                self.calls["replace()"].append(_Site(call, scope, keys, keeps=True))

    def _related(self, name, step):
        """``name`` and the classes reached from it by ``step``, for as
        long as ``step`` yields them."""
        seen, todo = {name}, [name]
        while todo:
            for other in step(todo.pop()) - seen:
                seen.add(other)
                todo.append(other)
        return seen

    def sites(self, fn: _Callable):
        if fn.kind == "function":
            return self.calls[fn.name]
        if fn.kind == "lambda":
            return []

        def heirs(name):
            """Subclasses calling ``fn``'s constructor as their own."""
            return {
                sub
                for sub, bases in self.bases.items()
                if name in bases and (fn.kind == "field" or sub not in self.inits)
            }

        found = []
        for cls in self._related(fn.name, heirs):
            found += self.calls[cls]
        for cls in self._related(fn.name, lambda c: self.bases[c]):
            found += self.calls["cls:" + cls]
        if fn.kind == "field":
            found += self.calls["replace()"]
        return found

    # -- values -------------------------------------------------------

    def values(self, fn: _Callable, name: str):
        """The values in use for ``fn``'s parameter ``name``: a set of
        :func:`_value` keys, or :data:`MANY`."""
        position, default = fn.params[name]
        return self._gather(fn, name, position, default, (id(fn), name))

    def _gather(self, fn, name, position, default, key):
        if key not in self.memo:
            self.memo[key] = set()  # a forwarding cycle adds nothing
            sites = self.sites(fn)
            if not sites:
                found = MANY if default is None else {_value(default)}
            else:
                found = set()
                for site in sites:
                    more = self._passed(site, name, position, default)
                    if more is MANY:
                        found = MANY
                        break
                    found |= more
            self.memo[key] = found
        return self.memo[key]

    def _passed(self, site, name, position, default):
        if name in site.keywords:
            return self._expr(site.keywords[name], name, default, site)
        if position is not None:
            if position < len(site.args):
                return self._expr(site.args[position], name, default, site)
            if site.star:
                return MANY
        for splat in site.splats:
            hop = self._hop(splat, site)
            if hop is not None:
                key = (id(hop), "**" + name, default and _value(default))
                return self._gather(hop, name, None, default, key)
            if name in site.keys:
                return MANY
        if site.keeps or default is None:
            return set()
        return {_value(default)}

    def _binder(self, name, site):
        """The innermost enclosing function that binds ``name``, and
        whether it binds it as an unrebound parameter."""
        for fn in reversed(site.scope):
            stored = any(
                isinstance(n, ast.Name)
                and n.id == name
                and not isinstance(n.ctx, ast.Load)
                for n in ast.walk(fn.node)
            )
            if name in fn.params or name in fn.star or stored:
                return fn, name in fn.params and not stored
        return None, False

    def _hop(self, splat, site):
        """The function whose own ``**kwargs`` ``splat`` passes on whole,
        or ``None``."""
        if not isinstance(splat, ast.Name):
            return None
        fn, _ = self._binder(splat.id, site)
        if fn is None or fn.kwarg != splat.id:
            return None
        splats = {
            id(k.value) for n in ast.walk(fn.node) if isinstance(n, ast.Call)
            for k in n.keywords if k.arg is None
        }
        loads = [
            n for n in ast.walk(fn.node)
            if isinstance(n, ast.Name) and n.id == splat.id
        ]
        return fn if all(id(n) in splats for n in loads) else None

    def _expr(self, node, name, default, site):
        try:
            return {("=", _fold(node))}
        except ValueError:
            pass
        if isinstance(node, ast.Name) and node.id == name:
            fn, forward = self._binder(name, site)
            if forward:
                return self.values(fn, name)
            if fn is not None:
                return MANY
        if default is not None and ast.unparse(node) == ast.unparse(default):
            return {_value(default)}
        return MANY

    # -- the census ---------------------------------------------------

    def definitions(self):
        """``(label, callable, parameter)`` for each defaulted parameter
        of a public callable in ``src/repro``."""
        for path, tree in self.trees.items():
            if not path.is_relative_to(self.root / "src" / "repro"):
                continue
            module = ".".join(
                path.relative_to(self.root / "src").with_suffix("").parts
            )
            yield from self._defined(tree.body, module, None)

    def _defined(self, body, module, cls):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _frozen_dataclass(node):
                    fn = self.dataclass(node)
                    for item in node.body:
                        if (
                            isinstance(item, ast.AnnAssign)
                            and item.target.id in fn.params
                            and item.value is not None
                            and fn.params[item.target.id][1] is not None
                        ):
                            qual = f"{module}.{node.name}({item.target.id})"
                            yield qual, fn, item.target.id
                yield from self._defined(node.body, module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and node.name != "__init__":
                    continue
                fn = self.function(node, cls)
                prefix = module if cls is None else f"{module}.{cls.name}"
                for param, (position, default) in fn.params.items():
                    if default is not None and (position is None or position >= 0):
                        yield f"{prefix}.{node.name}({param})", fn, param


def in_use():
    """``label -> values`` for each defaulted value in ``src/repro``: a
    set of value keys, or :data:`MANY`."""
    census = _Census(ROOT)
    return {
        label: census.values(fn, param)
        for label, fn, param in census.definitions()
    }


def unset(found=None):
    """``(unexplained, stale)``: each value with fewer than two values in
    use that :data:`KEPT_VALUES` does not excuse, and each
    ``KEPT_VALUES`` key that excuses no such value."""
    found = in_use() if found is None else found
    few = {
        label
        for label, values in found.items()
        if values is not MANY and len(values) < 2
    }
    return sorted(few - set(KEPT_VALUES)), sorted(set(KEPT_VALUES) - few)


def _shown(values) -> str:
    if values is MANY:
        return "many"
    return "{" + ", ".join(
        sorted(repr(v) if kind == "=" else v for kind, v in values)
    ) + "}"


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


def _foreign(module: str) -> bool:
    return module.split(".")[0] != "repro"


def _through_foreign(tree):
    """The ids of the nodes in ``tree`` that read through a module
    outside ``repro``: the aliases of its imports, each use of a name
    ``from X import`` bound, and each attribute of a name ``import X``
    bound (``gc.collect`` is the stdlib's, not ``repro.core.gc``'s)."""
    modules, names, skip = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _foreign(alias.name):
                    modules.add(alias.asname or alias.name.split(".")[0])
                    skip.add(id(alias))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and _foreign(node.module):
                for alias in node.names:
                    names.add(alias.asname or alias.name)
                    skip.add(id(alias))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            skip.add(id(node))
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules | names:
                skip.add(id(node))
    return skip


def reads(paths):
    """``(bare, named)``: name -> ``[(path, line)]`` of every bare name
    (``f``), and of every attribute (``x.f``), imported name or string
    constant that is a name.  A bare name reads only a module-level
    definition: inside a function it is as likely a same-named
    parameter or local as the definition.  A read through a module
    outside ``repro`` reads nothing (:func:`_through_foreign`)."""
    bare, named = defaultdict(list), defaultdict(list)
    for path in paths:
        tree = _parse(path)
        skip = _through_foreign(tree)
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
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
    found = in_use()
    unexplained, stale = unset(found)
    for label, values in found.items():
        if "--all" in argv or label in unexplained:
            count = "many" if values is MANY else f"{len(values):4d}"
            print(f"{count:>4}  {label}  {_shown(values)}")
    for label in stale:
        print(f"   -  {label}  (KEPT_VALUES, but two or more values are in use)")
    print(
        f"# defaulted values: {len(found)}; fewer than two in use: "
        f"{len(unexplained)} unexplained, {len(KEPT_VALUES) - len(stale)} kept; "
        f"stale KEPT_VALUES entries: {len(stale)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
