"""Best-effort program model and call graph for :mod:`repro.analysis.flow`.

This module turns a Python source tree into a *program model*: every
module, class, and function indexed; attribute and local-variable types
inferred just far enough to resolve method calls; every tracked-factory
lock identified by its **creation-site label** (the same label
:mod:`repro.analysis.sync` gives the runtime object, so the static and
dynamic lock graphs speak one vocabulary).

One walker (:class:`_Walker`) evaluates every expression and binds every
statement.  Run over module bodies, class bodies and methods with its
ops discarded it *infers* - module globals, class-body fields and
``self.x = ...`` attribute types, to a cross-class fixpoint; run once
more over every function, recording, it lowers the body into a flat
list of *ops*:

``Acquire``
    Entering ``with <lock>:`` where the context expression types to a
    tracked lock, recorded with the labels already held at that point.

``CallSite``
    Any call, resolved to zero or more target functions, with the held
    labels at the call.  Unresolved calls carry a *reason* (``super``,
    ``dynamic-callable``, ``container-callable``, ``unknown-receiver``,
    ...) - they are documented, never fatal: a call the analysis cannot
    see is missing coverage, not a crash.

``Blocking``
    A base may-block fact at this position: ``time.sleep``,
    ``Condition.wait`` (its own lock excluded from the held set, since
    waiting releases it), ``Event.wait``/``Thread.join``, ``.result()``
    / ``.join()`` / ``.wait()`` on unknown receivers, ``socket``/
    ``select`` operations, and every ``note_blocking(...)`` call site.

Deliberate modeling choices (mirroring the runtime semantics):

* ``threading.Thread(target=fn)`` and worker-pool task submission do
  **not** create a call edge at the registration site - the target runs
  later on another thread with an *empty* lock context, exactly as the
  dynamic tracker would observe it.  The target's own body is still
  analyzed standalone (nested functions and lambdas each get their own
  :class:`FunctionInfo`).
* Callables stored in attributes or containers and invoked through them
  (``self._fn()``, ``handlers[k]()``) resolve to nothing and are
  recorded as unresolved ``dynamic-callable`` / ``container-callable``.
* Decorated functions are modeled as their undecorated selves
  (``@property`` getters are additionally invoked at attribute reads).

Resolution is by bare name where imports would need full import-system
emulation: class names are unique in this tree (checked cheaply), and
ambiguous module-level function names resolve only within their own
module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from .lint import canonical, dotted, last_identifier, python_files

__all__ = [
    "Acquire",
    "Blocking",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LockType",
    "ModuleInfo",
    "Program",
    "build_program",
    "build_program_from_sources",
]


# ----------------------------------------------------------------------
# Types.  ``None`` means unknown; everything else is a small marker.


@dataclass(frozen=True)
class LockType:
    """A tracked-factory lock identified by its creation-site label."""

    label: str
    reentrant: bool
    condition: bool


@dataclass(frozen=True)
class ClassType:
    """An instance of a known class (or a pseudo-class like
    ``threading.Event`` the analysis types specially)."""

    qname: str


@dataclass(frozen=True)
class ClassRef:
    """The class object itself (``Foo``, before a call constructs it)."""

    qname: str


@dataclass(frozen=True)
class FuncRef:
    """A first-class reference to a known function (``f = self._serve``)."""

    qname: str


@dataclass(frozen=True)
class DictType:
    value: Optional[object]


@dataclass(frozen=True)
class ItemsType:
    """The result of ``dict.items()``: iterating yields (key, value)."""

    value: Optional[object]


@dataclass(frozen=True)
class ListType:
    elem: Optional[object]


Type = Optional[object]


# ----------------------------------------------------------------------
# Ops emitted per function.


@dataclass(frozen=True)
class Acquire:
    label: str
    reentrant: bool
    condition: bool
    line: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    targets: Tuple[str, ...]
    reason: Optional[str]  # set when targets is empty and the call matters
    callee: str  # source text of the callee, for messages
    line: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class Blocking:
    what: str
    line: int
    held: Tuple[str, ...]  # own condition lock already excluded


# ----------------------------------------------------------------------
# Program structure.


@dataclass
class FunctionInfo:
    qname: str
    name: str
    relpath: str
    lineno: int
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    module: "ModuleInfo"
    cls: Optional["ClassInfo"] = None
    is_property: bool = False
    is_static: bool = False
    decorators: Tuple[str, ...] = ()
    return_type: Type = None
    closure: Dict[str, Type] = field(default_factory=dict)
    acquires: List[Acquire] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    blocks: List[Blocking] = field(default_factory=list)

    def __repr__(self) -> str:  # keep debug output short
        return f"<fn {self.qname}>"


@dataclass
class ClassInfo:
    qname: str
    node: ast.ClassDef
    module: "ModuleInfo"
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, Type] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"<class {self.qname}>"


@dataclass
class ModuleInfo:
    relpath: str
    dotted: str
    tree: ast.Module
    #: the text ``tree`` was parsed from (flow reads its suppression
    #: comments here instead of opening the file a second time)
    source: str = ""
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    globals_types: Dict[str, Type] = field(default_factory=dict)
    #: local name -> canonical dotted target ("t" -> "time",
    #: "sleep" -> "time.sleep", "TrackedLock" -> "...sync.TrackedLock").
    imports: Dict[str, str] = field(default_factory=dict)


@dataclass
class Program:
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: bare class name -> ClassInfo (class names are unique in-tree;
    #: a collision keeps the first and records the name as ambiguous).
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    ambiguous_classes: Set[str] = field(default_factory=set)
    errors: List[str] = field(default_factory=list)

    # -- lookups -------------------------------------------------------

    def resolve_class(self, name: str) -> Optional[ClassInfo]:
        """The class a bare or dotted ``name`` ends in, unless ambiguous."""
        name = name.rsplit(".", 1)[-1]
        if name in self.ambiguous_classes:
            return None
        return self.classes.get(name)

    def _lineage(self, cls: ClassInfo) -> Iterator[ClassInfo]:
        """``cls`` and then its (bare-named) bases, breadth first."""
        seen: Set[str] = set()
        todo = [cls]
        while todo:
            cur = todo.pop(0)
            if cur.qname in seen:
                continue
            seen.add(cur.qname)
            yield cur
            for base in cur.bases:
                parent = self.resolve_class(base)
                if parent is not None:
                    todo.append(parent)

    def method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls`` and its (bare-named) bases."""
        for cur in self._lineage(cls):
            if name in cur.methods:
                return cur.methods[name]
        return None

    def attr_type(self, cls: ClassInfo, name: str) -> Type:
        for cur in self._lineage(cls):
            if name in cur.attr_types:
                return cur.attr_types[name]
        return None


# ----------------------------------------------------------------------
# Name tables and small helpers.

_FACTORY_KINDS = {
    "TrackedLock": (False, False),
    "TrackedRLock": (True, False),
    "TrackedCondition": (False, True),
}

_LIST_BUILTINS = {"list", "sorted", "tuple", "reversed"}

_OPAQUE_BUILTINS = {
    "len", "range", "min", "max", "sum", "enumerate", "zip", "isinstance",
    "issubclass", "repr", "str", "int", "float", "bool", "print", "iter",
    "next", "getattr", "setattr", "hasattr", "id", "hash", "abs", "any",
    "all", "bytes", "bytearray", "set", "frozenset", "dict", "type",
    "vars", "format", "divmod", "round", "map", "filter", "callable",
    "open", "ord", "chr", "hex", "bin", "oct", "object", "memoryview",
    "globals", "locals", "exec", "eval", "input", "pow", "slice",
    "staticmethod", "classmethod", "property", "delattr",
}

_DICT_VALUE_METHODS = {"get", "pop", "setdefault"}

_STR_ANN_CONTAINERS_LIST = {
    "List", "Sequence", "Iterable", "Iterator", "Deque", "Set",
    "FrozenSet", "Collection", "MutableSequence", "list", "set",
    "frozenset", "deque",
}
_STR_ANN_CONTAINERS_DICT = {
    "Dict", "Mapping", "MutableMapping", "dict", "DefaultDict",
    "OrderedDict", "Counter",
}

#: The pseudo-classes typed specially, and their one blocking method.
_PSEUDO_CLASS_BLOCKING = {
    "threading.Event": {"wait": "Event.wait"},
    "threading.Thread": {"join": "Thread.join"},
}

#: Why a call whose callee is neither a name nor an attribute is
#: unresolved, by the callee's node kind (anything else: the default).
_INDIRECT_CALLEE = {
    ast.Call: "call-of-call",
    ast.Subscript: "container-callable",
}


def _const_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _merge(types: Dict[str, Type], name: str, t: Type) -> bool:
    """Record ``name: t`` unless a type is already known (a lock always
    wins over a non-lock); True when ``types`` changed."""
    cur = types.get(name)
    if t is None or t == cur:
        return False
    if cur is None or (
        isinstance(t, LockType) and not isinstance(cur, LockType)
    ):
        types[name] = t
        return True
    return False


# ----------------------------------------------------------------------
# Builder: module/class/function index and annotation types.


class _Builder:
    def __init__(self, program: Program):
        self.program = program

    # -- pass 1: index modules ----------------------------------------

    def index_module(
        self, relpath: str, tree: ast.Module, source: str
    ) -> ModuleInfo:
        name = relpath[:-3].replace("/", ".").replace("\\", ".")
        mod = ModuleInfo(relpath=relpath, dotted=name, tree=tree, source=source)
        self.program.modules[relpath] = mod
        for node in tree.body:
            self._index_top(mod, node)
        return mod

    def _index_top(self, mod: ModuleInfo, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                mod.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                target = f"{base}.{alias.name}" if base else alias.name
                mod.imports[alias.asname or alias.name] = target
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = self._make_function(mod, None, node, f"{mod.dotted}.{node.name}")
            mod.functions[node.name] = fn
        elif isinstance(node, ast.ClassDef):
            self._index_class(mod, node)
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING guards and import fallbacks.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._index_top(mod, child)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{mod.dotted}.{node.name}"
        bases = (last_identifier(base) for base in node.bases)
        cls = ClassInfo(
            qname=qname,
            node=node,
            module=mod,
            bases=tuple(b for b in bases if b),
        )
        mod.classes[node.name] = cls
        if node.name in self.program.classes:
            self.program.ambiguous_classes.add(node.name)
        else:
            self.program.classes[node.name] = cls
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._make_function(
                    mod, cls, item, f"{qname}.{item.name}"
                )
                cls.methods[item.name] = fn

    def _make_function(
        self,
        mod: ModuleInfo,
        cls: Optional[ClassInfo],
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        qname: str,
    ) -> FunctionInfo:
        decorators = tuple(
            dotted(d.func) if isinstance(d, ast.Call) else dotted(d)
            for d in node.decorator_list
        )
        fn = FunctionInfo(
            qname=qname,
            name=node.name,
            relpath=mod.relpath,
            lineno=node.lineno,
            node=node,
            module=mod,
            cls=cls,
            is_property=any(
                d in ("property", "cached_property", "functools.cached_property")
                for d in decorators
            ),
            is_static=any(d == "staticmethod" for d in decorators),
            decorators=decorators,
        )
        self.program.functions[qname] = fn
        return fn

    # -- annotations ---------------------------------------------------

    def ann_type(self, mod: ModuleInfo, node: Optional[ast.expr]) -> Type:
        """The instance type an annotation promises (string annotations
        are parsed; ``Optional``/``Union`` unwrap to their first known
        member; the typing containers become Dict/ListType)."""
        text = _const_str(node)
        if text is not None:
            try:
                node = ast.parse(text, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            if dotted(node) in _PSEUDO_CLASS_BLOCKING:
                return ClassType(dotted(node))
            cls = self.class_for_name(mod, last_identifier(node))
            return ClassType(cls.qname) if cls is not None else None
        # Only ``Head[...]`` has a slice; anything else promises nothing.
        inner = getattr(node, "slice", None)
        if inner is None:
            return None
        head = last_identifier(node.value)
        elts = list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
        if head in ("Optional", "Union"):
            members = (self.ann_type(mod, e) for e in elts)
            return next((t for t in members if t is not None), None)
        if head in _STR_ANN_CONTAINERS_DICT and len(elts) == 2:
            return DictType(self.ann_type(mod, elts[1]))
        if head in _STR_ANN_CONTAINERS_LIST:
            return ListType(self.ann_type(mod, elts[0]))
        return None

    def class_for_name(
        self, mod: ModuleInfo, name: str
    ) -> Optional[ClassInfo]:
        if not name:
            return None
        cls = mod.classes.get(name)
        if cls is not None:
            return cls
        return self.program.resolve_class(mod.imports.get(name, name))


def _param_env(builder: _Builder, fn: FunctionInfo) -> Dict[str, Type]:
    env: Dict[str, Type] = dict(fn.closure)
    args = fn.node.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    for a in params:
        env[a.arg] = builder.ann_type(fn.module, a.annotation)
    if fn.cls is not None and not fn.is_static and params:
        if params[0].arg == "self":
            env["self"] = ClassType(fn.cls.qname)
        elif params[0].arg == "cls":
            env["cls"] = ClassRef(fn.cls.qname)
    return env


# ----------------------------------------------------------------------
# The walker: the one place that dispatches on AST node kinds.


class _Walker:
    """Evaluate expressions (:meth:`wtype`) and bind statements
    (:meth:`stmt`) of one scope: a module body, a class body, or - given
    ``fn`` - a function body.

    The walk is the same whatever it is for; the uses differ only in
    where its ops go.  With ``record`` they are appended to ``fn`` and
    nested functions are registered for their own walk.  Without, the
    ops are discarded and the walk *infers*: ``self.x = ...`` merges
    into the class's ``attr_types``, and outside a function a plain
    name binds a class-body field or a module global.
    """

    def __init__(
        self,
        builder: _Builder,
        mod: ModuleInfo,
        cls: Optional[ClassInfo] = None,
        fn: Optional[FunctionInfo] = None,
        record: bool = False,
    ):
        self.builder = builder
        self.program = builder.program
        self.mod = mod
        self.cls = cls
        self.fn = fn
        self.record = record
        self.env: Dict[str, Type] = _param_env(builder, fn) if fn else {}
        #: where a plain-name binding lands outside a function body
        self.fields: Optional[Dict[str, Type]] = None
        if fn is None:
            self.fields = cls.attr_types if cls else mod.globals_types
        self.changed = False  # an inferred type was added
        self.held: List[str] = []  # labels of the enclosing ``with``s
        self.nested: List[FunctionInfo] = []
        self._anon = 0

    def walk(self) -> "_Walker":
        scope = self.fn or self.cls
        node = scope.node if scope else self.mod.tree
        if isinstance(node, ast.Lambda):
            self.wtype(node.body)
        else:
            self._block(node.body)
        return self

    # -- statements ----------------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for s in stmts:
            self.stmt(s)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            t = self.wtype(node.value)
            for target in node.targets:
                self._bind(target, t)
        elif isinstance(node, ast.AnnAssign):
            t = None
            if node.value is not None:
                t = self.wtype(node.value)
            if t in (None, DictType(None)):
                # An empty container knows less than its annotation.
                t = self.builder.ann_type(self.mod, node.annotation) or t
            self._bind(node.target, t)
        elif isinstance(node, ast.AugAssign):
            self.wtype(node.value)
        elif isinstance(node, (ast.If, ast.While)):
            self.wtype(node.test)
            self._block(node.body + node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            it = self.wtype(node.iter)
            target = node.target
            if (
                isinstance(it, ItemsType)
                and isinstance(target, ast.Tuple)
                and len(target.elts) == 2
            ):
                self._bind(target.elts[0], None)
                self._bind(target.elts[1], it.value)
            else:
                self._bind(target, it.elem if isinstance(it, ListType) else None)
            self._block(node.body + node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
        elif isinstance(node, ast.Try):
            self._block(node.body)
            for handler in node.handlers:
                self._block(handler.body)
            self._block(node.orelse + node.finalbody)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self.record:
                self.env[node.name] = self._nested(node, node.name)
        elif not isinstance(node, ast.ClassDef):
            # Expr/Return/Raise/Assert/Delete: just their expressions
            # (Pass/Break/Import/Global/... have none).  Nested classes
            # are out of scope for the model.
            self._operands(node)

    def _bind(self, target: ast.expr, t: Type) -> None:
        if isinstance(target, ast.Name):
            if self.fields is None:
                self.env[target.id] = t
            else:
                self.changed |= _merge(self.fields, target.id, t)
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self._bind(elt, None)
        elif isinstance(target, ast.Attribute):
            self.wtype(target.value)
            # Attribute types settle while inferring; the recording
            # walk reads them (and must not see them move under it).
            if (
                not self.record
                and self.cls is not None
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.changed |= _merge(self.cls.attr_types, target.attr, t)

    def _with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        outer = len(self.held)
        exits: List[Tuple[FunctionInfo, int]] = []
        for item in node.items:
            t = self.wtype(item.context_expr)
            line = item.context_expr.lineno
            if isinstance(t, LockType):
                if self.record:
                    held = tuple(self.held)
                    self.fn.acquires.append(
                        Acquire(t.label, t.reentrant, t.condition, line, held)
                    )
                self.held.append(t.label)
            elif isinstance(t, ClassType):
                cls = self.program.resolve_class(t.qname)
                if cls is not None:
                    enter = self.program.method(cls, "__enter__")
                    exit_ = self.program.method(cls, "__exit__")
                    if enter is not None:
                        self._site([enter], None, "__enter__", line)
                    if exit_ is not None:
                        exits.append((exit_, line))
            if isinstance(item.optional_vars, ast.Name):
                self._bind(item.optional_vars, t)
        self._block(node.body)
        for exit_fn, line in exits:
            self._site([exit_fn], None, "__exit__", line)
        del self.held[outer:]

    # -- expressions ---------------------------------------------------

    def wtype(self, node: ast.expr) -> Type:
        """Walk ``node`` (emitting ops for calls) and return its
        best-effort type; never raises."""
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            vt = self.wtype(node.value)
            if not isinstance(vt, ClassType):
                return None
            cls = self.program.resolve_class(vt.qname)
            if cls is None:
                return None
            m = self.program.method(cls, node.attr)
            if m is not None and m.is_property and isinstance(
                node.ctx, ast.Load
            ):
                # Reading a property runs its getter.
                self._site([m], None, node, node.lineno)
                return m.return_type
            t = self.program.attr_type(cls, node.attr)
            if t is None and m is not None:
                t = m.return_type if m.is_property else FuncRef(m.qname)
            return t
        if isinstance(node, ast.Name):
            return self.name_type(node.id)
        if isinstance(node, ast.Lambda):
            return self._nested(node, f"<lambda:{node.lineno}>")
        if isinstance(node, ast.IfExp):
            self.wtype(node.test)
            return self._first((node.body, node.orelse))
        if isinstance(node, ast.NamedExpr):
            t = self.wtype(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = t
            return t
        if isinstance(node, ast.Await):
            return self.wtype(node.value)
        if isinstance(node, ast.Subscript):
            vt = self.wtype(node.value)
            self.wtype(node.slice)
            if isinstance(vt, DictType):
                return vt.value
            if isinstance(vt, ListType):
                return vt.elem
            return None
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                self.wtype(gen.iter)
                for cond in gen.ifs:
                    self.wtype(cond)
            if isinstance(node, ast.DictComp):
                self.wtype(node.key)
                self.wtype(node.value)
                return DictType(None)
            self.wtype(node.elt)
            return ListType(None)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return ListType(self._first(node.elts))
        if isinstance(node, ast.Dict):
            self._first(key for key in node.keys if key is not None)
            return DictType(self._first(node.values))
        if isinstance(node, ast.BoolOp):
            return self._first(node.values)
        self._operands(node)  # everything else: type unknown
        return None

    def _operands(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.wtype(child)

    def _first(self, nodes: Iterable[ast.expr]) -> Type:
        """Walk every node; the first type known among them."""
        first: Type = None
        for node in nodes:
            t = self.wtype(node)
            first = first or t
        return first

    def name_type(self, name: str) -> Type:
        if name in self.env:
            return self.env[name]
        if name in self.mod.globals_types:
            return self.mod.globals_types[name]
        if name in self.mod.functions:
            return FuncRef(self.mod.functions[name].qname)
        cls = self.builder.class_for_name(self.mod, name)
        if cls is not None:
            return ClassRef(cls.qname)
        return None

    def canonical(self, node: ast.expr) -> str:
        """Alias-aware dotted name: ``t.monotonic`` -> ``time.monotonic``."""
        return canonical(dotted(node), self.mod.imports)

    # -- calls ---------------------------------------------------------

    def _call(self, node: ast.Call) -> Type:
        """Walk one call and emit its op.  The receiver chain and the
        arguments go first: their calls are real and happen before this
        one."""
        func = node.func
        recv: Type = None
        if isinstance(func, ast.Attribute):
            recv = self.wtype(func.value)
        elif not isinstance(func, ast.Name):
            recv = self.wtype(func)
        args = [self.wtype(arg) for arg in node.args]
        kwargs = {kw.arg: self.wtype(kw.value) for kw in node.keywords}
        if self.fields is not None and last_identifier(func) == "field":
            # A dataclass field holds whatever its default_factory makes.
            for kw in node.keywords:
                if kw.arg == "default_factory":
                    if isinstance(kw.value, ast.Lambda):
                        return self.wtype(kw.value.body)
                    made = ast.Call(func=kw.value, args=[], keywords=[])
                    return self._call(ast.copy_location(made, node))

        kind, payload, result = self.resolve_call(node, recv, args, kwargs)
        if kind == "targets":
            self._site(payload, None, func, node.lineno)
        elif kind == "unresolved":
            self._site((), payload, func, node.lineno)
        elif kind == "blocking" and self.record:
            what, exempt = payload
            held = tuple(label for label in self.held if label != exempt)
            self.fn.blocks.append(Blocking(what, node.lineno, held))
        # "opaque": nothing to emit.
        return result

    def _site(
        self,
        targets: Sequence[FunctionInfo],
        reason: Optional[str],
        callee: Union[str, ast.expr],
        line: int,
    ) -> None:
        if not self.record:
            return
        if not isinstance(callee, str):
            callee = ast.unparse(callee)
        qnames = tuple(t.qname for t in targets)
        self.fn.calls.append(
            CallSite(qnames, reason, callee, line, tuple(self.held))
        )

    def resolve_call(
        self,
        node: ast.Call,
        recv: Type,
        args: List[Type],
        kwargs: Dict[Optional[str], Type],
    ) -> Tuple[str, object, Type]:
        """Classify one call whose receiver (``recv``: the type left of
        the dot, or of a callee that is itself an expression) and
        arguments the walker has already typed.

        Returns ``(kind, payload, result_type)`` where kind is one of
        ``targets`` (payload: list of FunctionInfo), ``blocking``
        (payload: (what, exempt_label)), ``opaque`` (payload: None) or
        ``unresolved`` (payload: reason).
        """
        func = node.func
        name = last_identifier(func)

        # Tracked-lock factories, by local or dotted name.
        if name in _FACTORY_KINDS and self.mod.imports.get(
            name, name
        ).endswith(name):
            return "opaque", None, self._factory_lock(name, node, args, kwargs)

        canon = self.canonical(func)
        if canon:
            if canon.rsplit(".", 1)[-1] == "note_blocking":
                what = _const_str(node.args[0]) if node.args else None
                return "blocking", (what or "note_blocking", None), None
            if canon == "time.sleep":
                return "blocking", ("time.sleep", None), None
            if canon.startswith(("socket.", "select.")):
                return "blocking", (canon, None), None
            if canon in _PSEUDO_CLASS_BLOCKING:
                # A Thread's target runs later, on its own thread, with
                # an empty lock context: no call edge here by design.
                return "opaque", None, ClassType(canon)

        if isinstance(func, ast.Name):
            return self._resolve_name_call(func.id, args)
        if isinstance(func, ast.Attribute):
            return self._resolve_attr_call(func, node, recv)
        if isinstance(func, ast.Call) and isinstance(recv, FuncRef):
            fn = self.program.functions.get(recv.qname)
            if fn is not None:
                return "targets", [fn], fn.return_type
        return (
            "unresolved",
            _INDIRECT_CALLEE.get(type(func), "dynamic-callable"),
            None,
        )

    def _factory_lock(
        self,
        kind: str,
        node: ast.Call,
        args: List[Type],
        kwargs: Dict[Optional[str], Type],
    ) -> LockType:
        """The lock one ``Tracked*`` call creates, labelled by its
        ``name`` or, unnamed, by its creation site."""
        reentrant, condition = _FACTORY_KINDS[kind]
        if condition:
            # TrackedCondition(lock, name): over a tracked lock, the
            # condition *is* that lock.
            under = kwargs.get("lock", args[0] if args else None)
            if isinstance(under, LockType):
                return LockType(under.label, under.reentrant, True)
        at = 1 if condition else 0
        name_arg = node.args[at] if len(node.args) > at else None
        for kw in node.keywords:
            if kw.arg == "name":
                name_arg = kw.value
        label = _const_str(name_arg) or f"{self.mod.relpath}:{node.lineno}"
        return LockType(label, reentrant, condition)

    def _resolve_name_call(
        self, name: str, args: List[Type]
    ) -> Tuple[str, object, Type]:
        bound = self.env.get(name)
        if isinstance(bound, FuncRef):
            fn = self.program.functions.get(bound.qname)
            if fn is not None:
                return "targets", [fn], fn.return_type
        if isinstance(bound, (ClassRef, ClassType)):
            return self._constructor(bound.qname)
        if bound is not None:
            return "unresolved", "dynamic-callable", None
        if name in self.mod.functions:
            fn = self.mod.functions[name]
            return "targets", [fn], fn.return_type
        cls = self.builder.class_for_name(self.mod, name)
        if cls is not None:
            return self._constructor(cls.qname)
        target = self.mod.imports.get(name)
        if target is not None:
            fn = self._function_by_bare_name(target.rsplit(".", 1)[-1])
            if fn is not None:
                return "targets", [fn], fn.return_type
            return "unresolved", "external-call", None
        if name == "super":
            return "unresolved", "super", None
        if name in _LIST_BUILTINS:
            # A list or an items view keeps its elements; a dict yields
            # its keys, like anything else unknown.
            if args and isinstance(args[0], (ListType, ItemsType)):
                return "opaque", None, args[0]
            return "opaque", None, ListType(None)
        if name in _OPAQUE_BUILTINS:
            return "opaque", None, None
        return "unresolved", "unknown-name", None

    def _function_by_bare_name(self, name: str) -> Optional[FunctionInfo]:
        found = [
            mod.functions[name]
            for mod in self.program.modules.values()
            if name in mod.functions
        ]
        return found[0] if len(found) == 1 else None  # else ambiguous

    def _constructor(self, qname: str) -> Tuple[str, object, Type]:
        cls = self.program.resolve_class(qname)
        if cls is None:
            return "opaque", None, ClassType(qname)
        made = (
            self.program.method(cls, "__init__"),
            self.program.method(cls, "__post_init__"),
        )
        targets = [m for m in made if m is not None]
        kind = "targets" if targets else "opaque"
        return kind, targets, ClassType(cls.qname)

    def _resolve_attr_call(
        self, func: ast.Attribute, node: ast.Call, vt: Type
    ) -> Tuple[str, object, Type]:
        attr = func.attr

        if isinstance(vt, LockType):
            if vt.condition and attr in ("wait", "wait_for"):
                return "blocking", ("Condition.wait", vt.label), None
            if attr == "acquire":
                # Explicit acquire/release pairs are invisible to the
                # with-scoped model; surface them for the report.
                return "unresolved", "explicit-lock-op", None
            return "opaque", None, None

        if isinstance(vt, ClassType):
            if vt.qname in _PSEUDO_CLASS_BLOCKING:
                what = _PSEUDO_CLASS_BLOCKING[vt.qname].get(attr)
                if what is not None:
                    return "blocking", (what, None), None
                return "opaque", None, None
            cls = self.program.resolve_class(vt.qname)
            if cls is not None:
                m = self.program.method(cls, attr)
                if m is not None and not m.is_property:
                    return "targets", [m], m.return_type
                if self.program.attr_type(cls, attr) is not None:
                    return "unresolved", "dynamic-callable", None
                return "unresolved", "unresolved-attribute", None

        if isinstance(vt, ClassRef):
            cls = self.program.resolve_class(vt.qname)
            m = self.program.method(cls, attr) if cls is not None else None
            if m is not None:
                return "targets", [m], m.return_type
        if isinstance(vt, (ClassRef, FuncRef)):
            return "unresolved", "dynamic-callable", None

        if isinstance(vt, DictType):
            if attr in _DICT_VALUE_METHODS:
                return "opaque", None, vt.value
            if attr == "values":
                return "opaque", None, ListType(vt.value)
            if attr == "items":
                return "opaque", None, ItemsType(vt.value)
            return "opaque", None, None
        if isinstance(vt, (ListType, ItemsType)):
            if attr in ("pop", "popleft", "popright"):
                elem = vt.elem if isinstance(vt, ListType) else None
                return "opaque", None, elem
            if attr == "copy":
                return "opaque", None, vt
            return "opaque", None, None

        # Unknown receiver: the conservative blocking heuristics.
        if attr == "wait":
            return "blocking", ("?.wait", None), None
        if attr == "result":
            return "blocking", (".result()", None), None
        if attr == "join":
            if isinstance(func.value, ast.Constant):
                return "opaque", None, None  # ", ".join(...)
            if node.args and isinstance(
                node.args[0], (ast.GeneratorExp, ast.ListComp)
            ):
                return "opaque", None, None
            if self.canonical(func).startswith(("os.", "posixpath.", "ntpath.")):
                return "opaque", None, None
            return "blocking", (".join()", None), None
        return "unresolved", "unknown-receiver", None

    # -- nested functions ----------------------------------------------

    def _nested(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda],
        name: str,
    ) -> Type:
        """Register a nested def/lambda for its own standalone walk and
        return a reference to it (unknown while only inferring: nothing
        is registered then)."""
        if not self.record:
            return None
        qname = f"{self.fn.qname}.{name}"
        if qname in self.program.functions:
            self._anon += 1
            qname = f"{qname}#{self._anon}"
        fn = FunctionInfo(
            qname=qname,
            name=name,
            relpath=self.fn.relpath,
            lineno=node.lineno,
            node=node,
            module=self.mod,
            cls=self.cls,
            closure=dict(self.env),
        )
        if not isinstance(node, ast.Lambda):
            fn.return_type = self.builder.ann_type(self.mod, node.returns)
        self.program.functions[qname] = fn
        self.nested.append(fn)
        return FuncRef(qname)


# ----------------------------------------------------------------------
# Entry point.


def build_program(roots: Sequence[Path]) -> Program:
    """Parse every ``*.py`` under ``roots`` into a :class:`Program`.

    Files that cannot be read or fail to parse are recorded in
    :attr:`Program.errors` and skipped; the builder itself never raises
    on input source.
    """
    sources: List[Tuple[str, str]] = []
    unreadable: List[str] = []
    for path in python_files(roots):
        try:
            sources.append((str(path), path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            unreadable.append(f"{path}:0: cannot read: {exc}")
    program = build_program_from_sources(sources)
    program.errors.extend(unreadable)
    return program


def build_program_from_sources(
    sources: Sequence[Tuple[str, str]],
) -> Program:
    """Build a :class:`Program` from ``(relpath, source)`` pairs."""
    program = Program()
    builder = _Builder(program)
    for relpath, text in sources:
        try:
            tree = ast.parse(text, filename=relpath)
        except SyntaxError as exc:
            program.errors.append(f"{relpath}:{exc.lineno or 0}: {exc.msg}")
            continue
        builder.index_module(relpath, tree, text)

    # Resolve return annotations now that every class is indexed.
    for fn in program.functions.values():
        fn.return_type = builder.ann_type(fn.module, fn.node.returns)

    # Inference: module globals, class-body fields and ``self.x = ...``
    # to a cross-class fixpoint (a type learned in one class can unlock
    # an attribute of another on the next round).
    for _ in range(8):
        changed = False
        for mod in program.modules.values():
            changed |= _Walker(builder, mod).walk().changed
            for cls in mod.classes.values():
                changed |= _Walker(builder, mod, cls).walk().changed
                for fn in cls.methods.values():
                    changed |= _Walker(builder, mod, cls, fn).walk().changed
        if not changed:
            break

    # Body walk, recording; nested functions are appended and walked in
    # turn (each is registered exactly once, so none is walked twice).
    todo = list(program.functions.values())
    while todo:
        fn = todo.pop(0)
        todo.extend(
            _Walker(builder, fn.module, fn.cls, fn, record=True).walk().nested
        )
    return program
