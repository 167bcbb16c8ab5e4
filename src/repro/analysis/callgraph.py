"""Best-effort program model and call graph for :mod:`repro.analysis.flow`.

This module turns a Python source tree into a *program model*: every
module, class, and function indexed; attribute and local-variable types
inferred just far enough to resolve method calls; every tracked-factory
lock identified by its **creation-site label** (the same label
:mod:`repro.analysis.sync` gives the runtime object, so the static and
dynamic lock graphs speak one vocabulary).

The walker then lowers every function body into a flat list of *ops*:

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
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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
    name: str
    relpath: str
    lineno: int
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
        if name in self.ambiguous_classes:
            return None
        return self.classes.get(name)

    def method(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Look ``name`` up on ``cls`` and its (bare-named) bases."""
        seen: Set[str] = set()
        todo = [cls]
        while todo:
            cur = todo.pop(0)
            if cur.qname in seen:
                continue
            seen.add(cur.qname)
            fn = cur.methods.get(name)
            if fn is not None:
                return fn
            for base in cur.bases:
                parent = self.resolve_class(base)
                if parent is not None:
                    todo.append(parent)
        return None

    def attr_type(self, cls: ClassInfo, name: str) -> Type:
        seen: Set[str] = set()
        todo = [cls]
        while todo:
            cur = todo.pop(0)
            if cur.qname in seen:
                continue
            seen.add(cur.qname)
            if name in cur.attr_types:
                return cur.attr_types[name]
            for base in cur.bases:
                parent = self.resolve_class(base)
                if parent is not None:
                    todo.append(parent)
        return None


# ----------------------------------------------------------------------
# Small AST helpers (shared idiom with repro.analysis.lint).

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


def _dotted(node: ast.expr) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _callee_text(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<call>"


def _const_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ----------------------------------------------------------------------
# Builder.


class _Builder:
    def __init__(self, program: Program):
        self.program = program

    # -- pass 1: index modules ----------------------------------------

    def index_module(self, relpath: str, tree: ast.Module) -> ModuleInfo:
        dotted = relpath[:-3].replace("/", ".").replace("\\", ".")
        mod = ModuleInfo(relpath=relpath, dotted=dotted, tree=tree)
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
        cls = ClassInfo(
            qname=qname,
            name=node.name,
            relpath=mod.relpath,
            lineno=node.lineno,
            node=node,
            module=mod,
            bases=tuple(
                b for b in (_last_name(base) for base in node.bases) if b
            ),
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
            _dotted(d.func) if isinstance(d, ast.Call) else _dotted(d)
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
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _last_name(node)
            if name in ("None", "Any", "object"):
                return None
            if _dotted(node) in ("threading.Event", "threading.Thread"):
                return ClassType(_dotted(node))
            cls = self._class_for_name(mod, name)
            if cls is not None:
                return ClassType(cls.qname)
            return None
        if isinstance(node, ast.Subscript):
            head = _last_name(node.value)
            inner = node.slice
            elts = (
                list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
            )
            if head == "Optional" and elts:
                return self.ann_type(mod, elts[0])
            if head == "Union":
                for e in elts:
                    t = self.ann_type(mod, e)
                    if t is not None:
                        return t
                return None
            if head in _STR_ANN_CONTAINERS_DICT and len(elts) == 2:
                return DictType(self.ann_type(mod, elts[1]))
            if head in _STR_ANN_CONTAINERS_LIST and elts:
                return ListType(self.ann_type(mod, elts[0]))
            if head == "Tuple":
                return None
        return None

    def _class_for_name(
        self, mod: ModuleInfo, name: str
    ) -> Optional[ClassInfo]:
        if not name:
            return None
        cls = mod.classes.get(name)
        if cls is not None:
            return cls
        target = mod.imports.get(name)
        if target is not None:
            name = target.rsplit(".", 1)[-1]
        return self.program.resolve_class(name)

    # -- lock factories ------------------------------------------------

    def factory_kind(self, mod: ModuleInfo, func: ast.expr) -> Optional[str]:
        """``TrackedLock``/``TrackedRLock``/``TrackedCondition`` when
        ``func`` names a tracked factory (directly or via import)."""
        name = _last_name(func)
        if name in _FACTORY_KINDS:
            target = mod.imports.get(name, name)
            if target.rsplit(".", 1)[-1] == name or target.endswith(name):
                return name
        return None

    def lock_from_factory(
        self,
        mod: ModuleInfo,
        kind: str,
        call: ast.Call,
        env: Dict[str, Type],
        typer: "_Typer",
    ) -> LockType:
        reentrant, condition = _FACTORY_KINDS[kind]
        if kind == "TrackedCondition":
            lock_arg: Optional[ast.expr] = None
            name_arg: Optional[ast.expr] = None
            if call.args:
                lock_arg = call.args[0]
            if len(call.args) > 1:
                name_arg = call.args[1]
            for kw in call.keywords:
                if kw.arg == "lock":
                    lock_arg = kw.value
                elif kw.arg == "name":
                    name_arg = kw.value
            if lock_arg is not None and not (
                isinstance(lock_arg, ast.Constant) and lock_arg.value is None
            ):
                under = typer.type_of(lock_arg, env)
                if isinstance(under, LockType):
                    return LockType(
                        label=under.label,
                        reentrant=under.reentrant,
                        condition=True,
                    )
            label = _const_str(name_arg)
            if label is None:
                label = f"{mod.relpath}:{call.lineno}"
            return LockType(label=label, reentrant=False, condition=True)
        name_arg = call.args[0] if call.args else None
        for kw in call.keywords:
            if kw.arg == "name":
                name_arg = kw.value
        label = _const_str(name_arg)
        if label is None:
            label = f"{mod.relpath}:{call.lineno}"
        return LockType(label=label, reentrant=reentrant, condition=condition)


def _last_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1].strip("'\" ")
    return ""


# ----------------------------------------------------------------------
# Expression typing (no op emission - used by attribute inference; the
# walker wraps it with emission).


class _Typer:
    def __init__(self, builder: _Builder, mod: ModuleInfo):
        self.builder = builder
        self.program = builder.program
        self.mod = mod

    def canonical(self, node: ast.expr) -> str:
        """Alias-aware dotted name: ``t.monotonic`` -> ``time.monotonic``."""
        dotted = _dotted(node)
        if not dotted:
            return ""
        head, _, rest = dotted.partition(".")
        target = self.mod.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def name_type(self, name: str, env: Dict[str, Type]) -> Type:
        if name in env:
            return env[name]
        if name in self.mod.globals_types:
            return self.mod.globals_types[name]
        if name in self.mod.functions:
            return FuncRef(self.mod.functions[name].qname)
        cls = self.builder._class_for_name(self.mod, name)
        if cls is not None:
            return ClassRef(cls.qname)
        return None

    def attr_type(self, vt: Type, attr: str) -> Type:
        if isinstance(vt, ClassType):
            cls = self.program.resolve_class(vt.qname.rsplit(".", 1)[-1])
            if cls is None:
                return None
            t = self.program.attr_type(cls, attr)
            if t is not None:
                return t
            m = self.program.method(cls, attr)
            if m is not None:
                if m.is_property:
                    return m.return_type
                return FuncRef(m.qname)
            return None
        return None

    def type_of(self, node: ast.expr, env: Dict[str, Type]) -> Type:
        """Best-effort type of ``node``; never raises."""
        if isinstance(node, ast.Name):
            return self.name_type(node.id, env)
        if isinstance(node, ast.Attribute):
            return self.attr_type(self.type_of(node.value, env), node.attr)
        if isinstance(node, ast.Call):
            return self.call_result(node, env)
        if isinstance(node, ast.IfExp):
            return (
                self.type_of(node.body, env)
                or self.type_of(node.orelse, env)
            )
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                t = self.type_of(value, env)
                if t is not None:
                    return t
            return None
        if isinstance(node, ast.NamedExpr):
            return self.type_of(node.value, env)
        if isinstance(node, ast.Await):
            return self.type_of(node.value, env)
        if isinstance(node, ast.Subscript):
            vt = self.type_of(node.value, env)
            if isinstance(vt, DictType):
                return vt.value
            if isinstance(vt, ListType):
                return vt.elem
            return None
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for elt in node.elts:
                t = self.type_of(elt, env)
                if t is not None:
                    return ListType(t)
            return ListType(None)
        if isinstance(node, ast.Dict):
            for v in node.values:
                if v is not None:
                    t = self.type_of(v, env)
                    if t is not None:
                        return DictType(t)
            return DictType(None)
        if isinstance(node, ast.ListComp):
            return ListType(None)
        return None

    def call_result(self, node: ast.Call, env: Dict[str, Type]) -> Type:
        """Result type of a call (no emission; mirror of resolve_call)."""
        kind, payload, result = self.resolve_call(node, env)
        del kind, payload
        return result

    # -- the shared resolver ------------------------------------------

    def resolve_call(
        self, node: ast.Call, env: Dict[str, Type]
    ) -> Tuple[str, object, Type]:
        """Classify one call.

        Returns ``(kind, payload, result_type)`` where kind is one of
        ``targets`` (payload: list of FunctionInfo), ``factory``
        (payload: LockType), ``blocking`` (payload: (what, exempt_label)),
        ``opaque`` (payload: None) or ``unresolved`` (payload: reason).
        """
        func = node.func
        builder = self.builder

        # Tracked-lock factories, by local or dotted name.
        kind = builder.factory_kind(self.mod, func)
        if kind is not None:
            lock = builder.lock_from_factory(self.mod, kind, node, env, self)
            return "factory", lock, lock

        canon = self.canonical(func) if not isinstance(func, ast.Call) else ""
        if canon:
            base = canon.rsplit(".", 1)[-1]
            if base == "note_blocking":
                what = _const_str(node.args[0]) if node.args else None
                return "blocking", (what or "note_blocking", None), None
            if canon == "time.sleep":
                return "blocking", ("time.sleep", None), None
            if canon.startswith(("socket.", "select.")):
                return "blocking", (canon, None), None
            if canon == "threading.Event":
                return "opaque", None, ClassType("threading.Event")
            if canon == "threading.Thread":
                # The target runs later, on its own thread, with an
                # empty lock context: no call edge here by design.
                return "opaque", None, ClassType("threading.Thread")

        if isinstance(func, ast.Name):
            return self._resolve_name_call(func.id, node, env)
        if isinstance(func, ast.Attribute):
            return self._resolve_attr_call(func, node, env)
        if isinstance(func, ast.Subscript):
            return "unresolved", "container-callable", None
        if isinstance(func, ast.Call):
            inner = self.type_of(func, env)
            if isinstance(inner, FuncRef):
                fn = self.program.functions.get(inner.qname)
                if fn is not None:
                    return "targets", [fn], fn.return_type
            return "unresolved", "call-of-call", None
        return "unresolved", "dynamic-callable", None

    def _resolve_name_call(
        self, name: str, node: ast.Call, env: Dict[str, Type]
    ) -> Tuple[str, object, Type]:
        bound = env.get(name)
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
        cls = self.builder._class_for_name(self.mod, name)
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
            arg_t = (
                self.type_of(node.args[0], env) if node.args else None
            )
            if isinstance(arg_t, (ListType, DictType, ItemsType)):
                if isinstance(arg_t, DictType):
                    return "opaque", None, ListType(None)
                if isinstance(arg_t, ItemsType):
                    return "opaque", None, arg_t
                return "opaque", None, arg_t
            return "opaque", None, ListType(None)
        if name in _OPAQUE_BUILTINS:
            return "opaque", None, None
        return "unresolved", "unknown-name", None

    def _function_by_bare_name(self, name: str) -> Optional[FunctionInfo]:
        found: Optional[FunctionInfo] = None
        for mod in self.program.modules.values():
            fn = mod.functions.get(name)
            if fn is not None:
                if found is not None:
                    return None  # ambiguous across modules
                found = fn
        return found

    def _constructor(self, qname: str) -> Tuple[str, object, Type]:
        bare = qname.rsplit(".", 1)[-1]
        cls = self.program.resolve_class(bare)
        if cls is None:
            return "opaque", None, ClassType(qname)
        targets: List[FunctionInfo] = []
        init = self.program.method(cls, "__init__")
        if init is not None:
            targets.append(init)
        post = self.program.method(cls, "__post_init__")
        if post is not None:
            targets.append(post)
        result: Type = ClassType(cls.qname)
        if targets:
            return "targets", targets, result
        return "opaque", None, result

    def _resolve_attr_call(
        self, func: ast.Attribute, node: ast.Call, env: Dict[str, Type]
    ) -> Tuple[str, object, Type]:
        attr = func.attr
        vt = self.type_of(func.value, env)

        if isinstance(vt, LockType):
            if vt.condition and attr in ("wait", "wait_for"):
                return "blocking", ("Condition.wait", vt.label), None
            if attr in ("acquire", "release", "locked", "notify",
                        "notify_all"):
                # Explicit acquire/release pairs are invisible to the
                # with-scoped model; surface them for the report.
                if attr == "acquire":
                    return "unresolved", "explicit-lock-op", None
                return "opaque", None, None
            return "opaque", None, None

        if isinstance(vt, ClassType):
            if vt.qname == "threading.Event":
                if attr == "wait":
                    return "blocking", ("Event.wait", None), None
                return "opaque", None, None
            if vt.qname == "threading.Thread":
                if attr == "join":
                    return "blocking", ("Thread.join", None), None
                return "opaque", None, None
            cls = self.program.resolve_class(vt.qname.rsplit(".", 1)[-1])
            if cls is not None:
                m = self.program.method(cls, attr)
                if m is not None and not m.is_property:
                    return "targets", [m], m.return_type
                at = self.program.attr_type(cls, attr)
                if at is not None or attr in _collect_attr_names(cls):
                    return "unresolved", "dynamic-callable", None
                return "unresolved", "unresolved-attribute", None

        if isinstance(vt, (ClassRef, FuncRef)):
            if isinstance(vt, ClassRef):
                cls = self.program.resolve_class(vt.qname.rsplit(".", 1)[-1])
                if cls is not None:
                    m = self.program.method(cls, attr)
                    if m is not None:
                        return "targets", [m], m.return_type
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
            canon = self.canonical(func)
            if canon.startswith(("os.", "posixpath.", "ntpath.")):
                return "opaque", None, None
            return "blocking", (".join()", None), None
        return "unresolved", "unknown-receiver", None


def _collect_attr_names(cls: ClassInfo) -> Set[str]:
    return set(cls.attr_types)


# ----------------------------------------------------------------------
# Attribute inference (pass 2): a light, ordered walk of every method
# recording ``self.x = ...`` types, iterated to a cross-class fixpoint.


class _AttrPass(ast.NodeVisitor):
    def __init__(self, builder: _Builder, cls: ClassInfo, fn: FunctionInfo):
        self.builder = builder
        self.cls = cls
        self.typer = _Typer(builder, cls.module)
        self.env: Dict[str, Type] = _param_env(builder, fn)
        self.changed = False

    def _merge_attr(self, attr: str, t: Type) -> None:
        if t is None:
            return
        cur = self.cls.attr_types.get(attr)
        if cur is None or (
            isinstance(t, LockType) and not isinstance(cur, LockType)
        ):
            if cur != t:
                self.cls.attr_types[attr] = t
                self.changed = True

    def visit_Assign(self, node: ast.Assign) -> None:
        t = self.typer.type_of(node.value, self.env)
        for target in node.targets:
            self._bind(target, t, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        t = None
        if node.value is not None:
            t = self.typer.type_of(node.value, self.env)
        if t is None:
            t = self.builder.ann_type(self.cls.module, node.annotation)
        self._bind(node.target, t, node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        _bind_for_target(self, node)
        self.generic_visit(node)

    def _bind(
        self, target: ast.expr, t: Type, value: Optional[ast.expr]
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = t
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._merge_attr(target.attr, t)

    # Do not descend into nested scopes when inferring attributes.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _bind_for_target(walker, node: ast.For) -> None:
    it = walker.typer.type_of(node.iter, walker.env)
    elem: Type = None
    if isinstance(it, ListType):
        elem = it.elem
    elif isinstance(it, ItemsType):
        if isinstance(node.target, ast.Tuple) and len(node.target.elts) == 2:
            key_t, val_t = None, it.value
            for tgt, t in zip(node.target.elts, (key_t, val_t)):
                if isinstance(tgt, ast.Name):
                    walker.env[tgt.id] = t
            return
    if isinstance(node.target, ast.Name):
        walker.env[node.target.id] = elem
    elif isinstance(node.target, ast.Tuple):
        for tgt in node.target.elts:
            if isinstance(tgt, ast.Name):
                walker.env[tgt.id] = None


def _param_env(builder: _Builder, fn: FunctionInfo) -> Dict[str, Type]:
    env: Dict[str, Type] = dict(fn.closure)
    node = fn.node
    args = node.args
    all_args = (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    )
    for a in all_args:
        env[a.arg] = builder.ann_type(fn.module, a.annotation)
    if (
        fn.cls is not None
        and not fn.is_static
        and all_args
        and all_args[0].arg in ("self", "cls")
    ):
        if all_args[0].arg == "self":
            env["self"] = ClassType(fn.cls.qname)
        else:
            env["cls"] = ClassRef(fn.cls.qname)
    return env


def _class_body_attrs(builder: _Builder, cls: ClassInfo) -> bool:
    """Class-body fields: plain and ``dataclass`` ``field(...)`` forms."""
    typer = _Typer(builder, cls.module)
    changed = False

    def merge(attr: str, t: Type) -> None:
        nonlocal changed
        if t is None:
            return
        cur = cls.attr_types.get(attr)
        if cur is None or (
            isinstance(t, LockType) and not isinstance(cur, LockType)
        ):
            if cur != t:
                cls.attr_types[attr] = t
                changed = True

    for item in cls.node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            t: Type = None
            value = item.value
            if (
                isinstance(value, ast.Call)
                and _last_name(value.func) == "field"
            ):
                for kw in value.keywords:
                    if kw.arg == "default_factory":
                        factory = kw.value
                        if isinstance(factory, ast.Lambda):
                            t = typer.type_of(factory.body, {})
                        elif isinstance(factory, (ast.Name, ast.Attribute)):
                            fake = ast.Call(
                                func=factory, args=[], keywords=[]
                            )
                            ast.copy_location(fake, value)
                            t = typer.type_of(fake, {})
            elif value is not None:
                t = typer.type_of(value, {})
            if t is None:
                t = builder.ann_type(cls.module, item.annotation)
            merge(item.target.id, t)
        elif isinstance(item, ast.Assign):
            t = typer.type_of(item.value, {})
            for target in item.targets:
                if isinstance(target, ast.Name):
                    merge(target.id, t)
    return changed


# ----------------------------------------------------------------------
# Body walk (pass 3): emit ops per function.


class _FunctionWalker:
    def __init__(self, builder: _Builder, fn: FunctionInfo):
        self.builder = builder
        self.program = builder.program
        self.fn = fn
        self.typer = _Typer(builder, fn.module)
        self.env = _param_env(builder, fn)
        #: stack of (label, reentrant, condition)
        self.held: List[Tuple[str, bool, bool]] = []
        self._anon = 0

    def held_labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _, _ in self.held)

    def run(self) -> List[FunctionInfo]:
        """Walk the body; returns nested functions discovered."""
        self.nested: List[FunctionInfo] = []
        node = self.fn.node
        if isinstance(node, ast.Lambda):
            self.wtype(node.body)
        else:
            for stmt in node.body:
                self.stmt(stmt)
        return self.nested

    # -- statements ----------------------------------------------------

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Expr):
            self.wtype(node.value)
        elif isinstance(node, ast.Assign):
            t = self.wtype(node.value)
            for target in node.targets:
                self._bind(target, t)
        elif isinstance(node, ast.AnnAssign):
            t = None
            if node.value is not None:
                t = self.wtype(node.value)
            if t is None:
                t = self.builder.ann_type(self.fn.module, node.annotation)
            self._bind(node.target, t)
        elif isinstance(node, ast.AugAssign):
            self.wtype(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.wtype(node.value)
        elif isinstance(node, (ast.If, ast.While)):
            self.wtype(node.test)
            for s in node.body:
                self.stmt(s)
            for s in node.orelse:
                self.stmt(s)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.wtype(node.iter)
            _bind_for_target(self, node)
            for s in node.body:
                self.stmt(s)
            for s in node.orelse:
                self.stmt(s)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
        elif isinstance(node, ast.Try):
            for s in node.body:
                self.stmt(s)
            for handler in node.handlers:
                for s in handler.body:
                    self.stmt(s)
            for s in node.orelse:
                self.stmt(s)
            for s in node.finalbody:
                self.stmt(s)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self.wtype(node.exc)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = self._nested_function(node, node.name)
            self.env[node.name] = FuncRef(nested.qname)
        elif isinstance(node, ast.Assert):
            self.wtype(node.test)
            if node.msg is not None:
                self.wtype(node.msg)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                self.wtype(t)
        elif isinstance(node, ast.ClassDef):
            pass  # nested classes: out of scope for the model
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing to do.

    def _bind(self, target: ast.expr, t: Type) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = t
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env[elt.id] = None
        elif isinstance(target, ast.Attribute):
            self.wtype(target.value)

    def _with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        pushed = 0
        exit_calls: List[Tuple[FunctionInfo, int]] = []
        for item in node.items:
            t = self.wtype(item.context_expr)
            if isinstance(t, LockType):
                self.fn.acquires.append(
                    Acquire(
                        label=t.label,
                        reentrant=t.reentrant,
                        condition=t.condition,
                        line=item.context_expr.lineno,
                        held=self.held_labels(),
                    )
                )
                self.held.append((t.label, t.reentrant, t.condition))
                pushed += 1
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = t
            else:
                if isinstance(t, ClassType):
                    cls = self.program.resolve_class(
                        t.qname.rsplit(".", 1)[-1]
                    )
                    if cls is not None:
                        enter = self.program.method(cls, "__enter__")
                        exit_ = self.program.method(cls, "__exit__")
                        line = item.context_expr.lineno
                        if enter is not None:
                            self._emit_targets([enter], "__enter__", line)
                        if exit_ is not None:
                            exit_calls.append((exit_, line))
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = t
        for s in node.body:
            self.stmt(s)
        for exit_fn, line in exit_calls:
            self._emit_targets([exit_fn], "__exit__", line)
        for _ in range(pushed):
            self.held.pop()

    # -- expressions ---------------------------------------------------

    def wtype(self, node: ast.expr) -> Type:
        """Walk ``node`` (emitting ops for calls) and return its type."""
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            vt = self.wtype(node.value)
            if isinstance(vt, ClassType):
                cls = self.program.resolve_class(vt.qname.rsplit(".", 1)[-1])
                if cls is not None:
                    m = self.program.method(cls, node.attr)
                    if m is not None and m.is_property and isinstance(
                        node.ctx, ast.Load
                    ):
                        # Reading a property runs its getter.
                        self._emit_targets([m], _callee_text(node), node.lineno)
                        return m.return_type
            return self.typer.attr_type(vt, node.attr)
        if isinstance(node, ast.Name):
            return self.typer.name_type(node.id, self.env)
        if isinstance(node, ast.Lambda):
            nested = self._nested_function(node, f"<lambda:{node.lineno}>")
            return FuncRef(nested.qname)
        if isinstance(node, ast.IfExp):
            self.wtype(node.test)
            t1 = self.wtype(node.body)
            t2 = self.wtype(node.orelse)
            return t1 or t2
        if isinstance(node, ast.BoolOp):
            result: Type = None
            for value in node.values:
                t = self.wtype(value)
                result = result or t
            return result
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
            else:
                self.wtype(node.elt)
            return ListType(None)
        # Generic recursion for everything else.
        result = None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                t = self.wtype(child)
                if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                    result = result or (ListType(t) if t else None)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return result or ListType(None)
        return None

    def _call(self, node: ast.Call) -> Type:
        # Walk the receiver chain and arguments first (their calls are
        # real and happen before this one).
        receiver_walked = False
        if isinstance(node.func, ast.Attribute):
            self.wtype(node.func.value)
            receiver_walked = True
        elif isinstance(node.func, (ast.Call, ast.Subscript, ast.Lambda)):
            self.wtype(node.func)
            receiver_walked = True
        for arg in node.args:
            self.wtype(arg.value if isinstance(arg, ast.Starred) else arg)
        for kw in node.keywords:
            self.wtype(kw.value)
        del receiver_walked

        kind, payload, result = self.typer.resolve_call(node, self.env)
        callee = _callee_text(node.func)
        line = node.lineno
        if kind == "targets":
            self._emit_targets(list(payload), callee, line)
        elif kind == "blocking":
            what, exempt = payload
            held = self.held_labels()
            if exempt is not None:
                held = tuple(l for l in held if l != exempt)
            self.fn.blocks.append(Blocking(what=what, line=line, held=held))
        elif kind == "unresolved":
            self.fn.calls.append(
                CallSite(
                    targets=(),
                    reason=str(payload),
                    callee=callee,
                    line=line,
                    held=self.held_labels(),
                )
            )
        # "factory" and "opaque": nothing to emit.
        return result

    def _emit_targets(
        self, targets: List[FunctionInfo], callee: str, line: int
    ) -> None:
        self.fn.calls.append(
            CallSite(
                targets=tuple(t.qname for t in targets),
                reason=None,
                callee=callee,
                line=line,
                held=self.held_labels(),
            )
        )

    def _nested_function(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda],
        name: str,
    ) -> FunctionInfo:
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
            module=self.fn.module,
            cls=self.fn.cls,
            closure=dict(self.env),
        )
        if not isinstance(node, ast.Lambda):
            fn.return_type = self.builder.ann_type(
                self.fn.module, node.returns
            )
        self.program.functions[qname] = fn
        self.nested.append(fn)
        return fn


# ----------------------------------------------------------------------
# Module-level globals (locks and simple constants).


def _module_globals(builder: _Builder, mod: ModuleInfo) -> None:
    typer = _Typer(builder, mod)
    for node in mod.tree.body:
        if isinstance(node, ast.Assign):
            t = typer.type_of(node.value, {})
            if t is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    mod.globals_types.setdefault(target.id, t)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            t = None
            if node.value is not None:
                t = typer.type_of(node.value, {})
            if t is None:
                t = builder.ann_type(mod, node.annotation)
            if t is not None:
                mod.globals_types.setdefault(node.target.id, t)


# ----------------------------------------------------------------------
# Entry point.


def _iter_sources(roots: Sequence[Path]):
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            yield path


def build_program(roots: Sequence[Path]) -> Program:
    """Parse every ``*.py`` under ``roots`` into a :class:`Program`.

    Files that fail to parse are recorded in :attr:`Program.errors`
    and skipped; the builder itself never raises on input source.
    """
    sources: List[Tuple[str, str]] = []
    for path in _iter_sources(roots):
        try:
            sources.append((str(path), path.read_text(encoding="utf-8")))
        except OSError as exc:  # pragma: no cover - racing deletions
            sources.append((str(path), ""))
            del exc
    return build_program_from_sources(sources)


def build_program_from_sources(
    sources: Sequence[Tuple[str, str]],
) -> Program:
    """Build a :class:`Program` from ``(relpath, source)`` pairs."""
    program = Program()
    builder = _Builder(program)
    parsed: List[Tuple[str, ast.Module]] = []
    for relpath, text in sources:
        try:
            tree = ast.parse(text, filename=relpath)
        except SyntaxError as exc:
            program.errors.append(f"{relpath}:{exc.lineno or 0}: {exc.msg}")
            continue
        parsed.append((relpath, tree))

    for relpath, tree in parsed:
        builder.index_module(relpath, tree)

    # Resolve return annotations now that every class is indexed.
    for fn in list(program.functions.values()):
        node = fn.node
        if not isinstance(node, ast.Lambda):
            fn.return_type = builder.ann_type(fn.module, node.returns)

    for mod in program.modules.values():
        _module_globals(builder, mod)

    # Attribute inference to a cross-class fixpoint.
    for _ in range(8):
        changed = False
        for cls in [
            c for m in program.modules.values() for c in m.classes.values()
        ]:
            changed |= _class_body_attrs(builder, cls)
            for fn in cls.methods.values():
                if isinstance(fn.node, ast.Lambda):
                    continue
                attr_pass = _AttrPass(builder, cls, fn)
                for stmt in fn.node.body:
                    attr_pass.visit(stmt)
                changed |= attr_pass.changed
        if not changed:
            break

    # Body walk; nested functions are appended and walked in turn.
    todo = list(program.functions.values())
    walked: Set[str] = set()
    while todo:
        fn = todo.pop(0)
        if fn.qname in walked:
            continue
        walked.add(fn.qname)
        walker = _FunctionWalker(builder, fn)
        todo.extend(walker.run())

    return program
