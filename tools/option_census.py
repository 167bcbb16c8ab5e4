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

Run from the repo root::

    python tools/option_census.py          # the values no caller sets
    python tools/option_census.py --all    # every value, with its count

The last line gives both totals.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "benchmarks", "examples", "tests")


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
    """callee name -> ``[(positional count, keywords, forwards all)]``."""
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
                sum(not isinstance(a, ast.Starred) for a in node.args),
                {k.arg for k in node.keywords if k.arg},
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
                    calls["replace()"].append((0, site[1], site[2]))
    return calls


def main(argv) -> int:
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
    total = unset = 0
    for qual, callee, kind, params in definitions(sources):
        sites = list(calls[callee])
        if kind == "init":
            for base in ancestors(callee):
                sites += calls["cls:" + base]
        elif kind == "field":
            sites += calls["replace()"]
        for param, position in params:
            passed = sum(
                param in keywords
                or forwards
                or (position is not None and position < count)
                for count, keywords, forwards in sites
            )
            total += 1
            unset += passed == 0
            if passed == 0 or "--all" in argv:
                print(f"{passed:4d}  {qual}({param})")
    print(f"# defaulted values: {total}; set by no caller: {unset}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
