"""Determinism and safety validation for codelets.

Fixpoint runs untrusted code in a shared address space by requiring that it
pass through a *trusted toolchain* ahead of time (paper section 4.1.1); the
original uses Wasm -> wasm2c -> clang.  Our analog validates a Python
module's AST and executes it with sealed builtins, guaranteeing the same
three properties the paper needs:

1. **No ambient I/O.**  Imports, ``open``, ``exec`` and friends are
   rejected; the only capability a codelet holds is its ``FixAPI``.
2. **Determinism.**  No clocks, randomness, or salted hashing (``hash`` and
   ``id`` are excluded from the builtins); no shared mutable module state
   (module bodies may only define functions and constants; ``global`` is
   rejected; mutable default arguments are rejected).
3. **Isolation.**  Dunder attribute access (``x.__class__`` escapes) is
   rejected, so a codelet cannot climb out of its namespace.

Validation happens ahead of time, once per codelet content: the
toolchain and the linker both take their verdict from
:func:`~repro.codelets.toolchain.admit`, which runs
:func:`validate_source` on a ``(name, source)`` it has not admitted
before and never remembers a refusal.  ``Toolchain.recompile_check``
re-runs the validator explicitly.  Nothing is checked on the invocation
hot path, mirroring how Fixpoint jumps directly to a codelet's entry
point.
"""

from __future__ import annotations

import ast

from ..core.errors import SandboxError

ENTRYPOINT = "_fix_apply"

#: Builtins a codelet may use.  Deliberately excludes: open, __import__,
#: exec, eval, compile, input, print, globals, locals, vars, dir, id, hash
#: (salted => nondeterministic across runs), object, type (escape hatches),
#: getattr/setattr/delattr (dunder laundering).
SAFE_BUILTINS = {
    name: __builtins__[name] if isinstance(__builtins__, dict) else getattr(__builtins__, name)
    for name in (
        "abs", "all", "any", "bin", "bool", "bytearray", "bytes", "callable",
        "chr", "dict", "divmod", "enumerate", "filter", "float", "format",
        "frozenset", "hex", "int", "isinstance", "issubclass", "iter", "len",
        "list", "map", "max", "min", "next", "oct", "ord", "pow", "range",
        "repr", "reversed", "round", "set", "slice", "sorted", "str", "sum",
        "tuple", "zip",
        # exceptions a codelet may raise or catch
        "ArithmeticError", "AssertionError", "Exception", "IndexError",
        "KeyError", "LookupError", "OverflowError", "RuntimeError",
        "StopIteration", "TypeError", "ValueError", "ZeroDivisionError",
    )
}

#: Generators (Yield) are allowed: a generator object never outlives its
#: invocation, so it cannot smuggle state - and deterministic replay of
#: generators is how Flatware's Asyncify splits programs at I/O points.
_FORBIDDEN_NODES = (
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.AsyncFunctionDef,
    ast.AsyncFor,
    ast.AsyncWith,
    ast.Await,
)

#: Names rejected outright.  Harmless-but-absent builtins (``print``,
#: ``input``) are *not* listed: the sealed builtins already make them
#: NameErrors, and codelets legitimately use ``input`` as a parameter name
#: (the paper's calling convention).  This list is defense in depth for
#: names that could reach ambient authority or nondeterminism.
_FORBIDDEN_NAMES = frozenset(
    {
        "open", "exec", "eval", "compile", "__import__",
        "globals", "locals", "vars", "dir", "id", "hash", "getattr",
        "setattr", "delattr", "type", "object", "super", "memoryview",
        "breakpoint",
    }
)

_ALLOWED_MODULE_STMTS = (ast.FunctionDef, ast.Assign, ast.AnnAssign, ast.Expr)


class _Validator(ast.NodeVisitor):
    def __init__(self, source_name: str):
        self.source_name = source_name

    def _fail(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", "?")
        raise SandboxError(f"{self.source_name}:{line}: {message}")

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, _FORBIDDEN_NODES):
            self._fail(node, f"forbidden construct: {type(node).__name__}")
        super().generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in _FORBIDDEN_NAMES:
            self._fail(node, f"forbidden name: {node.id}")
        if node.id.startswith("__") and node.id != "__doc__":
            self._fail(node, f"forbidden dunder name: {node.id}")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith("__"):
            self._fail(node, f"forbidden dunder attribute: .{node.attr}")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.Call)):
                self._fail(
                    default,
                    "mutable default argument (would carry state across "
                    "invocations)",
                )
        self.generic_visit(node)


def _validate_module_body(tree: ast.Module, source_name: str) -> None:
    """Module scope may only hold functions, constants, and docstrings."""
    for stmt in tree.body:
        if not isinstance(stmt, _ALLOWED_MODULE_STMTS):
            raise SandboxError(
                f"{source_name}:{getattr(stmt, 'lineno', '?')}: module scope "
                f"may not contain {type(stmt).__name__}"
            )
        if isinstance(stmt, ast.Expr) and not isinstance(stmt.value, ast.Constant):
            raise SandboxError(
                f"{source_name}:{stmt.lineno}: module-scope expressions must "
                "be docstrings"
            )
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            if value is not None and not _is_constant_expr(value):
                raise SandboxError(
                    f"{source_name}:{stmt.lineno}: module globals must be "
                    "constants (no mutable shared state)"
                )


def _is_constant_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_constant_expr(e) for e in node.elts)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_constant_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant_expr(node.left) and _is_constant_expr(node.right)
    return False


def validate_source(source: str, source_name: str = "<codelet>") -> ast.Module:
    """Parse and validate codelet source; returns the AST on success.

    Raises :class:`SandboxError` describing the first violation.
    """
    try:
        tree = ast.parse(source, filename=source_name)
    except SyntaxError as exc:
        raise SandboxError(f"{source_name}: syntax error: {exc}") from exc
    _validate_module_body(tree, source_name)
    _Validator(source_name).visit(tree)
    if not any(
        isinstance(stmt, ast.FunctionDef) and stmt.name == ENTRYPOINT
        for stmt in tree.body
    ):
        raise SandboxError(f"{source_name}: missing entrypoint {ENTRYPOINT}(fix, input)")
    return tree


def seal_globals() -> dict:
    """A fresh globals dict holding only the sealed builtins."""
    return {"__builtins__": dict(SAFE_BUILTINS)}
