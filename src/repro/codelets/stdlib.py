"""Built-in codelets: the procedures from the paper's figures.

Sources here are written against the Table-1 API and compiled by the
trusted toolchain like any user code.  Includes the paper's running
examples: the trivial ``add`` of two 8-bit integers (fig. 7a), the ``if``
procedure (fig. 2 / Algorithm 1), the recursive ``fib`` (fig. 3 /
Algorithm 2), and the ``increment`` used by the 500-function chain
(fig. 7b).

Integers cross codelet boundaries as 8-byte little-endian Blobs (which are
literals, so they ride inside handles for free).
"""

from __future__ import annotations

from ..core.handle import Handle
from ..core.storage import Repository
from .toolchain import Toolchain

ADD_U8_SOURCE = '''\
"""Add two 8-bit integers: the paper's fig. 7a microbenchmark function."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    a = fix.read_blob(entries[2])
    b = fix.read_blob(entries[3])
    total = (int.from_bytes(a, "little") + int.from_bytes(b, "little")) % 256
    return fix.create_blob(total.to_bytes(1, "little"))
'''

ADD_SOURCE = '''\
"""Add two little-endian integers of any width (used by fib)."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    a = int.from_bytes(fix.read_blob(entries[2]), "little")
    b = int.from_bytes(fix.read_blob(entries[3]), "little")
    return fix.create_blob((a + b).to_bytes(8, "little"))
'''

IDENTITY_SOURCE = '''\
"""Return the (single) argument handle unchanged."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    return entries[2]
'''

INCREMENT_SOURCE = '''\
"""Increment a little-endian integer by one (fig. 7b chain stage)."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    value = int.from_bytes(fix.read_blob(entries[2]), "little")
    return fix.create_blob((value + 1).to_bytes(8, "little"))
'''

IF_SOURCE = '''\
"""Algorithm 1: select one of two Thunks based on a predicate.

The unselected Thunk - and its entire data footprint - is never loaded.
"""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    pred = fix.read_blob(entries[2])
    branch_true = entries[3]
    branch_false = entries[4]
    if any(pred):
        return branch_true
    return branch_false
'''

FIB_SOURCE = '''\
"""Algorithm 2: Fibonacci via recursive Thunks and a tail call to add."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    rlimit = entries[0]
    fib = entries[1]
    add = entries[2]
    x = entries[3]
    n = int.from_bytes(fix.read_blob(x), "little")
    if n == 0 or n == 1:
        return fix.create_blob(n.to_bytes(8, "little"))
    x1 = fix.create_blob((n - 1).to_bytes(8, "little"))
    t1 = fix.create_tree([rlimit, fib, add, x1])
    e1 = fix.strict(fix.application(t1))
    x2 = fix.create_blob((n - 2).to_bytes(8, "little"))
    t2 = fix.create_tree([rlimit, fib, add, x2])
    e2 = fix.strict(fix.application(t2))
    tsum = fix.create_tree([rlimit, add, e1, e2])
    return fix.application(tsum)
'''

#: name -> source for every built-in codelet.
SOURCES = {
    "add_u8": ADD_U8_SOURCE,
    "add": ADD_SOURCE,
    "identity": IDENTITY_SOURCE,
    "increment": INCREMENT_SOURCE,
    "if": IF_SOURCE,
    "fib": FIB_SOURCE,
}


def compile_stdlib(repo: Repository) -> dict[str, Handle]:
    """Compile every built-in codelet into ``repo``; returns name -> handle.

    Every node boot calls this.  The sources are validated and compiled
    once per process (:func:`~repro.codelets.toolchain.admit`), so from
    the second boot on it only stores the six blobs."""
    toolchain = Toolchain(repo)
    return toolchain.compile_many(SOURCES)


def int_blob(value: int, width: int = 8) -> bytes:
    """Little-endian integer payload, as codelets expect."""
    return value.to_bytes(width, "little")


def blob_int(data: bytes) -> int:
    return int.from_bytes(data, "little")
