"""The fig. 10 workload: burst-parallel compilation of ~2,000 C files.

The paper compiles a project of almost 2,000 translation units with
libclang in parallel (each depending on its source plus system and clang
headers) followed by one liblld link combining every object file.

The codelets are a deterministic toy "compiler" that extracts symbol
definitions from C-ish source and a "linker" that merges symbol tables,
rejecting duplicates; enough to make the dataflow real and
failure-injectable (duplicate symbols, missing headers).  One program,
two drivers: :func:`compile_tree` builds the thunk tree once.
:func:`compile_project` evaluates it over real sources on the in-process
runtime, and :func:`build_compile_graph` reads the paper-scale job off
the same tree over declared sources, with per-TU compile times drawn
deterministically from a long-tailed distribution.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple, Union

from ..codelets.toolchain import Toolchain
from ..core.handle import Handle
from ..core.limits import ResourceLimits
from ..core.storage import Repository
from ..core.thunks import make_application
from ..dist.graph import CLIENT, JobGraph, declared
from ..fixpoint.runtime import Fixpoint

PAPER_TU_COUNT = 1987  # "almost 2,000 C source files"
MEAN_SOURCE_BYTES = 30 << 10
HEADER_BUNDLE_BYTES = 45 << 20  # system + clang headers, shared
MEAN_COMPILE_SECONDS = 2.6
LINK_SECONDS = 7.0
#: Each compile's memory budget and declared object size.
COMPILE_LIMITS = ResourceLimits(1 << 30, 96 << 10)
#: The link's memory budget and declared executable size.
LINK_LIMITS = ResourceLimits(8 << 30, 64 << 20)

COMPILE_SOURCE = '''\
"""Toy libclang: 'compile' a C-ish source into a symbol-table object.

Symbols declared extern in the headers are satisfied by the runtime
library; anything else a TU calls but does not define becomes an
undefined ("U") entry for the linker to resolve across TUs.
"""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    source = fix.read_blob(entries[2]).decode("ascii")
    headers = fix.read_blob(entries[3]).decode("ascii")
    known = set()
    for line in headers.splitlines():
        if line.startswith("extern "):
            known.add(line.split()[2].rstrip(";"))
    defined = []
    used = []
    for line in source.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] in ("int", "void") and len(parts) > 1:
            defined.append(parts[1].rstrip("();"))
        if parts[0] == "call" and len(parts) > 1:
            symbol = parts[1]
            if symbol not in known and symbol not in defined:
                used.append(symbol)
    table = "\\n".join(["D " + s for s in defined] + ["U " + s for s in used])
    return fix.create_blob(table.encode("ascii"))
'''

LINK_SOURCE = '''\
"""Toy liblld: merge symbol tables into an 'executable'."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    defined = set()
    used = set()
    for handle in entries[2:]:
        table = fix.read_blob(handle).decode("ascii")
        for line in table.splitlines():
            if not line:
                continue
            kind, symbol = line.split()
            if kind == "D":
                if symbol in defined:
                    raise ValueError("duplicate symbol " + symbol)
                defined.add(symbol)
            else:
                used.add(symbol)
    missing = sorted(s for s in used if s not in defined)
    if missing:
        raise ValueError("undefined symbols: " + ",".join(missing))
    listing = "\\n".join(sorted(defined))
    return fix.create_blob(("EXE\\n" + listing).encode("ascii"))
'''


def make_source(index: int, callees: Sequence[int]) -> bytes:
    """A toy translation unit defining ``fn_<index>`` and calling others."""
    lines = [f"int fn_{index}()" , "{"]
    for callee in callees:
        lines.append(f"call fn_{callee}")
    lines.append("}")
    return "\n".join(lines).encode("ascii")


#: The project's shared header: it declares no extern symbol.
HEADERS = b"#pragma once"


def compile_tree(
    compiler: Union[Fixpoint, Toolchain], sources: Sequence[Handle], headers: Handle
) -> Handle:
    """The strict Encode of one link over one compile per source, stored
    in ``compiler.repo`` beside the two codelets."""
    repo = compiler.repo
    compile_fn = compiler.compile(COMPILE_SOURCE, "libclang")
    link_fn = compiler.compile(LINK_SOURCE, "liblld")
    objects = [
        make_application(repo, compile_fn, [src, headers], COMPILE_LIMITS).wrap_strict()
        for src in sources
    ]
    return make_application(repo, link_fn, objects, LINK_LIMITS).wrap_strict()


def compile_project(fp: Fixpoint, sources: Sequence[bytes], headers: bytes) -> Handle:
    """Run the real mini compile+link pipeline: evaluate
    :func:`compile_tree` over the stored sources on the in-process
    runtime."""
    put = fp.repo.put_blob
    headers_handle = put(headers)
    return fp.eval(compile_tree(fp, [put(s) for s in sources], headers_handle))


# ----------------------------------------------------------------------
# Paper-scale graph


def build_compile_graph(tu_count: int = PAPER_TU_COUNT, seed: int = 11) -> JobGraph:
    """~2,000 parallel compiles + one link, inputs starting at the client.

    Compile times are deterministic draws from a long-tailed (lognormal)
    distribution - big TUs exist in every real project and shape the
    tail of fig. 10.  One stream draws each source size, then its time.
    """
    rng = random.Random(seed)
    data = {declared("headers", HEADER_BUNDLE_BYTES): ("headers", CLIENT)}
    seconds = []
    for i in range(tu_count):
        size = max(2 << 10, int(rng.lognormvariate(0, 0.6) * MEAN_SOURCE_BYTES))
        data[declared(f"src-{i:04d}.c", size)] = (f"src-{i:04d}.c", CLIENT)
        seconds.append(max(0.3, rng.lognormvariate(0, 0.45) * MEAN_COMPILE_SECONDS))
    headers, *sources = data
    toolchain = Toolchain(Repository())
    root = compile_tree(toolchain, sources, headers)
    compiles = iter(range(tu_count))

    def label(fn: str, inputs: Tuple[str, ...]) -> Tuple[str, str, float]:
        if fn == "liblld":
            return "link", "project.exe", LINK_SECONDS
        i = next(compiles)
        return f"cc-{i:04d}", f"obj-{i:04d}.o", seconds[i]

    return JobGraph.from_encode(toolchain.repo, [root], data, label)
