"""The fig. 10 workload: burst-parallel compilation of ~2,000 C files.

The paper compiles a project of almost 2,000 translation units with
libclang in parallel (each depending on its source plus system and clang
headers) followed by one liblld link combining every object file.

Two layers, like the other workloads:

* **real mini-compiler codelets** - a deterministic toy "compiler" that
  extracts symbol definitions from C-ish source and a "linker" that
  merges symbol tables, rejecting duplicates; enough to make the dataflow
  real and failure-injectable (duplicate symbols, missing headers);
* **the declared-size JobGraph** at paper scale, with per-TU compile
  times drawn deterministically from a long-tailed distribution.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..core.handle import Handle
from ..dist.graph import CLIENT, JobGraph, TaskSpec
from ..fixpoint.runtime import Fixpoint

PAPER_TU_COUNT = 1987  # "almost 2,000 C source files"
MEAN_SOURCE_BYTES = 30 << 10
HEADER_BUNDLE_BYTES = 45 << 20  # system + clang headers, shared
OBJECT_BYTES = 96 << 10
MEAN_COMPILE_SECONDS = 2.6
LINK_SECONDS = 7.0

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


def make_headers(extern_symbols: Sequence[str] = ()) -> bytes:
    lines = ["#pragma once"] + [f"extern int {s};" for s in extern_symbols]
    return "\n".join(lines).encode("ascii")


def compile_project(
    fp: Fixpoint, sources: Sequence[bytes], headers: bytes
) -> Handle:
    """Run the real mini compile+link pipeline on the in-process runtime."""
    compile_fn = fp.compile(COMPILE_SOURCE, "libclang")
    link_fn = fp.compile(LINK_SOURCE, "liblld")
    headers_handle = fp.repo.put_blob(headers)
    objects = [
        fp.invoke(compile_fn, [fp.repo.put_blob(src), headers_handle]).wrap_strict()
        for src in sources
    ]
    return fp.eval(fp.invoke(link_fn, objects).wrap_strict())


# ----------------------------------------------------------------------
# Paper-scale graph


def build_compile_graph(tu_count: int = PAPER_TU_COUNT, seed: int = 11) -> JobGraph:
    """~2,000 parallel compiles + one link, inputs starting at the client.

    Compile times are deterministic draws from a long-tailed (lognormal)
    distribution - big TUs exist in every real project and shape the
    tail of fig. 10.
    """
    rng = random.Random(seed)
    graph = JobGraph()
    graph.add_data("headers", HEADER_BUNDLE_BYTES, CLIENT)
    objects: List[str] = []
    for i in range(tu_count):
        src_name = f"src-{i:04d}.c"
        size = max(2 << 10, int(rng.lognormvariate(0, 0.6) * MEAN_SOURCE_BYTES))
        graph.add_data(src_name, size, CLIENT)
        compute = max(0.3, rng.lognormvariate(0, 0.45) * MEAN_COMPILE_SECONDS)
        task = TaskSpec(
            name=f"cc-{i:04d}",
            fn="libclang",
            inputs=(src_name, "headers"),
            output=f"obj-{i:04d}.o",
            output_size=OBJECT_BYTES,
            compute_seconds=compute,
            memory_bytes=1 << 30,
        )
        graph.add_task(task)
        objects.append(task.output)
    graph.add_task(
        TaskSpec(
            name="link",
            fn="liblld",
            inputs=tuple(objects),
            output="project.exe",
            output_size=64 << 20,
            compute_seconds=LINK_SECONDS,
            memory_bytes=8 << 30,
        )
    )
    return graph
