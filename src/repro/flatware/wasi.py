"""Flatware: running Unix-style programs on the Fix API (paper 4.1.4).

The original Flatware implements the WASI interface in terms of the
Fixpoint API, letting an off-the-shelf CPython run unmodified.  Our
analog links a *prelude* in front of a user program: the prelude's
``_fix_apply`` parses the conventional Thunk layout

    [rlimit, program, argv_blob, stdin_blob, fs_root]

builds a WASI-like capability dict (args, stdin, ``read_file``,
``list_dir``, ``write_stdout``), calls the program's ``wasi_main(wasi)``,
and returns stdout as the result Blob.  Fixpoint is oblivious to the
layer - it is an ordinary unprivileged part of the procedure, compiled
and sandboxed like everything else.

User programs define::

    def wasi_main(wasi):
        name = wasi["args"][0]
        data = wasi["read_file"]("templates/hello.html")
        wasi["write_stdout"](data.replace(b"{}", name.encode("ascii")))
"""

from __future__ import annotations

from typing import Sequence

from ..core.handle import Handle
from ..core.limits import ResourceLimits
from ..fixpoint.runtime import Fixpoint
from .fs import FileTree, build_fs

FLATWARE_PRELUDE = '''\
def _fw_parse_dir(fix, handle):
    entries = fix.read_tree(handle)
    info = fix.read_blob(entries[0]).decode("ascii")
    names = []
    kinds = []
    for line in info.splitlines():
        kinds.append(line[0])
        names.append(line[2:])
    return names, kinds, entries


def _fw_walk(fix, root, path):
    current = root
    parts = [p for p in path.split("/") if p]
    for depth, part in enumerate(parts):
        names, kinds, entries = _fw_parse_dir(fix, current)
        found = -1
        for i, name in enumerate(names):
            if name == part:
                found = i
        if found < 0:
            raise ValueError("ENOENT: " + path)
        if kinds[found] == "f" and depth != len(parts) - 1:
            raise ValueError("ENOTDIR: " + part)
        current = entries[found + 1]
    return current


def _fw_make_wasi(fix, argv, stdin, fsroot):
    stdout = []

    def read_file(path):
        return fix.read_blob(_fw_walk(fix, fsroot, path))

    def list_dir(path):
        target = _fw_walk(fix, fsroot, path) if path else fsroot
        names, kinds, entries = _fw_parse_dir(fix, target)
        return list(names)

    def stat(path):
        target = _fw_walk(fix, fsroot, path)
        return {"size": fix.get_size(target), "is_dir": fix.is_tree(target)}

    def write_stdout(data):
        stdout.append(bytes(data))

    wasi = {
        "args": argv,
        "stdin": stdin,
        "read_file": read_file,
        "list_dir": list_dir,
        "stat": stat,
        "write_stdout": write_stdout,
    }
    return wasi, stdout


def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    argv_raw = fix.read_blob(entries[2])
    argv = [a.decode("ascii") for a in argv_raw.split(b"\\x00") if a]
    stdin = fix.read_blob(entries[3])
    fsroot = entries[4]
    wasi, stdout = _fw_make_wasi(fix, argv, stdin, fsroot)
    code = wasi_main(wasi)
    if code not in (None, 0):
        raise ValueError("program exited with " + repr(code))
    return fix.create_blob(b"".join(stdout))


'''


def compile_program(fp: Fixpoint, program_source: str, name: str) -> Handle:
    """Link the Flatware prelude in front of ``program_source`` and compile.

    The program must define ``wasi_main(wasi)``; the toolchain validates
    the combined module like any codelet.
    """
    return fp.compile(FLATWARE_PRELUDE + program_source, name)


def run_program(
    fp: Fixpoint,
    program: Handle,
    args: Sequence[str],
    files: FileTree,
    limits: ResourceLimits = ResourceLimits(),
) -> bytes:
    """Invoke a Flatware program on an empty stdin; returns its stdout
    payload."""
    repo = fp.repo
    argv_blob = repo.put_blob(b"\x00".join(a.encode("ascii") for a in args))
    stdin_blob = repo.put_blob(b"")
    fsroot = build_fs(repo, files, accessible=True)
    thunk = fp.invoke(program, [argv_blob, stdin_blob, fsroot], limits)
    result = fp.eval(thunk.wrap_strict())
    return repo.get_blob(result).data
