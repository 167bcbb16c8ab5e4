"""Filesystems encoded as nested Fix Trees (paper fig. 4).

A directory is a Tree ``[info_blob, child0, child1, ...]``; the info blob
maps indices to names and kinds (one line per child: ``"d name"`` or
``"f name"``, in child order).  A file child is a Blob handle; a directory
child is another directory Tree.

Two encodings, matching the paper's two use cases:

* ``accessible=True`` (default) - children are Objects: the whole
  filesystem sits in the minimum repository, which is how the SeBS
  functions were ported ("include everything", section 5.6);
* ``accessible=False`` - children are Refs: a consumer must descend with
  Selection thunks, fetching only what it touches - the get-file pattern
  of Algorithm 3, provided here as a real codelet.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from ..core.errors import FixError
from ..core.handle import Handle
from ..core.storage import Repository

FileTree = Dict[str, Union[bytes, "FileTree"]]


class PathError(FixError):
    """A path did not resolve within a Flatware filesystem."""


def build_fs(repo: Repository, spec: FileTree, accessible: bool = True) -> Handle:
    """Store a directory tree; returns the root directory's Tree handle."""
    info_lines: List[str] = []
    children: List[Handle] = []
    for name in sorted(spec):
        if "/" in name or "\n" in name or not name:
            raise PathError(f"bad entry name {name!r}")
        value = spec[name]
        if isinstance(value, (bytes, bytearray)):
            handle = repo.put_blob(bytes(value))
            info_lines.append(f"f {name}")
        elif isinstance(value, dict):
            handle = build_fs(repo, value, accessible)
            info_lines.append(f"d {name}")
        else:
            raise PathError(f"entry {name!r} must be bytes or a dict")
        children.append(handle if accessible else handle.as_ref())
    info = repo.put_blob("\n".join(info_lines).encode("ascii"))
    return repo.put_tree([info if accessible else info.as_ref(), *children])


def read_dir(repo: Repository, dir_handle: Handle) -> List[Tuple[str, str, Handle]]:
    """Parse one directory level: list of (kind, name, child handle)."""
    tree = repo.get_tree(dir_handle)
    if len(tree) < 1:
        raise PathError("directory tree missing its info blob")
    info = repo.get_blob(tree[0].as_object()).data.decode("ascii")
    lines = info.splitlines()
    if len(lines) != len(tree) - 1:
        raise PathError("info blob does not match directory arity")
    out = []
    for line, child in zip(lines, tree.children[1:]):
        kind, _, name = line.partition(" ")
        if kind not in ("d", "f") or not name:
            raise PathError(f"bad info line {line!r}")
        out.append((kind, name, child))
    return out


def resolve_path(repo: Repository, root: Handle, path: str) -> Handle:
    """Walk ``path`` (slash-separated) from ``root``; returns the handle."""
    current = root
    parts = [p for p in path.split("/") if p]
    for i, part in enumerate(parts):
        entries = read_dir(repo, current.as_object())
        for kind, name, child in entries:
            if name == part:
                if kind == "f" and i != len(parts) - 1:
                    raise PathError(f"{part!r} is a file, not a directory")
                current = child
                break
        else:
            raise PathError(f"no entry {part!r} in {'/'.join(parts[:i])!r}")
    return current


def read_file(repo: Repository, root: Handle, path: str) -> bytes:
    handle = resolve_path(repo, root, path)
    return repo.get_blob(handle.as_object()).data


def list_dir(repo: Repository, root: Handle) -> List[str]:
    return [name for _, name, _ in read_dir(repo, root.as_object())]


GET_FILE_SOURCE = '''\
"""Algorithm 3: descend a directory tree one level per invocation.

Input: [rlimit, get_file, path, info_blob, dir_ref]
  - info_blob: strictly-resolved info of the current directory
  - dir_ref:   shallow TreeRef of the current directory

Each step's minimum repository holds one directory's info blob - the
directory contents are never fetched wholesale.
"""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    rlimit = entries[0]
    get_file = entries[1]
    path = fix.read_blob(entries[2]).decode("ascii")
    info = fix.read_blob(entries[3]).decode("ascii")
    dirref = entries[4]
    head, _, rest = path.partition("/")
    index = -1
    kind = ""
    lines = info.splitlines()
    for i, line in enumerate(lines):
        if line[2:] == head:
            index = i
            kind = line[0]
    if index < 0:
        raise ValueError("no such entry: " + head)
    child = fix.selection(dirref, index + 1)  # +1 skips the info blob
    if rest == "":
        return child
    if kind != "d":
        raise ValueError(head + " is not a directory")
    next_info = fix.strict(fix.selection(child, 0))
    next_dir = fix.shallow(child)
    tree = fix.create_tree(
        [rlimit, get_file, fix.create_blob(rest.encode("ascii")), next_info, next_dir]
    )
    return fix.application(tree)
'''
