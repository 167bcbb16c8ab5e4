"""The fig. 9 / Table 2 workload: a key-value store as an on-disk B+-tree.

Every node is a Fix Tree ``[keys_blob, child0, child1, ...]``:

* the keys blob holds the (NUL-separated) minimum key of each child;
* an internal node's children are Handles (Refs) to subtree nodes;
* a leaf's children are Handles (Refs) to the stored values.

The lookup procedure mirrors the paper's get-file procedure (fig. 4 /
Algorithm 3): at each node it strictly selects the *keys blob* of the
child it will descend into (the data it needs immediately) and shallowly
encodes the child itself (the TreeRef it will need next) - so the minimum
repository of every step is one node's keys, never the whole tree.
Table 2's formulas for invocations / data accessed / memory footprint are
verified against this real implementation by instrumented traversal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..codelets.stdlib import int_blob
from ..core.handle import HANDLE_BYTES, Handle
from ..core.limits import ResourceLimits
from ..fixpoint.runtime import Fixpoint

SEPARATOR = b"\x00"

GET_SOURCE = '''\
"""Descend one level of a B+-tree (the paper's Algorithm 3 pattern).

Input tree: [rlimit, get, key, keys_blob, node_ref, depth]
  - keys_blob: strictly-resolved minimum keys of the current node
  - node_ref:  shallow TreeRef of the current node
  - depth:     remaining levels below this node (0 => leaf)
"""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    rlimit = entries[0]
    get = entries[1]
    key = entries[2]
    keys_blob = entries[3]
    node = entries[4]
    depth = entries[5]
    keys = fix.read_blob(keys_blob).split(b"\\x00")
    target = fix.read_blob(key)
    remaining = int.from_bytes(fix.read_blob(depth), "little")
    # Rightmost child whose minimum key <= target.
    lo = 0
    hi = len(keys) - 1
    index = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if keys[mid] <= target:
            index = mid
            lo = mid + 1
        else:
            hi = mid - 1
    if remaining == 0:
        if keys[index] != target:
            return fix.create_blob(b"")  # key absent
        return fix.selection(node, index + 1)  # +1 skips the keys blob
    child = fix.selection(node, index + 1)
    next_keys = fix.strict(fix.selection(child, 0))
    next_node = fix.shallow(child)
    next_depth = fix.create_blob((remaining - 1).to_bytes(8, "little"))
    tree = fix.create_tree([rlimit, get, key, next_keys, next_node, next_depth])
    return fix.application(tree)
'''


@dataclass
class BPTree:
    """A built tree: root handle, depth (levels below root), and shape."""

    root: Handle
    depth: int
    arity: int
    key_count: int
    node_count: int
    keys_bytes_per_node: List[int]  # mean keys-blob size per level

    @property
    def levels(self) -> int:
        """Nodes on a root-to-leaf path (the paper's Table 2 ``d``)."""
        return self.depth + 1


def required_depth(key_count: int, arity: int) -> int:
    """Levels-below-root needed so every node has at most ``arity`` children."""
    if key_count <= arity:
        return 0
    return math.ceil(math.log(key_count, arity)) - 1


def build_bptree(
    fp: Fixpoint,
    keys: Sequence[bytes],
    values: Sequence[bytes],
    arity: int,
) -> BPTree:
    """Bulk-load a B+-tree from sorted unique keys."""
    if len(keys) != len(values):
        raise ValueError("keys and values must pair up")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    if sorted(keys) != list(keys):
        raise ValueError("keys must be sorted")
    repo = fp.repo
    node_count = 0
    level_key_bytes: List[int] = []

    # Leaf level: [keys_blob, value0, value1, ...]
    entries: List[Tuple[bytes, Handle]] = []
    for key, value in zip(keys, values):
        entries.append((key, repo.put_blob(value).as_ref()))
    depth = 0
    while True:
        nodes: List[Tuple[bytes, Handle]] = []
        blob_sizes = []
        for i in range(0, len(entries), arity):
            group = entries[i : i + arity]
            keys_blob = SEPARATOR.join(k for k, _ in group)
            keys_handle = repo.put_blob(keys_blob).as_ref()
            node = repo.put_tree([keys_handle] + [h for _, h in group])
            nodes.append((group[0][0], node.as_ref()))
            blob_sizes.append(len(keys_blob))
            node_count += 1
        level_key_bytes.append(
            sum(blob_sizes) // max(1, len(blob_sizes))
        )
        if len(nodes) == 1:
            root = nodes[0][1].as_object()
            return BPTree(
                root=root,
                depth=depth,
                arity=arity,
                key_count=len(keys),
                node_count=node_count,
                keys_bytes_per_node=list(reversed(level_key_bytes)),
            )
        entries = nodes
        depth += 1


def compile_get(fp: Fixpoint) -> Handle:
    return fp.compile(GET_SOURCE, "bptree-get")


def lookup_thunk(
    fp: Fixpoint,
    tree: BPTree,
    get_fn: Handle,
    key: bytes,
    limits: ResourceLimits = ResourceLimits(),
) -> Handle:
    """The Encode whose evaluation performs one lookup."""
    repo = fp.repo
    key_handle = repo.put_blob(key)
    root_keys = repo.put_tree(
        [tree.root, Handle.of_blob(int_blob(0))]
    ).make_selection().wrap_strict()
    root_ref = tree.root.make_identification().wrap_shallow()
    invocation = repo.put_tree(
        [
            limits.handle(),
            get_fn,
            key_handle,
            root_keys,
            root_ref,
            repo.put_blob(int_blob(tree.depth)),
        ]
    )
    return invocation.make_application().wrap_strict()


def lookup(fp: Fixpoint, tree: BPTree, get_fn: Handle, key: bytes) -> bytes:
    """Execute one lookup on the real runtime; returns the value payload
    (empty bytes when the key is absent)."""
    result = fp.eval(lookup_thunk(fp, tree, get_fn, key))
    return fp.repo.get_blob(result).data


# ----------------------------------------------------------------------
# Table 2: analytic access-cost formulas (verified against the real tree)


@dataclass(frozen=True)
class AccessCosts:
    """Per-query costs in Table 2's terms."""

    invocations: int
    data_accessed: int  # bytes
    memory_footprint: int  # peak bytes resident


def fixpoint_costs(levels: int, arity: int, key_size: int = 22) -> AccessCosts:
    """Fixpoint row: d invocations, a*d*O(key) accessed, a*O(key) peak."""
    per_node_keys = arity * key_size
    return AccessCosts(
        invocations=levels,
        data_accessed=levels * per_node_keys,
        memory_footprint=per_node_keys,
    )


def ray_cps_costs(levels: int, arity: int, key_size: int = 22) -> AccessCosts:
    """Ray CPS row: 2d invocations; keys *and* child-ref arrays accessed."""
    per_node = arity * (key_size + HANDLE_BYTES)
    return AccessCosts(
        invocations=2 * levels,
        data_accessed=levels * per_node,
        memory_footprint=per_node,
    )


def ray_blocking_costs(levels: int, arity: int, key_size: int = 22) -> AccessCosts:
    """Ray blocking row: 1 invocation holding everything it ever fetched."""
    per_node = arity * (key_size + HANDLE_BYTES)
    return AccessCosts(
        invocations=1,
        data_accessed=levels * per_node,
        memory_footprint=levels * per_node,
    )


# ----------------------------------------------------------------------
# Instrumented reference walker (counts what each style actually touches)


@dataclass
class WalkStats:
    invocations: int = 0
    gets: int = 0
    bytes_fetched: int = 0
    peak_resident: int = 0


def walk_real_tree(
    fp: Fixpoint, tree: BPTree, key: bytes, style: str
) -> WalkStats:
    """Walk the *real* stored tree the way each system would, counting
    accesses.  Styles: 'fixpoint', 'ray-cps', 'ray-blocking'."""
    repo = fp.repo
    stats = WalkStats()
    resident = 0
    node = tree.root
    for level in range(tree.levels):
        node_tree = repo.get_tree(node)
        keys_blob = repo.get_blob(node_tree[0].as_object()).data
        keys = keys_blob.split(SEPARATOR)
        if style == "fixpoint":
            stats.invocations += 1
            stats.gets += 1  # the strictly-selected keys blob
            stats.bytes_fetched += len(keys_blob)
            resident = len(keys_blob)  # previous node's keys are released
        else:
            child_refs_bytes = HANDLE_BYTES * (len(node_tree) - 1)
            stats.gets += 2  # keys array + child handle array
            stats.bytes_fetched += len(keys_blob) + child_refs_bytes
            if style == "ray-blocking":
                stats.invocations = 1
                resident += len(keys_blob) + child_refs_bytes
            else:  # ray-cps: one continuation per get boundary
                stats.invocations += 2
                resident = len(keys_blob) + child_refs_bytes
        stats.peak_resident = max(stats.peak_resident, resident)
        # Descend (shared logic; identical child choice in all styles).
        index = 0
        lo, hi = 0, len(keys) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if keys[mid] <= key:
                index = mid
                lo = mid + 1
            else:
                hi = mid - 1
        node = node_tree[index + 1].as_object()
    return stats


def sample_queries(
    keys: Sequence[bytes], count: int, seed: int = 0
) -> List[bytes]:
    rng = random.Random(seed)
    return [keys[rng.randrange(len(keys))] for _ in range(count)]
