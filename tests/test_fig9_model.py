"""Fig. 9's analytic model against real B+-trees.

``repro.bench.fig9`` computes a tree's shape and each system's charges
per query and per visited node without building anything.  These tests
build real trees with ``build_bptree`` and walk them with the
instrumented walker of ``repro.workloads.bptree``: the shape must be the
real one, and the walker must count what the model charges.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest

from repro.bench.fig9 import CHARGES, tree_shape
from repro.core.handle import HANDLE_BYTES
from repro.fixpoint.runtime import Fixpoint
from repro.workloads.bptree import (
    SEPARATOR,
    build_bptree,
    sample_queries,
    walk_real_tree,
)
from repro.workloads.titles import make_titles

#: (keys, arity): full levels, a partly filled last leaf, a deep tree
#: whose inner levels end in partly filled nodes.
SHAPES = ((4096, 16), (512, 8), (3000, 64), (10000, 4))
#: The walker's style for each modeled system.
STYLES = {
    "Fixpoint": "fixpoint",
    "Ray (blocking)": "ray-blocking",
    "Ray (continuation-passing)": "ray-cps",
}
KEY_BYTES = 22


class _Built:
    def __init__(self, key_count: int, arity: int):
        self.fp = Fixpoint()
        self.titles = make_titles(key_count)
        self.tree = build_bptree(
            self.fp, self.titles, [b"v:" + t for t in self.titles], arity
        )
        self.shape = tree_shape(key_count, arity)
        self.queries = sample_queries(self.titles, 10, seed=3)

    def children_per_level(self):
        """Child count of every node, level by level from the root."""
        levels = []
        frontier = [self.tree.root]
        for _ in range(self.tree.levels):
            nodes = [self.fp.repo.get_tree(node) for node in frontier]
            levels.append([len(node) - 1 for node in nodes])
            frontier = [child.as_object() for node in nodes for child in node[1:]]
        return levels

    def path(self, key: bytes):
        """``(keys blob bytes, children)`` of each node a lookup visits."""
        visits = []
        node = self.tree.root
        for _ in range(self.tree.levels):
            entries = self.fp.repo.get_tree(node)
            keys_blob = self.fp.repo.get_blob(entries[0].as_object()).data
            visits.append((len(keys_blob), len(entries) - 1))
            index = max(0, bisect_right(keys_blob.split(SEPARATOR), key) - 1)
            node = entries[index + 1].as_object()
        return visits


@pytest.fixture(scope="module", params=SHAPES, ids=lambda s: "%dx%d" % s)
def built(request):
    return _Built(*request.param)


class TestFig9ModelIsTheRealTree:
    def test_level_nodes_are_the_real_counts(self, built):
        real = [len(level) for level in built.children_per_level()]
        assert tuple(real) == built.shape.level_nodes
        assert built.tree.levels == built.shape.levels

    def test_each_visit_is_charged_its_levels_mean_fanout(self, built):
        for level, children in enumerate(built.children_per_level()):
            mean = math.ceil(sum(children) / len(children))
            assert built.shape.fanout(level) == mean
            for charges in CHARGES.values():
                refs = charges.touched(
                    built.shape, level, KEY_BYTES
                ) - built.shape.keys_bytes(level, KEY_BYTES)
                assert refs == (HANDLE_BYTES * mean if charges.reads_refs else 0)

    def test_walker_counts_what_the_model_charges(self, built):
        levels = built.shape.levels
        for key in built.queries:
            for system, charges in CHARGES.items():
                stats = walk_real_tree(built.fp, built.tree, key, STYLES[system])
                assert stats.invocations == (
                    charges.query_invocations + levels * charges.invocations
                ), system
                assert stats.gets == levels * charges.gets, system

    def test_ray_reads_a_32_byte_ref_per_child(self, built):
        """Every system reads the visited keys blobs; those the model
        charges for child refs read 32 B per child of each visited node."""
        for key in built.queries:
            visits = built.path(key)
            keys = sum(size for size, _ in visits)
            refs = HANDLE_BYTES * sum(children for _, children in visits)
            for system, charges in CHARGES.items():
                stats = walk_real_tree(built.fp, built.tree, key, STYLES[system])
                assert stats.bytes_fetched - keys == (
                    refs if charges.reads_refs else 0
                ), system
