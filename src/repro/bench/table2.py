"""Table 2: per-lookup data accessed / memory footprint / invocations.

Two layers of evidence:

* the **analytic formulas** from the paper (in Table 2's O() terms),
  read off each system's :data:`~repro.workloads.bptree.LOOKUP_STYLES`
  record and instantiated at the 6M-title scale for each arity;
* an **empirical verification**: a real B+-tree is built on the real
  runtime at a reduced scale, walked by the instrumented reference walker
  in each system's style, and the measured counts must match the
  formulas' predictions (invocations exactly; bytes within the rounding
  of partially-filled nodes).
"""

from __future__ import annotations

import math

from ..fixpoint.runtime import Fixpoint
from ..workloads.bptree import (
    LOOKUP_STYLES,
    build_bptree,
    sample_queries,
    walk_real_tree,
)
from ..workloads.titles import make_titles
from .fig9 import tree_shape
from .harness import ExperimentResult
from .paperdata import FIG9_ARITIES, FIG9_KEY_COUNT, FIG9_MEAN_KEY_BYTES

#: Table 2's systems in its row order, each with the reference walker's
#: name for its style.
WALKS = {
    "Fixpoint": "fixpoint",
    "Ray (continuation-passing)": "ray-cps",
    "Ray (blocking)": "ray-blocking",
}

#: Node arity of the real tree the formulas are checked against.
VERIFY_ARITY = 16


def run(scale: float = 1.0, verify_keys: int = 4096) -> ExperimentResult:
    key_count = max(4096, int(FIG9_KEY_COUNT * scale))
    result = ExperimentResult(
        experiment="table2",
        title=f"Access costs per lookup, {key_count:,} keys",
    )
    for arity in FIG9_ARITIES:
        shape = tree_shape(key_count, arity)
        d = shape.levels
        for label in WALKS:
            costs = LOOKUP_STYLES[label].costs(d, arity, FIG9_MEAN_KEY_BYTES)
            result.rows.append(
                {
                    "system": f"{label} @ 2^{int(math.log2(arity))}",
                    "levels_d": d,
                    "invocations": costs.invocations,
                    "data_accessed_KiB": round(costs.data_accessed / 1024, 1),
                    "peak_footprint_KiB": round(costs.memory_footprint / 1024, 1),
                }
            )
    # Empirical verification on a real tree.
    fp = Fixpoint()
    titles = make_titles(verify_keys)
    tree = build_bptree(fp, titles, [b"v:" + t for t in titles], VERIFY_ARITY)
    d = tree.levels
    for label, style in WALKS.items():
        expect_inv = LOOKUP_STYLES[label].costs(d, VERIFY_ARITY).invocations
        for key in sample_queries(titles, 5, seed=3):
            stats = walk_real_tree(fp, tree, key, style)
            if stats.invocations != expect_inv:
                raise AssertionError(
                    f"{style}: {stats.invocations} invocations, "
                    f"Table 2 predicts {expect_inv}"
                )
    result.notes.append(
        f"verified on a real {verify_keys}-key tree (arity {VERIFY_ARITY}, "
        f"d={d}): invocation counts match the formulas for all three styles"
    )
    result.notes.append(
        "Fixpoint touches O(key size) per level and holds one node's keys; "
        "Ray blocking accumulates keys+refs of the whole path"
    )
    return result
