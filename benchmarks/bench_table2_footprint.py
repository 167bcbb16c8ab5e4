"""Table 2: data accessed / memory footprint / invocation counts.

The analytic formulas must agree with instrumented walks over a *real*
tree, and the qualitative relations of the paper's table must hold:
Fixpoint's footprint is one node's keys; blocking Ray's grows with depth;
CPS doubles the invocations of Fixpoint.
"""

from __future__ import annotations

from repro.bench import table2
from repro.fixpoint.runtime import Fixpoint
from repro.workloads.bptree import (
    LOOKUP_STYLES,
    build_bptree,
    sample_queries,
    walk_real_tree,
)
from repro.workloads.titles import make_titles


def test_table2_generation(benchmark, run_once):
    result = run_once(benchmark, table2.run, scale=1.0)
    result.show()
    for arity_tag, d in (("2^12", 2), ("2^6", 4)):
        fix = result.row(f"Fixpoint @ {arity_tag}")
        cps = result.row(f"Ray (continuation-passing) @ {arity_tag}")
        blocking = result.row(f"Ray (blocking) @ {arity_tag}")
        assert fix["invocations"] == d
        assert cps["invocations"] == 2 * d
        assert blocking["invocations"] == 1
        assert fix["data_accessed_KiB"] < cps["data_accessed_KiB"]
        assert fix["peak_footprint_KiB"] < blocking["peak_footprint_KiB"]
        # Blocking holds the whole path; CPS releases between steps.
        assert blocking["peak_footprint_KiB"] > cps["peak_footprint_KiB"]


def test_formulas_match_real_walks(benchmark):
    """Instrumented walks over a real tree vs the analytic predictions."""
    fp = Fixpoint()
    titles = make_titles(4096)
    arity = 16
    tree = build_bptree(fp, titles, [b"v:" + t for t in titles], arity)
    d = tree.levels

    def verify():
        checks = 0
        for key in sample_queries(titles, 10, seed=1):
            fix = walk_real_tree(fp, tree, key, "fixpoint")
            cps = walk_real_tree(fp, tree, key, "ray-cps")
            blocking = walk_real_tree(fp, tree, key, "ray-blocking")
            for walk, system in (
                (fix, "Fixpoint"),
                (cps, "Ray (continuation-passing)"),
                (blocking, "Ray (blocking)"),
            ):
                costs = LOOKUP_STYLES[system].costs(d, arity)
                assert walk.invocations == costs.invocations, system
            assert fix.bytes_fetched < cps.bytes_fetched == blocking.bytes_fetched
            assert fix.peak_resident <= cps.peak_resident < blocking.peak_resident
            checks += 1
        return checks

    assert benchmark.pedantic(verify, rounds=1, iterations=1) == 10
