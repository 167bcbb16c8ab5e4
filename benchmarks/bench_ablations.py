"""Ablations of the design choices DESIGN.md calls out.

1. **Output-size hints** (paper 4.2.2): with ``use_hints`` on,
   ``FixpointSim`` infers where a producer's consumer will run from the
   job graph (the consumer's largest co-input, data gravity) and the
   scheduler weighs moving the output there; the hinted placement avoids
   shipping a huge intermediate across the network.
2. **Literal handles** (paper 3.2): inlining <=30-byte blobs eliminates
   storage round-trips for the small integers that dominate control-heavy
   workloads like fib.
3. **Encode memoization**: content addressing collapses fib's exponential
   call tree to linear invocations.
4. **Late binding / locality** are ablated in bench_fig8a/bench_fig8b.
"""

from __future__ import annotations

from repro.codelets.stdlib import int_blob
from repro.dist.engine import FixpointSim
from repro.dist.graph import JobGraph, TaskSpec
from repro.fixpoint.runtime import Fixpoint

GB = 1 << 30


def _hint_graph() -> JobGraph:
    """A small-input producer whose large output feeds a data-gravity
    consumer: exactly the case the paper's output-size hint exists for."""
    graph = JobGraph()
    graph.add_data("tiny-config", 4 << 10, "node0")
    graph.add_data("huge-dataset", 4 * GB, "node1")
    graph.add_task(
        TaskSpec(
            name="expand",
            fn="expand",
            inputs=("tiny-config",),
            output="expanded",
            output_size=2 * GB,
            compute_seconds=0.5,
        )
    )
    graph.add_task(
        TaskSpec(
            name="join",
            fn="join",
            inputs=("expanded", "huge-dataset"),
            output="joined",
            output_size=1 << 20,
            compute_seconds=1.0,
        )
    )
    return graph


def test_ablation_output_size_hints(benchmark, run_once):
    def run_pair():
        hinted = FixpointSim.build(nodes=2, use_hints=True)
        with_hint = hinted.run(_hint_graph()).makespan
        blind = FixpointSim.build(nodes=2, use_hints=False)
        without_hint = blind.run(_hint_graph()).makespan
        return with_hint, without_hint

    with_hint, without_hint = run_once(benchmark, run_pair)
    print(f"hinted: {with_hint:.2f}s   unhinted: {without_hint:.2f}s")
    # The hint moves 4 KiB instead of a 2 GiB intermediate.
    assert with_hint < without_hint / 1.5


FIB_PADDED = '''\
"""fib with integers stored as 64-byte blobs: the no-literals ablation."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    n = int.from_bytes(fix.read_blob(entries[3]), "little")
    if n == 0 or n == 1:
        return fix.create_blob(n.to_bytes(64, "little"))
    x1 = fix.create_blob((n - 1).to_bytes(64, "little"))
    t1 = fix.create_tree([entries[0], entries[1], entries[2], x1])
    e1 = fix.strict(fix.application(t1))
    x2 = fix.create_blob((n - 2).to_bytes(64, "little"))
    t2 = fix.create_tree([entries[0], entries[1], entries[2], x2])
    e2 = fix.strict(fix.application(t2))
    tsum = fix.create_tree([entries[0], entries[2], e1, e2])
    return fix.application(tsum)
'''

ADD_PADDED = '''\
def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    a = int.from_bytes(fix.read_blob(entries[2]), "little")
    b = int.from_bytes(fix.read_blob(entries[3]), "little")
    return fix.create_blob((a + b).to_bytes(64, "little"))
'''


def test_ablation_literal_handles(benchmark, run_once):
    """Literals keep small values out of the repository entirely."""

    def run_pair():
        fp = Fixpoint()
        x = fp.repo.put_blob(int_blob(16))
        fp.eval(fp.invoke(fp.stdlib["fib"], [fp.stdlib["add"], x]).wrap_strict())
        with_literals = len(fp.repo) - 0  # stored data objects

        fp2 = Fixpoint()
        fib = fp2.compile(FIB_PADDED, "fib-padded")
        add = fp2.compile(ADD_PADDED, "add-padded")
        x2 = fp2.repo.put_blob((16).to_bytes(64, "little"))
        fp2.eval(fp2.invoke(fib, [add, x2]).wrap_strict())
        without_literals = len(fp2.repo)
        return with_literals, without_literals

    with_literals, without_literals = run_once(benchmark, run_pair)
    print(f"stored objects with literals: {with_literals}, without: {without_literals}")
    # Every intermediate integer becomes a stored blob without literals.
    assert without_literals > with_literals + 15


def test_ablation_memoization(benchmark, run_once):
    """Content-addressed memoization collapses fib's call tree."""

    def run_pair():
        fp = Fixpoint(memoize=True)
        x = fp.repo.put_blob(int_blob(18))
        fp.eval(fp.invoke(fp.stdlib["fib"], [fp.stdlib["add"], x]).wrap_strict())
        memo_invocations = fp.trace.invocation_count()

        fp2 = Fixpoint(memoize=False)
        x = fp2.repo.put_blob(int_blob(18))
        fp2.eval(fp2.invoke(fp2.stdlib["fib"], [fp2.stdlib["add"], x]).wrap_strict())
        nomemo_invocations = fp2.trace.invocation_count()
        return memo_invocations, nomemo_invocations

    memo, nomemo = run_once(benchmark, run_pair)
    print(f"invocations with memoization: {memo}, without: {nomemo}")
    assert memo < 60  # linear in n
    assert nomemo > 2000  # exponential call tree (fib(18) ~ 8k calls)
    assert nomemo / memo > 40
