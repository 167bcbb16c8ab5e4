"""The fig. 8b workload: count-string + merge-counts in map-reduce style.

Two functions (paper section 5.3.2):

* ``count-string`` takes a chunk and a string, reports the number of
  non-overlapping occurrences;
* ``merge-counts`` merges two results in a binary reduction.

This module provides both the **real codelets** (run on the in-process
Fixpoint runtime against miniature corpora; correctness asserted against
``bytes.count``) and the **declared-size JobGraph** executed by every
simulated platform at paper scale.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..baselines.calibration import MEMORY_SCAN_BW
from ..codelets.stdlib import blob_int
from ..core.handle import Handle
from ..dist.graph import JobGraph, TaskSpec
from ..fixpoint.runtime import Fixpoint
from .corpus import ShardSpec

COUNT_STRING_SOURCE = '''\
"""Count non-overlapping occurrences of a needle in one chunk."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    chunk = fix.read_blob(entries[2])
    needle = fix.read_blob(entries[3])
    return fix.create_blob(chunk.count(needle).to_bytes(8, "little"))
'''

MERGE_COUNTS_SOURCE = '''\
"""Merge two counts (binary reduction step)."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    a = int.from_bytes(fix.read_blob(entries[2]), "little")
    b = int.from_bytes(fix.read_blob(entries[3]), "little")
    return fix.create_blob((a + b).to_bytes(8, "little"))
'''


def compile_wordcount(fp: Fixpoint) -> tuple[Handle, Handle]:
    """Compile the two codelets; returns (count_string, merge_counts)."""
    return (
        fp.compile(COUNT_STRING_SOURCE, "count-string"),
        fp.compile(MERGE_COUNTS_SOURCE, "merge-counts"),
    )


def count_corpus(fp: Fixpoint, shards: Sequence[bytes], needle: bytes) -> int:
    """Run the real map-reduce on the in-process runtime.

    Builds one count-string thunk per shard and a binary merge tree, all
    lazily, then strictly evaluates the root - exactly the dataflow the
    distributed engine schedules at scale.
    """
    count_fn, merge_fn = compile_wordcount(fp)
    needle_handle = fp.repo.put_blob(needle)
    level = [
        fp.invoke(count_fn, [fp.repo.put_blob(shard), needle_handle]).wrap_strict()
        for shard in shards
    ]
    while len(level) > 1:
        next_level: List[Handle] = []
        for i in range(0, len(level) - 1, 2):
            merged = fp.invoke(merge_fn, [level[i], level[i + 1]])
            next_level.append(merged.wrap_strict())
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    result = fp.eval(level[0])
    return blob_int(fp.repo.get_blob(result).data)


# ----------------------------------------------------------------------
# Paper-scale graph for the simulated platforms


#: Count tasks' scan times are jittered deterministically by +/- this
#: fraction (match-rate and page-cache effects make real shard scans
#: uneven; stragglers shape the tail and the idle percentage), drawn from
#: one ``random.Random(SCAN_SEED)`` stream in shard order.
SCAN_JITTER = 0.30
SCAN_SEED = 97
COUNT_TASK_MEMORY = 1 << 30
MERGE_COMPUTE_SECONDS = 2e-6


def _map_phase(
    graph: JobGraph, shards: Sequence[ShardSpec], task_memory: int
) -> List[str]:
    """Add each shard and its count task to ``graph``; returns the count
    outputs in shard order.

    A count task's ``compute_seconds`` is its shard's in-memory scan
    time (``MEMORY_SCAN_BW``), jittered by ``SCAN_JITTER``.
    """
    rng = random.Random(SCAN_SEED)
    outputs: List[str] = []
    for spec in shards:
        graph.add_data(spec.name, spec.size, spec.location)
        base = spec.size / MEMORY_SCAN_BW
        task = TaskSpec(
            name=f"count:{spec.name}",
            fn="count-string",
            inputs=(spec.name,),
            output=f"cnt:{spec.name}",
            output_size=8,
            compute_seconds=base * (1.0 + SCAN_JITTER * (2 * rng.random() - 1)),
            memory_bytes=task_memory,
        )
        graph.add_task(task)
        outputs.append(task.output)
    return outputs


def build_wordcount_graph(
    shards: Sequence[ShardSpec], task_memory: int = COUNT_TASK_MEMORY
) -> JobGraph:
    """The fig. 8b dataflow: one count per shard, binary merge tree."""
    graph = JobGraph()
    level = _map_phase(graph, shards, task_memory)
    merge_index = 0
    while len(level) > 1:
        next_level: List[str] = []
        for i in range(0, len(level) - 1, 2):
            task = TaskSpec(
                name=f"merge:{merge_index}",
                fn="merge-counts",
                inputs=(level[i], level[i + 1]),
                output=f"mrg:{merge_index}",
                output_size=8,
                compute_seconds=MERGE_COMPUTE_SECONDS,
                memory_bytes=64 << 20,
            )
            graph.add_task(task)
            next_level.append(task.output)
            merge_index += 1
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    return graph


def map_only_graph(shards: Sequence[ShardSpec]) -> JobGraph:
    """The map phase alone - all Pheromone can express (section 5.3.2)."""
    graph = JobGraph()
    _map_phase(graph, shards, COUNT_TASK_MEMORY)
    return graph
