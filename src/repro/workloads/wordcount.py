"""The fig. 8b workload: count-string + merge-counts in map-reduce style.

Two functions (paper section 5.3.2):

* ``count-string`` takes a chunk and a string, reports the number of
  non-overlapping occurrences;
* ``merge-counts`` merges two results in a binary reduction.

One program, two drivers: :func:`count_tree` builds the thunk tree
once.  :func:`count_corpus` evaluates it over real blobs on the
in-process runtime (correctness asserted against ``bytes.count``), and
:func:`build_wordcount_graph` reads the paper-scale job every simulated
platform runs off the same tree over declared shards
(:meth:`~repro.dist.graph.JobGraph.from_encode`).
"""

from __future__ import annotations

import itertools
import random
from typing import List, Sequence, Tuple, Union

from ..baselines.calibration import MEMORY_SCAN_BW
from ..codelets.stdlib import blob_int
from ..codelets.toolchain import Toolchain
from ..core.handle import Handle
from ..core.limits import ResourceLimits
from ..core.storage import Repository
from ..core.thunks import make_application
from ..dist.graph import DataSpec, JobGraph, declared
from ..fixpoint.runtime import Fixpoint

COUNT_TASK_MEMORY = 1 << 30

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


def count_tree(
    compiler: Union[Fixpoint, Toolchain],
    shards: Sequence[Handle],
    needle: Handle,
    task_memory: int,
) -> List[Handle]:
    """The strict Encodes of one count per shard (in shard order), then
    of a binary merge tree level by level: the root is last.  They and
    the two codelets are stored in ``compiler.repo``.

    Counts and merges are 8-byte Blobs, which Fix inlines as literals,
    but the simulated platforms move each as an 8-byte datum, so the
    limits hint that output size.
    """
    repo = compiler.repo
    count_fn = compiler.compile(COUNT_STRING_SOURCE, "count-string")
    merge_fn = compiler.compile(MERGE_COUNTS_SOURCE, "merge-counts")
    counts, merges = ResourceLimits(task_memory, 8), ResourceLimits(64 << 20, 8)
    level = [
        make_application(repo, count_fn, [shard, needle], counts).wrap_strict()
        for shard in shards
    ]
    encodes = list(level)
    while len(level) > 1:  # an odd level carries its last Encode up
        pairs = [
            make_application(repo, merge_fn, level[i : i + 2], merges).wrap_strict()
            for i in range(0, len(level) - 1, 2)
        ]
        encodes += pairs
        level = pairs + level[2 * len(pairs) :]
    return encodes


def count_corpus(fp: Fixpoint, shards: Sequence[bytes], needle: bytes) -> int:
    """Evaluate :func:`count_tree` over the stored shards on the
    in-process runtime: the tree :func:`build_wordcount_graph` reads, so
    exactly the dataflow the distributed engine schedules at scale."""
    put = fp.repo.put_blob
    tree = count_tree(fp, [put(s) for s in shards], put(needle), COUNT_TASK_MEMORY)
    return blob_int(fp.repo.get_blob(fp.eval(tree[-1])).data)


# ----------------------------------------------------------------------
# Paper-scale graph for the simulated platforms


#: Count tasks' scan times are jittered deterministically by +/- this
#: fraction (match-rate and page-cache effects make real shard scans
#: uneven; stragglers shape the tail and the idle percentage), drawn from
#: one ``random.Random(SCAN_SEED)`` stream in shard order.
SCAN_JITTER = 0.30
SCAN_SEED = 97
MERGE_COMPUTE_SECONDS = 2e-6


def _graph(shards: Sequence[DataSpec], task_memory: int, roots: slice) -> JobGraph:
    """The job of ``roots`` of :func:`count_tree` over declared shards.
    A count's ``compute_seconds`` is its shard's jittered scan time."""
    rng = random.Random(SCAN_SEED)
    scan = {
        s.name: s.size / MEMORY_SCAN_BW * (1.0 + SCAN_JITTER * (2 * rng.random() - 1))
        for s in shards
    }
    leaves = {declared(s.name, s.size): (s.name, s.location) for s in shards}
    toolchain = Toolchain(Repository())
    needle = Handle.of_blob(b"the")  # a literal: it rides in the Encodes
    tree = count_tree(toolchain, list(leaves), needle, task_memory)
    merges = itertools.count()

    def label(fn: str, inputs: Tuple[str, ...]) -> Tuple[str, str, float]:
        if fn == "count-string":
            return f"count:{inputs[0]}", f"cnt:{inputs[0]}", scan[inputs[0]]
        index = next(merges)
        return f"merge:{index}", f"mrg:{index}", MERGE_COMPUTE_SECONDS

    return JobGraph.from_encode(toolchain.repo, tree[roots], leaves, label)


def build_wordcount_graph(
    shards: Sequence[DataSpec], task_memory: int = COUNT_TASK_MEMORY
) -> JobGraph:
    """The fig. 8b dataflow: one count per shard, binary merge tree."""
    return _graph(shards, task_memory, slice(-1, None))


def map_only_graph(shards: Sequence[DataSpec]) -> JobGraph:
    """The map phase alone - all Pheromone can express (section 5.3.2):
    the same tree, cut at its count level."""
    return _graph(shards, COUNT_TASK_MEMORY, slice(len(shards)))
