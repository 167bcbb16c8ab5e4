"""The fig. 8a workload: 1,024 one-off functions on remote-storage inputs.

Each invocation depends on a distinct input on a remote data server with
150 ms response latency, requests 1 CPU and 1 GB of memory, and performs a
trivial computation ("adds the input to itself").  The server offers 32
cores and 64 GiB, so at most 32 provisioned invocations can run - but up
to 64 can *hold memory* while fetching under the oversubscribed
"internal I/O" configuration (200 schedulable cores), which is precisely
the starvation fig. 8a quantifies.
"""

from __future__ import annotations

from ..dist.graph import EXTERNAL, JobGraph, TaskSpec

PAPER_TASKS = 1024
PAPER_INPUT_BYTES = 8 << 10  # small objects: latency-dominated
PAPER_COMPUTE_SECONDS = 3e-6  # fig. 8a: ~3 ms user time over 1,024 tasks
GB = 10**9


def build_oneoff_graph(tasks: int = PAPER_TASKS) -> JobGraph:
    """``tasks`` independent invocations, each on one external input."""
    graph = JobGraph()
    for i in range(tasks):
        name = f"input-{i:04d}"
        graph.add_data(name, PAPER_INPUT_BYTES, EXTERNAL)
        graph.add_task(
            TaskSpec(
                name=f"oneoff-{i:04d}",
                fn="add-to-self",
                inputs=(name,),
                output=f"out-{i:04d}",
                output_size=PAPER_INPUT_BYTES,
                compute_seconds=PAPER_COMPUTE_SECONDS,
                cores=1,
                memory_bytes=GB,
            )
        )
    return graph


ADD_TO_SELF_SOURCE = '''\
"""The fig. 8a function body: add the input to itself."""

def _fix_apply(fix, input):
    entries = fix.read_tree(input)
    data = fix.read_blob(entries[2])
    doubled = bytes((2 * b) % 256 for b in data)
    return fix.create_blob(doubled)
'''
