"""The paper's reported numbers, transcribed per table and figure.

Used by every bench to print paper-vs-measured rows and by the shape
assertions (orderings and factor bands - never point equality; the
substrate is a simulator, not the authors' testbed).
"""

from __future__ import annotations

from ..workloads import compilejob, corpus

# ----------------------------------------------------------------------
# Fig. 7a: trivial-invocation overhead (seconds)

FIG7A_SECONDS = {
    "static": 1.8e-9,
    "virtual": 12.2e-9,
    "Fixpoint": 1.46e-6,
    "Linux process": 449.1e-6,
    "Pheromone": 1.05e-3,
    "Ray": 1.29e-3,
    "Faasm": 10.6e-3,
    "OpenWhisk": 30.7e-3,
}

#: Internally-timed "core" execution where the paper reports it.
FIG7A_CORE_SECONDS = {
    "Pheromone": 27.0e-6,
    "Faasm": 2.3e-3,
    "OpenWhisk": 5.2e-3,
}

#: Section 1's summary slowdowns (vs Fix).
FIG7A_SLOWDOWNS = {
    "Linux process": 307,
    "Pheromone": 720,
    "Ray": 881,
    "Faasm": 7260,
    "OpenWhisk": 20980,
}

# ----------------------------------------------------------------------
# Fig. 7b: 500-invocation chain (seconds)

FIG7B_SECONDS = {
    "nearby": {"Fixpoint": 5.0e-3, "Pheromone": 17.6e-3, "Ray": 0.821},
    "remote": {"Fixpoint": 25.7e-3, "Pheromone": 38.7e-3, "Ray": 11.7},
}
FIG7B_CHAIN_LENGTH = 500

# ----------------------------------------------------------------------
# Fig. 8a: 1,024 one-off invocations (milliseconds / tasks per second)

FIG8A = {
    "Fix": {
        "user_ms": 3,
        "system_ms": 2,
        "io_wait_ms": 263,
        "total_ms": 268,
        "throughput": 3827,
    },
    "Fix (internal I/O)": {
        "user_ms": 11,
        "system_ms": 6,
        "io_wait_ms": 2621,
        "total_ms": 2638,
        "throughput": 388,
    },
}

# ----------------------------------------------------------------------
# Fig. 8b: Wikipedia word-count (seconds)

FIG8B_SECONDS = {
    "Fixpoint": 3.25,
    "Fixpoint (no locality)": 31.43,
    "Fixpoint (no locality + internal I/O)": 33.78,
    "Ray (continuation-passing)": 6.39,
    "Ray (blocking)": 17.87,
    "Pheromone + MinIO (map only)": 42.29,
    "OpenWhisk + MinIO + K8s": 63.68,
}
FIG8B_SHARDS = corpus.PAPER_SHARDS
FIG8B_SHARD_BYTES = corpus.PAPER_SHARD_BYTES
FIG8B_NODES = 10

# ----------------------------------------------------------------------
# Fig. 9 / Table 2: B+-tree lookups

FIG9_ARITIES = [2**24, 2**12, 2**10, 2**8, 2**6]
FIG9_KEY_COUNT = 6_000_000
FIG9_MEAN_KEY_BYTES = 22
FIG9_QUERIES_PER_SET = 10
#: Summary table at arity 256 (seconds per query set).
FIG9_ARITY256 = {
    "Fixpoint": 0.14,
    "Ray (blocking)": 2.8,
    "Ray (continuation-passing)": 5.74,
}

# ----------------------------------------------------------------------
# Fig. 10: burst-parallel compilation (seconds)

FIG10_SECONDS = {
    "Fixpoint": 39.53,
    "Ray + MinIO": 76.87,
    "OpenWhisk + MinIO + K8s": 100.01,
}
FIG10_TU_COUNT = compilejob.PAPER_TU_COUNT
