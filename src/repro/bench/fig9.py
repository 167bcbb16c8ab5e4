"""Fig. 9: B+-tree lookup latency vs arity, Fixpoint vs two Ray styles.

The experiment (paper section 5.4): 6M Wikipedia titles in B+-trees of
arity 2^24 (flat) down to 2^6; five sets of ten random queries on a
single node with one worker; system state reset between sets (so a set
shares a warm cache, across sets everything is cold again).

Method here: the *structure* (node counts, keys-blob bytes, path node
identities, cache behaviour) is computed exactly; per-visit costs come
from the calibrated constants (:data:`CHARGES`); tests/test_fig9_model.py
checks the model against real trees: nodes per level, and per query the
instrumented walker's invocations, gets and child-ref bytes (32 B per
child).  A visit is charged its level's mean fanout, rounded up, so its
ref bytes match wherever the real node holds that many children.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..baselines.calibration import (
    DISK_BW,
    DISK_LATENCY,
    FIX_NODE_PARSE,
    FIXPOINT_INVOKE,
    HASH_BW,
    LOCAL_READ_BW,
    PY_DESER_BW,
    RAY_BLOCKING_GET,
    RAY_CPS_STEP_EXTRA,
    RAY_DRIVER_SUBMIT,
    RAY_TASK_OVERHEAD,
)
from ..core.handle import HANDLE_BYTES
from .harness import ExperimentResult
from .paperdata import (
    FIG9_ARITIES,
    FIG9_ARITY256,
    FIG9_KEY_COUNT,
    FIG9_MEAN_KEY_BYTES,
    FIG9_QUERIES_PER_SET,
)


@dataclass(frozen=True)
class TreeShape:
    """Exact node counts per level (root first) for N keys at one arity."""

    key_count: int
    arity: int
    level_nodes: Tuple[int, ...]

    @property
    def levels(self) -> int:
        return len(self.level_nodes)

    def fanout(self, level: int) -> int:
        """Mean children per node at ``level`` (keys for the leaf level)."""
        below = (
            self.level_nodes[level + 1]
            if level + 1 < self.levels
            else self.key_count
        )
        return math.ceil(below / self.level_nodes[level])

    def keys_bytes(self, level: int, key_bytes: int) -> int:
        return self.fanout(level) * key_bytes

    def refs_bytes(self, level: int) -> int:
        """A child reference is a packed handle (a Ray ObjectRef is
        charged the same 32 bytes)."""
        return self.fanout(level) * HANDLE_BYTES


def tree_shape(key_count: int, arity: int) -> TreeShape:
    counts = [math.ceil(key_count / arity)]  # leaves
    while counts[-1] > 1:
        counts.append(math.ceil(counts[-1] / arity))
    return TreeShape(key_count, arity, tuple(reversed(counts)))


def _query_paths(
    shape: TreeShape, queries: int, seed: int
) -> List[List[Tuple[int, int]]]:
    """Node identities (level, index) along each query's path."""
    rng = random.Random(seed)
    paths = []
    for _ in range(queries):
        key_index = rng.randrange(shape.key_count)
        path = []
        for level, count in enumerate(shape.level_nodes):
            path.append((level, key_index * count // shape.key_count))
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# Per-system cost models (charged per node visit + per query)


def _cold_read(nbytes: int) -> float:
    """First touch of node data: disk latency + read + content hash."""
    return DISK_LATENCY + nbytes / DISK_BW + nbytes / HASH_BW


@dataclass(frozen=True)
class Charges:
    """What the model charges one system per query and per node visited.
    Both Ray styles pay a driver session per query; as in Table 2, it is
    the blocking lookup's one invocation, and CPS counts its steps."""

    query_invocations: int
    query_seconds: float
    invocations: int  # per visit, each costing invocation_seconds
    invocation_seconds: float
    gets: int  # per visit, each costing get_seconds
    get_seconds: float
    reads_refs: bool  # the child-ref array as well as the keys blob
    read_bw: float  # bytes/s at which touched bytes are ingested

    def touched(self, shape: TreeShape, level: int, key_bytes: int) -> int:
        keys = shape.keys_bytes(level, key_bytes)
        return keys + shape.refs_bytes(level) if self.reads_refs else keys


_SESSION = RAY_DRIVER_SUBMIT + RAY_TASK_OVERHEAD
CHARGES: Dict[str, Charges] = {
    # One object graph per lookup; selection thunks fetch only the keys.
    "Fixpoint": Charges(
        0, 0.0, 1, FIXPOINT_INVOKE + FIX_NODE_PARSE, 1, 0.0, False, LOCAL_READ_BW
    ),
    # One task; two gets per node (keys, child refs) inside it.
    "Ray (blocking)": Charges(
        1, _SESSION, 0, 0.0, 2, RAY_BLOCKING_GET, True, PY_DESER_BW
    ),
    # A continuation per get boundary, which costs the get.
    "Ray (continuation-passing)": Charges(
        0, _SESSION, 2, RAY_TASK_OVERHEAD + RAY_CPS_STEP_EXTRA, 2, 0.0, True,
        PY_DESER_BW,
    ),
}


def set_seconds(shape: TreeShape, system: str, seed: int, key_bytes: int) -> float:
    """Seconds for one set of 10 queries (shared cache within the set)."""
    charges = CHARGES[system]
    total = 0.0
    cache: Set[Tuple[int, int]] = set()
    for path in _query_paths(shape, FIG9_QUERIES_PER_SET, seed):
        total += charges.query_seconds
        for level, index in path:
            touched = charges.touched(shape, level, key_bytes)
            per_visit = (
                charges.invocations * charges.invocation_seconds
                + charges.gets * charges.get_seconds
                + touched / charges.read_bw
            )
            if (level, index) not in cache:
                cache.add((level, index))
                per_visit += _cold_read(touched)
            total += per_visit
    return total


def run(scale: float = 1.0, sets: int = 5) -> ExperimentResult:
    key_count = max(4096, int(FIG9_KEY_COUNT * scale))
    result = ExperimentResult(
        experiment="fig9",
        title=(
            f"B+-tree lookup over {key_count:,} titles: seconds per "
            f"{FIG9_QUERIES_PER_SET}-query set vs arity"
        ),
    )
    for arity in FIG9_ARITIES:
        shape = tree_shape(key_count, arity)
        row: Dict[str, object] = {
            "system": f"arity 2^{int(math.log2(arity))}",
            "levels_d": shape.levels,
        }
        fix_time = None
        for system in CHARGES:
            mean = sum(
                set_seconds(shape, system, seed, FIG9_MEAN_KEY_BYTES)
                for seed in range(sets)
            ) / sets
            short = {
                "Fixpoint": "fixpoint_s",
                "Ray (blocking)": "ray_blocking_s",
                "Ray (continuation-passing)": "ray_cps_s",
            }[system]
            row[short] = round(mean, 4)
            if system == "Fixpoint":
                fix_time = mean
        assert fix_time
        row["blocking_slowdown"] = round(row["ray_blocking_s"] / fix_time, 1)  # type: ignore[operator]
        row["cps_slowdown"] = round(row["ray_cps_s"] / fix_time, 1)  # type: ignore[operator]
        if arity == 2**8 and scale == 1.0:
            row["paper_fixpoint_s"] = FIG9_ARITY256["Fixpoint"]
            row["paper_blocking_s"] = FIG9_ARITY256["Ray (blocking)"]
            row["paper_cps_s"] = FIG9_ARITY256["Ray (continuation-passing)"]
        result.rows.append(row)
    result.notes.append(
        "Fixpoint's per-set time falls with arity (smaller keys blobs per "
        "node); Ray CPS rises as invocations multiply - the paper's "
        "crossover shape.  Absolute times sit below the paper's (its "
        "client/session path is not modeled); slowdown columns carry the "
        "comparison."
    )
    result.notes.append(
        "levels_d is Table 2's d (nodes on a root-to-leaf path)"
    )
    return result
