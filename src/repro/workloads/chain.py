"""The fig. 7b workload: a 500-deep chain of increment functions.

Provides the **real chain** (nested application thunks evaluated on the
in-process runtime - the result of a 500-chain over 0 is 500) and the
**latency models** for the three systems' orchestration styles:

* **Fixpoint** expresses the whole chain in one serializable object graph:
  the client builds and uploads it once, the server forces 500 tail calls
  locally at ~1.5 us each.
* **Pheromone** registers the workflow once; each step fires locally off
  its trigger bucket (~tens of microseconds).
* **Ray** couples each dependency to the client that created it: every
  step is a fresh ``ray.remote`` round trip from the client, so the chain
  pays one client RTT *per invocation* - 500 RTTs.

The models are pure functions of the calibration constants; the paper's
nearby/remote numbers fall straight out (see bench/fig7b).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.calibration import (
    FIX_CLIENT_OBJECT,
    FIXPOINT_INVOKE,
    PHEROMONE_CHAIN_STEP,
    PHEROMONE_INVOKE,
    RAY_TASK_OVERHEAD,
    RTT_NEARBY,
    RTT_REMOTE,
    TCP_STREAM_BW,
)
from ..codelets.stdlib import blob_int, int_blob
from ..core.handle import HANDLE_BYTES, Handle
from ..fixpoint.runtime import Fixpoint


def build_chain(fp: Fixpoint, length: int) -> Handle:
    """Nested increment applications from 0: the whole chain is one Fix
    object."""
    current = fp.repo.put_blob(int_blob(0))
    inc = fp.stdlib["increment"]
    for _ in range(length):
        thunk = fp.invoke(inc, [current])
        current = thunk.wrap_strict()
    return current


def run_chain(fp: Fixpoint, length: int) -> int:
    result = fp.eval(build_chain(fp, length))
    return blob_int(fp.repo.get_blob(result).data)


# ----------------------------------------------------------------------
# Orchestration latency models (fig. 7b)


@dataclass(frozen=True)
class ChainLatency:
    system: str
    seconds: float
    roundtrips: int


def fixpoint_chain_latency(length: int, rtt: float) -> ChainLatency:
    """Client builds + uploads the chain once; server forces it locally."""
    # Each chain link is ~3 handles of tree plus bookkeeping on the wire.
    wire_bytes = length * 4 * HANDLE_BYTES
    build = length * FIX_CLIENT_OBJECT
    upload = wire_bytes / TCP_STREAM_BW
    execute = length * FIXPOINT_INVOKE
    return ChainLatency("Fixpoint", build + rtt + upload + execute, 1)


def pheromone_chain_latency(length: int, rtt: float) -> ChainLatency:
    """One registration round trip; steps fire locally off buckets."""
    register = rtt + PHEROMONE_INVOKE
    execute = length * PHEROMONE_CHAIN_STEP
    return ChainLatency("Pheromone", register + execute, 1)


def ray_chain_latency(length: int, rtt: float) -> ChainLatency:
    """Every step is a client-coupled ray.remote + ray.get round trip."""
    per_step = rtt + RAY_TASK_OVERHEAD
    return ChainLatency("Ray", length * per_step, length)


def chain_latencies(length: int = 500, nearby: bool = True) -> list[ChainLatency]:
    rtt = RTT_NEARBY if nearby else RTT_REMOTE
    return [
        fixpoint_chain_latency(length, rtt),
        pheromone_chain_latency(length, rtt),
        ray_chain_latency(length, rtt),
    ]
