"""A MinIO-style object store deployed across the cluster.

OpenWhisk (and the Popen-style Ray baseline) move *all* data through an
object store: functions GET their inputs after starting and PUT their
outputs before finishing.  Objects are sharded across the cluster nodes by
a deterministic hash of their name; every GET/PUT pays a request overhead
plus a cluster-network transfer at MinIO's effective per-stream
throughput (see calibration.py).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Tuple

from ..core.errors import SchedulingError
from ..sim.cluster import Cluster
from ..sim.engine import Event, Simulator
from .calibration import MINIO_REQUEST_OVERHEAD


def _shard(name: str, buckets: int) -> int:
    digest = hashlib.blake2b(name.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") % buckets


class MinIO:
    """Object store: name -> (size, holder node)."""

    def __init__(self, sim: Simulator, cluster: Cluster):
        self.sim = sim
        self.cluster = cluster
        self._nodes = cluster.machine_names()
        if not self._nodes:
            raise SchedulingError("MinIO needs at least one node")
        self._objects: Dict[str, Tuple[int, str]] = {}
        # Erasure coding spreads reads over the deployment; the serving
        # node is effectively arbitrary per GET (seeded for determinism,
        # uncorrelated with any scheduler's placement rotation).
        self._stripe_rng = random.Random(1349)
        self.gets = 0
        self.puts = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def node_for(self, name: str) -> str:
        return self._nodes[_shard(name, len(self._nodes))]

    def contains(self, name: str) -> bool:
        return name in self._objects

    def size_of(self, name: str) -> int:
        return self._objects[name][0]

    def preload(self, name: str, size: int) -> str:
        """Place an object in the store with no simulated cost (the state
        before an experiment begins, like the paper's pre-filled buckets)."""
        node = self.node_for(name)
        self._objects[name] = (size, node)
        return node

    def get(self, name: str, dst: str) -> Event:
        """Fetch ``name`` to ``dst``; request overhead + network transfer.

        Reads are striped (MinIO erasure-codes objects across the
        deployment), so repeated GETs of a hot object spread over the
        cluster's transmit pipes instead of hammering one holder.  Every
        GET moves the bytes again - MinIO clients do not share a cache,
        which is exactly the cost fig. 10's baselines pay per invocation.
        """
        if name not in self._objects:
            raise SchedulingError(f"MinIO: no object {name!r}")
        size, _node = self._objects[name]
        source = self._stripe_rng.choice(self._nodes)
        self.gets += 1
        self.bytes_read += size
        return self.sim.process(
            self._op(source, dst, size), name=("minio.get {}", name)
        )

    def put(self, name: str, size: int, src: str) -> Event:
        """Store ``name`` from ``src``; returns event with the holder node."""
        node = self.node_for(name)
        self._objects[name] = (size, node)
        self.puts += 1
        self.bytes_written += size
        return self.sim.process(self._op(src, node, size), name=("minio.put {}", name))

    def _op(self, src: str, dst: str, size: int):
        yield self.sim.timeout(MINIO_REQUEST_OVERHEAD)
        if src != dst:
            yield self.cluster.network.transfer(src, dst, size)
        else:
            yield self.sim.timeout(0.0)
        return dst
