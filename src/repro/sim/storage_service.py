"""A remote storage service (Amazon S3 / network storage analog).

Fig. 8a configures "a remote data server with 150 ms response latency to
mimic Amazon S3 performance of fetching small objects"; this class models
exactly that: a fixed response latency per GET, a bandwidth term for large
objects, and a bounded number of concurrent connections.

(The *on-cluster* MinIO deployment used by the OpenWhisk baseline is a
different thing - see :mod:`repro.baselines.minio` - because its costs are
dominated by cluster NICs, not service latency.)
"""

from __future__ import annotations

from ..core.errors import SimulationError
from .engine import Event, Simulator
from .resources import Resource


class StorageService:
    """A latency + bandwidth + concurrency model of remote storage.

    ``response_latency`` is paid per request, in seconds (fig. 8a's is
    ``calibration.S3_LATENCY``, 150 ms).
    """

    name = "s3"

    def __init__(
        self,
        sim: Simulator,
        response_latency: float,
        bandwidth: float = 4e9,
        max_connections: int = 4096,
    ):
        if response_latency < 0 or bandwidth <= 0 or max_connections <= 0:
            raise SimulationError("invalid storage service parameters")
        self.sim = sim
        self.response_latency = response_latency
        self.bandwidth = bandwidth
        self._connections = Resource(
            sim, max_connections, name=f"{self.name}.conns"
        )
        self.gets = 0

    def get(self, nbytes: int) -> Event:
        """Fetch ``nbytes``; completes after latency + transfer time."""
        if nbytes < 0:
            raise SimulationError("cannot GET negative bytes")
        self.gets += 1
        return self.sim.process(self._op(nbytes), name=("{}.get", self.name))

    def _op(self, nbytes: int):
        yield self._connections.acquire(1)
        try:
            yield self.sim.timeout(
                self.response_latency + nbytes / self.bandwidth
            )
        finally:
            self._connections.release(1)
        return nbytes
