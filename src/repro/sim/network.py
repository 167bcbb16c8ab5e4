"""The simulated cluster network: NICs, links, transfers.

Each machine attaches a :class:`NIC` with a transmit and a receive
:class:`~repro.sim.resources.Pipe`.  A bulk transfer occupies the source's
tx pipe and the destination's rx pipe for ``size / bandwidth`` seconds
after a propagation ``latency`` - so concurrent transfers through the same
NIC contend, which is exactly the effect that makes non-local placement
expensive in fig. 8b.

Control messages (job delegation, completion notices, view updates) are
latency-only: their payloads are tiny by design - Fix ships dependency
information inside handles.
"""

from __future__ import annotations

from typing import Dict

from ..core.errors import SimulationError
from .engine import Event, Simulator
from .resources import Pipe

DEFAULT_BANDWIDTH = 1.25e9  # 10 Gb/s, the m5.8xlarge class NIC
DEFAULT_LATENCY = 0.0002  # 200 us intra-cluster
LOCAL_BANDWIDTH = 12.5e9  # in-memory / loopback copies


class NIC:
    """One machine's network interface: serialized tx and rx pipes."""

    def __init__(self, sim: Simulator, name: str, bandwidth: float):
        self.name = name
        self.tx = Pipe(sim, bandwidth, name=f"{name}.tx")
        self.rx = Pipe(sim, bandwidth, name=f"{name}.rx")

class Network:
    """A full mesh of NICs with uniform latency."""

    def __init__(self, sim: Simulator, latency: float = DEFAULT_LATENCY):
        self.sim = sim
        self.latency = latency
        self._nics: Dict[str, NIC] = {}
        self.bytes_transferred = 0
        self.messages = 0

    def attach(self, name: str, bandwidth: float = DEFAULT_BANDWIDTH) -> NIC:
        if name in self._nics:
            raise SimulationError(f"NIC {name!r} already attached")
        nic = NIC(self.sim, name, bandwidth)
        self._nics[name] = nic
        return nic

    def nic(self, name: str) -> NIC:
        try:
            return self._nics[name]
        except KeyError:
            raise SimulationError(f"no NIC named {name!r}") from None

    def link_latency(self, src: str, dst: str) -> float:
        return 0.0 if src == dst else self.latency

    # ------------------------------------------------------------------
    # Transfers

    def transfer(self, src: str, dst: str, nbytes: int) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; returns a completion event."""
        if nbytes < 0:
            raise SimulationError("cannot transfer negative bytes")
        self.bytes_transferred += nbytes
        if src == dst:
            # In-memory copy: no NIC involvement.
            return self.sim.timeout(nbytes / LOCAL_BANDWIDTH, value=nbytes)
        return self.sim.process(
            self._transfer_proc(src, dst, nbytes), name=("xfer {}->{}", src, dst)
        )

    def _transfer_proc(self, src: str, dst: str, nbytes: int):
        # Store-and-forward through the two serializing pipes: the bytes
        # pass the sender's tx queue, then the receiver's rx queue.  Each
        # NIC side therefore sustains exactly its configured bandwidth in
        # aggregate, and crossing transfers never hold-and-wait on each
        # other (no convoying, no deadlock).  A lone transfer pays the
        # path twice - an accepted fidelity trade-off; bulk experiments
        # are throughput-bound, where this model is exact.
        src_nic = self.nic(src)
        dst_nic = self.nic(dst)
        yield self.sim.timeout(self.link_latency(src, dst))
        yield src_nic.tx.send(nbytes)
        yield dst_nic.rx.send(nbytes)
        return nbytes

    def message(self, src: str, dst: str) -> Event:
        """A latency-only control message (no NIC occupancy)."""
        self.messages += 1
        return self.sim.timeout(self.link_latency(src, dst))
