"""Counted resources with FIFO admission for the simulator.

Models CPU-core pools, RAM, storage-service connection limits, and NIC
pipes.  A :class:`Resource` has integer capacity; ``acquire(n)`` yields an
event that succeeds when ``n`` units have been granted, in strict FIFO
order (no overtaking - a large request at the head blocks smaller ones
behind it, which is how RAM admission behaves on real nodes and what makes
the fig. 8a "internal I/O" ablation starve).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..core.errors import SimulationError
from .engine import Event, Simulator


class Resource:
    """An integer-capacity resource with FIFO waiters."""

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 0:
            raise SimulationError(f"negative capacity for {name}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Tuple[int, Event]] = deque()

    def acquire(self, amount: int = 1) -> Event:
        """An event granting ``amount`` units (FIFO)."""
        if amount < 0:
            raise SimulationError("cannot acquire a negative amount")
        if amount > self.capacity:
            raise SimulationError(
                f"{self.name}: request of {amount} exceeds capacity "
                f"{self.capacity} and would never be granted"
            )
        event = self.sim.event(("{}.acquire({})", self.name, amount))
        self._waiters.append((amount, event))
        self._grant()
        return event

    def release(self, amount: int = 1) -> None:
        if amount < 0:
            raise SimulationError("cannot release a negative amount")
        if self.in_use - amount < 0:
            raise SimulationError(
                f"{self.name}: releasing {amount} but only {self.in_use} in use"
            )
        self.in_use -= amount
        self._grant()

    def _grant(self) -> None:
        while self._waiters:
            amount, event = self._waiters[0]
            if event.triggered:  # cancelled externally
                self._waiters.popleft()
                continue
            if self.in_use + amount > self.capacity:
                return  # FIFO: head blocks the queue
            self._waiters.popleft()
            self.in_use += amount
            event.succeed(amount)

class Pipe:
    """A serializing channel: one transfer at a time, FIFO.

    Used for NIC tx/rx sides: concurrent transfers on the same NIC queue
    behind each other, which models bandwidth contention at the fidelity
    the experiments need (aggregate transfer time is conserved).
    """

    def __init__(self, sim: Simulator, bytes_per_second: float, name: str = "pipe"):
        if bytes_per_second <= 0:
            raise SimulationError(f"non-positive bandwidth for {name}")
        self.sim = sim
        self.name = name
        self.bandwidth = bytes_per_second
        self._gate = Resource(sim, 1, name=f"{name}.gate")

    def send(self, nbytes: int) -> Event:
        """An event succeeding when ``nbytes`` have passed the pipe."""
        if nbytes < 0:
            raise SimulationError("cannot send negative bytes")
        done = self.sim.event(("{}.send({})", self.name, nbytes))
        duration = nbytes / self.bandwidth

        def start(grant: Event) -> None:
            def finish(_: Event) -> None:
                self._gate.release(1)
                done.succeed(nbytes)

            self.sim.timeout(duration).add_callback(finish)

        self._gate.acquire(1).add_callback(start)
        return done
