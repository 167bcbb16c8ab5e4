"""Machines, clusters, and the cluster-wide object registry.

The default cluster mirrors the paper's testbed: 10 nodes x 32 vCPU x
128 GiB (m5.8xlarge) on a 10 Gb/s network.  The object registry tracks
where every named data object lives (sizes are declared, contents live
only in the real-runtime tests), which both Fixpoint's scheduler and the
baselines consult - with different fidelity, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from ..core.errors import SchedulingError, SimulationError
from .engine import Event, Simulator
from .network import DEFAULT_BANDWIDTH, Network
from .resources import Resource
from .stats import CpuAccountant

GIB = 1 << 30


@dataclass(frozen=True)
class MachineSpec:
    """Shape of one node (defaults: the paper's m5.8xlarge)."""

    name: str
    cores: int = 32
    memory_bytes: int = 128 * GIB
    nic_bandwidth: float = DEFAULT_BANDWIDTH


class Machine:
    """One simulated node: a core pool, a RAM pool, and a NIC."""

    def __init__(self, sim: Simulator, spec: MachineSpec, network: Network):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.cores = Resource(sim, spec.cores, name=f"{spec.name}.cores")
        self.memory = Resource(sim, spec.memory_bytes, name=f"{spec.name}.mem")
        self.nic = network.attach(spec.name, spec.nic_bandwidth)

    def resize_cores(self, capacity: int) -> None:
        """Oversubscribe (or shrink) the schedulable core count.

        Used by the "internal I/O" ablations, which give the platform more
        schedulable cores than physical ones (fig. 8a: 200 vs 32).
        """
        if capacity < self.cores.in_use:
            raise SimulationError("cannot shrink below current usage")
        self.cores.capacity = capacity


@dataclass(slots=True)
class ObjectInfo:
    """A named, sized datum and the set of places holding a replica.

    Slotted: a placement reads ``size`` once per input, and a slot read
    touches the object alone, not the object and its ``__dict__``."""

    name: str
    size: int
    locations: Set[str] = field(default_factory=set)


class Cluster:
    """A set of machines, a network, an accountant, and object locations."""

    def __init__(self, sim: Simulator, specs: Iterable[MachineSpec]):
        self.sim = sim
        self.network = Network(sim)
        self.machines: Dict[str, Machine] = {}
        for spec in specs:
            if spec.name in self.machines:
                raise SimulationError(f"duplicate machine {spec.name!r}")
            self.machines[spec.name] = Machine(sim, spec, self.network)
        self.accountant = CpuAccountant(sim)
        self.objects: Dict[str, ObjectInfo] = {}

    @property
    def total_cores(self) -> int:
        """Schedulable cores cluster-wide.

        Uses the core pools' live capacity, not the specs: the internal-I/O
        ablations oversubscribe via :meth:`Machine.resize_cores`, and CPU
        accounting must be reported against what was schedulable.
        """
        return sum(m.cores.capacity for m in self.machines.values())

    @property
    def total_memory(self) -> int:
        """RAM bytes cluster-wide - the admission layer's default
        capacity for its single-bin pointwise footprint check."""
        return sum(m.memory.capacity for m in self.machines.values())

    def machine_names(self) -> List[str]:
        return list(self.machines)

    def machine(self, name: str) -> Machine:
        try:
            return self.machines[name]
        except KeyError:
            raise SimulationError(f"no machine named {name!r}") from None

    # ------------------------------------------------------------------
    # Object registry

    def add_object(self, name: str, size: int, location: str) -> ObjectInfo:
        """Register a datum replica (creating the record if new)."""
        info = self.objects.get(name)
        if info is None:
            info = ObjectInfo(name=name, size=size)
            self.objects[name] = info
        elif info.size != size:
            raise SimulationError(
                f"object {name!r} re-registered with size {size} != {info.size}"
            )
        info.locations.add(location)
        return info

    def object(self, name: str) -> ObjectInfo:
        try:
            return self.objects[name]
        except KeyError:
            raise SchedulingError(f"unknown object {name!r}") from None

    def bytes_missing(self, names: Iterable[str], machine: str) -> int:
        """Bytes that would have to move to run something needing ``names``
        on ``machine`` - the scheduler's placement cost (paper 4.2.2)."""
        return sum(
            self.objects[n].size
            for n in names
            if machine not in self.objects[n].locations
        )

    def transfer_object(self, name: str, dst: str) -> Event:
        """Replicate ``name`` to ``dst`` from its nearest holder the
        network can send from (not the storage service)."""
        info = self.object(name)
        if dst in info.locations:
            return self.sim.timeout(0.0, value=0)
        holders = [loc for loc in info.locations if loc in self.network._nics]
        if not holders:
            raise SchedulingError(f"object {name!r} has no replicas")
        src = min(holders)  # deterministic choice
        done = self.sim.event(("replicate {} -> {}", name, dst))

        def finish(event: Event) -> None:
            if event.ok:
                info.locations.add(dst)
                done.succeed(info.size)
            else:
                done.fail(event.value)

        self.network.transfer(src, dst, info.size).add_callback(finish)
        return done
