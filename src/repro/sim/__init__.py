"""``repro.sim`` - the discrete-event cluster substrate.

Substitutes for the paper's EC2 testbed: simulated machines (cores, RAM,
NICs), a contention-aware network, ``/proc/stat``-style CPU accounting,
and an S3-like remote storage service.  Every experiment in
``repro.bench`` runs on this substrate.
"""

from .cluster import GIB, Cluster, Machine, MachineSpec, ObjectInfo
from .engine import Event, Process, Simulator, all_of, any_of
from .network import (
    DEFAULT_BANDWIDTH,
    DEFAULT_LATENCY,
    LOCAL_BANDWIDTH,
    NIC,
    Network,
)
from .resources import Pipe, Resource, TokenBucket
from .stats import BUSY_STATES, CpuAccountant, CpuReport, report
from .storage_service import S3_SMALL_OBJECT_LATENCY, StorageService

__all__ = [
    "BUSY_STATES",
    "Cluster",
    "CpuAccountant",
    "CpuReport",
    "DEFAULT_BANDWIDTH",
    "DEFAULT_LATENCY",
    "Event",
    "GIB",
    "LOCAL_BANDWIDTH",
    "Machine",
    "MachineSpec",
    "NIC",
    "Network",
    "ObjectInfo",
    "Pipe",
    "Process",
    "Resource",
    "S3_SMALL_OBJECT_LATENCY",
    "Simulator",
    "StorageService",
    "TokenBucket",
    "all_of",
    "any_of",
    "report",
]
