"""``repro.dist`` - distributed Fixpoint: the simulated-evaluation layer.

Five modules, mirroring the paper's distributed design (sections 4.2, 5-6):

* :mod:`repro.dist.graph` - the abstract job IR (:class:`JobGraph`,
  :class:`TaskSpec`, the :data:`CLIENT` / :data:`EXTERNAL` placements);
* :mod:`repro.dist.objectview` - :class:`ObjectView`, the passive,
  possibly-stale per-node replica map with its incremental holdings
  index and the versioned digest/delta anti-entropy state;
* :mod:`repro.dist.gossip` - :class:`Participant`, the one
  SYN/ACK/PUSH handshake core; :class:`GossipCoordinator`, its simulated
  driver (seeded random-peer rounds, O(log n) convergence, O(delta)
  bytes per handshake); and the digest/delta wire codec its executing
  driver's GOSSIP frames use;
* :mod:`repro.dist.membership` - :class:`MembershipView`, SWIM-style
  gossiped liveness (heartbeats, suspect -> confirm, tombstones) whose
  confirmations evict a dead node's beliefs and placement candidacy;
* :mod:`repro.dist.costmodel` - the one placement policy (believed
  bytes moved, load tiebreak, output hints, dead-node exclusion) shared
  by the simulated scheduler and the executing runtime in
  :mod:`repro.fixpoint.net`;
* :mod:`repro.dist.scheduler` - :class:`DataflowScheduler`,
  locality-first placement with load feedback and output-size hints;
* :mod:`repro.dist.engine` - :class:`FixpointSim`, the distributed
  platform with externalized I/O and late binding (plus its ablations);
* :mod:`repro.dist.multitenancy` - section 6's footprint-aware packing,
  the profile-from-graph derivation, and the online single-bin check;
* :mod:`repro.dist.admission` - :class:`AdmissionController`, the
  multi-tenant queue/admit/fair-share/bill layer that connects the
  engine to the packing model (section 6 end to end).

``engine`` and ``admission`` are imported lazily (PEP 562): they build
on :mod:`repro.baselines.base`, which itself consumes the job IR from
this package, so an eager import here would complete the baselines <->
dist cycle.  Everything in ``__all__`` is still reachable as
``repro.dist.<name>``.
"""

from __future__ import annotations

from .costmodel import Quote, choose, price_moves
from .gossip import (
    ExchangeStats,
    GossipConfig,
    GossipCoordinator,
    GossipError,
    RoundStats,
)
from .graph import (
    CLIENT,
    EXTERNAL,
    DataSpec,
    JobGraph,
    TaskSpec,
)
from .multitenancy import (
    AppProfile,
    Packing,
    Phase,
    density_ratio,
    fits_online,
    footprint_aware_packing,
    peak_reservation_packing,
    profile_from_graph,
    spiky_workload,
    validate_packing,
    validate_timeline,
)
from .membership import (
    Member,
    MembershipError,
    MembershipView,
)
from .objectview import Delta, Digest, ObjectView
from .scheduler import DataflowScheduler, Placement

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionReport",
    "AppProfile",
    "CLIENT",
    "DataSpec",
    "DataflowScheduler",
    "Delta",
    "Digest",
    "EXTERNAL",
    "ExchangeStats",
    "FixpointSim",
    "GossipConfig",
    "GossipCoordinator",
    "GossipError",
    "JobGraph",
    "JobTicket",
    "Member",
    "MembershipError",
    "MembershipView",
    "ObjectView",
    "RoundStats",
    "Packing",
    "Phase",
    "Placement",
    "Quote",
    "TaskSpec",
    "TenantBill",
    "TenantQueue",
    "choose",
    "density_ratio",
    "fits_online",
    "footprint_aware_packing",
    "peak_reservation_packing",
    "price_moves",
    "profile_from_graph",
    "spike_job",
    "spiky_workload",
    "validate_packing",
    "validate_timeline",
]

_LAZY = {
    "FixpointSim": ("repro.dist.engine", "FixpointSim"),
    "AdmissionController": ("repro.dist.admission", "AdmissionController"),
    "AdmissionError": ("repro.dist.admission", "AdmissionError"),
    "AdmissionReport": ("repro.dist.admission", "AdmissionReport"),
    "JobTicket": ("repro.dist.admission", "JobTicket"),
    "TenantBill": ("repro.dist.admission", "TenantBill"),
    "TenantQueue": ("repro.dist.admission", "TenantQueue"),
    "spike_job": ("repro.dist.admission", "spike_job"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
