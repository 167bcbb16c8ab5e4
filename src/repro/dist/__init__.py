"""``repro.dist`` - distributed Fixpoint: the simulated-evaluation layer.

Nine modules, mirroring the paper's distributed design (sections 4.2, 5-6):

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

Import each name from the module that defines it; this package
re-exports nothing.
"""
