"""``repro.sim`` - the discrete-event cluster substrate.

Substitutes for the paper's EC2 testbed: simulated machines (cores, RAM,
NICs), a contention-aware network, ``/proc/stat``-style CPU accounting,
and an S3-like remote storage service.  Every experiment in
``repro.bench`` runs on this substrate.
"""
