"""``repro.baselines`` - calibrated models of the comparator systems.

OpenWhisk + MinIO + Kubernetes, Ray (blocking / continuation-passing /
Popen), Pheromone, Faasm, and the Linux-process point, all executing the
same :class:`~repro.dist.graph.JobGraph`s as distributed Fixpoint on the
same simulated clusters.  Every constant lives in
:mod:`repro.baselines.calibration` with provenance notes.
"""
