"""repro - a Python reproduction of "Fix: externalizing network I/O in
serverless computing" (Deng et al., EuroSys 2026).

Public surface:

* :mod:`repro.core` - the Fix ABI: Handles, Blobs/Trees, Thunks, Encodes,
  minimum repositories, and the evaluator.
* :mod:`repro.codelets` - the trusted toolchain, sandbox, and linker.
* :mod:`repro.fixpoint` - the executable multi-worker runtime (and the
  functional multi-node delegation in :mod:`repro.fixpoint.net`).
* :mod:`repro.sim` - the discrete-event cluster substrate.
* :mod:`repro.dist` - distributed Fixpoint: the job IR, the passive
  object view, the dataflow scheduler, the :class:`~repro.dist.engine.FixpointSim`
  platform (externalized I/O + late binding), and section 6's
  footprint-aware multitenancy packing.
* :mod:`repro.baselines` - OpenWhisk/MinIO/K8s, Ray, Pheromone, Faasm models.
* :mod:`repro.flatware` - the POSIX-compat layer over Fix Trees.
* :mod:`repro.workloads` - the paper's evaluation workloads.
* :mod:`repro.bench` - the experiment harness regenerating every figure.
* :mod:`repro.obs` - cluster-wide metrics registry + causal tracing
  (spans stitched across delegation/gossip wire frames).
* :mod:`repro.analysis` - machine-checked concurrency discipline: the
  tracked-lock race detector behind ``pytest --race`` and the
  repo-invariant AST linter (``python -m repro.analysis.lint src``).

Every name is imported from the module that defines it (``from
repro.core.handle import Handle``); a package re-exports a name only
where callers use that spelling: ``from repro import Fixpoint`` (every
example's entry point) and the :mod:`repro.obs` facade's ``__all__``.
"""

from .fixpoint.runtime import Fixpoint

__version__ = "1.0.0"

__all__ = ["Fixpoint", "__version__"]
