"""The Faasm baseline: Wasm software-fault isolation without externalized I/O.

Faasm (ATC '20) isolates functions with WebAssembly like Fixpoint, but
offers a general host interface (filesystem, shared state) instead of
Fix's declarative dependencies - so its dispatcher must set up that
environment on every call, costing the 10.6 ms / 2.3 ms (total / core)
measured in fig. 7a.  Only the microbenchmarks use this model.
"""

from __future__ import annotations

from typing import Dict

from ..dist.graph import TaskSpec
from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from .base import JobRun, Platform
from .calibration import FAASM_CORE, FAASM_INVOKE


class Faasm(Platform):
    """Wasm FaaS with host-interface state sharing."""

    name = "Faasm"

    def __init__(self, sim: Simulator, cluster: Cluster, **kwargs):
        super().__init__(sim, cluster, **kwargs)
        self._outstanding: Dict[str, int] = {
            name: 0 for name in cluster.machine_names()
        }

    def _invoke_proc(self, task: TaskSpec, submitter: str, job: JobRun):
        node = min(self._outstanding, key=lambda m: (self._outstanding[m], m))
        self._outstanding[node] += 1
        try:
            yield self.cluster.network.message(submitter, node)
            yield from self._reserved(task, node, self._run(task, node))
        finally:
            self._outstanding[node] -= 1
        self.cluster.add_object(task.output, task.output_size, node)
        return node

    def _run(self, task: TaskSpec, node: str):
        # Dispatcher + module activation + host interface setup.
        yield from self._busy(
            node, "system", task.cores, FAASM_INVOKE - FAASM_CORE
        )
        # State comes through host calls while the core is held.
        with self.cluster.accountant.track(node, "iowait", task.cores):
            yield self._fetch_all(task.inputs, node)
        yield from self._busy(node, "system", task.cores, FAASM_CORE)
        yield from self._busy(node, "user", task.cores, task.compute_seconds)
