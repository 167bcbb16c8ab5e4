"""The Faasm baseline: Wasm software-fault isolation without externalized I/O.

Faasm (ATC '20) isolates functions with WebAssembly like Fixpoint, but
offers a general host interface (filesystem, shared state) instead of
Fix's declarative dependencies - so its dispatcher must set up that
environment on every call, costing the 10.6 ms / 2.3 ms (total / core)
measured in fig. 7a.  Only the microbenchmarks use this model.
"""

from __future__ import annotations

from ..dist.graph import TaskSpec
from .base import Platform
from .calibration import FAASM_CORE, FAASM_INVOKE


class Faasm(Platform):
    """Wasm FaaS with host-interface state sharing."""

    name = "Faasm"

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
