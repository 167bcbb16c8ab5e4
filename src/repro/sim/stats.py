"""Per-core CPU-state accounting, mirroring ``/proc/stat``.

The paper's fig. 8 reports user / system / "I/O and waiting" breakdowns
collected from Linux's CPU-state statistics.  The simulator reproduces the
methodology: every simulated core-occupying activity is attributed to a
state, and the *idle* residue is derived from the observation window, so
``user + system + iowait + idle == cores x window`` exactly (an invariant
the property tests check).

States:

* ``user``    - executing function logic;
* ``system``  - platform overhead (orchestration, container churn, RPC);
* ``iowait``  - a claimed core stalled waiting for data ("internal" I/O);
* ``idle``    - derived: cores not claimed by anything.

Fix's externalized I/O shows up as *idle* cores (releasable, schedulable),
whereas internal-I/O platforms show *iowait* (claimed but starving) - the
distinction at the heart of fig. 8b.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator

from ..core.errors import SimulationError
from .engine import Simulator

BUSY_STATES = ("user", "system", "iowait")


class CpuAccountant:
    """Accumulates core-seconds by (machine, state)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._core_seconds: Dict[str, Dict[str, float]] = {}

    @contextmanager
    def track(self, machine: str, state: str, cores: int = 1) -> Iterator[None]:
        """Charge ``cores`` in ``state`` on ``machine`` while the block is open.

        The charge lands in a ``finally``, so an activity that raises -
        or, in a simulation process, that the engine throws into at a
        yield point (a failed fetch) - is still charged for the
        core-time it actually held; a stopwatch around the wait would
        lose the interval, leaving ``busy`` under-accounted and the idle
        residue inflated.
        """
        if state not in BUSY_STATES:
            raise SimulationError(f"unknown CPU state {state!r}")
        started = self.sim.now
        try:
            yield
        finally:
            per_machine = self._core_seconds.get(machine)
            if per_machine is None:
                per_machine = self._core_seconds[machine] = dict.fromkeys(
                    BUSY_STATES, 0.0
                )
            per_machine[state] += (self.sim.now - started) * cores

    def core_seconds(self, machine: str | None = None) -> Dict[str, float]:
        """Busy core-seconds by state, for one machine or the whole cluster."""
        if machine is not None:
            return dict(
                self._core_seconds.get(machine, {s: 0.0 for s in BUSY_STATES})
            )
        totals = {state: 0.0 for state in BUSY_STATES}
        for per_machine in self._core_seconds.values():
            for state, value in per_machine.items():
                totals[state] += value
        return totals


@dataclass
class CpuReport:
    """Percentages over an observation window, like the paper's fig. 8."""

    window_seconds: float
    total_cores: int
    user: float
    system: float
    iowait: float
    idle: float

    @property
    def waiting_pct(self) -> float:
        """The paper's "CPU waiting %" = idle + iowait (+irq, absent here)."""
        return self.iowait + self.idle

    @property
    def user_pct(self) -> float:
        return self.user

    def as_row(self) -> Dict[str, float]:
        return {
            "user%": round(self.user, 1),
            "system%": round(self.system, 1),
            "iowait%": round(self.iowait, 1),
            "idle%": round(self.idle, 1),
            "waiting%": round(self.waiting_pct, 1),
        }


def report(
    accountant: CpuAccountant, total_cores: int, window_seconds: float
) -> CpuReport:
    """Summarize cluster-wide CPU states over ``window_seconds``."""
    if window_seconds <= 0 or total_cores <= 0:
        raise SimulationError("report needs a positive window and core count")
    busy = accountant.core_seconds()
    capacity = total_cores * window_seconds
    used = sum(busy.values())
    if used - capacity > 1e-6 * capacity:
        raise SimulationError(
            f"accounted {used:.3f} core-seconds exceeds capacity {capacity:.3f}"
        )
    idle = max(0.0, capacity - used)
    return CpuReport(
        window_seconds=window_seconds,
        total_cores=total_cores,
        user=100.0 * busy["user"] / capacity,
        system=100.0 * busy["system"] / capacity,
        iowait=100.0 * busy["iowait"] / capacity,
        idle=100.0 * idle / capacity,
    )
