"""The Linux-process isolation point for fig. 7a.

The paper's "Linux" row runs the trivial add as a full process:
``vfork`` + ``exec`` + ``wait``, measured at 449.1 us per execution.  The
modeled cost is ``calibration.VFORK_EXEC``; this module provides the
*optional real measurement* (spawning ``/bin/true`` via
``os.posix_spawn``) so the reproduction can show the constant is the
right order of magnitude on the host running the benchmarks.
"""

from __future__ import annotations

import os
import time


def measure_process_spawn(iterations: int = 50) -> float:
    """Actually spawn a trivial process ``iterations`` times; returns the
    mean seconds per spawn.  Used by the fig. 7a bench as a sanity check
    that VFORK_EXEC is the right order of magnitude on this host."""
    target = "/bin/true"
    if not os.path.exists(target):  # pragma: no cover - exotic hosts
        target = "/usr/bin/true"
    start = time.perf_counter()
    for _ in range(iterations):
        pid = os.posix_spawn(target, [target], {})
        os.waitpid(pid, 0)
    return (time.perf_counter() - start) / iterations


def measure_python_call(iterations: int = 100_000) -> float:
    """Mean seconds per direct Python call of a trivial add (the
    reproduction's analog of the paper's 'static' row)."""

    def add(a: int, b: int) -> int:
        return (a + b) % 256

    start = time.perf_counter()
    for i in range(iterations):
        add(i & 0xFF, 100)
    return (time.perf_counter() - start) / iterations
