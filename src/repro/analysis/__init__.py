"""``repro.analysis`` - machine-checked concurrency discipline.

Three tools, one contract: the invariants reviewers kept re-deriving by
hand (PR 4's one-worker dispatch deadlock, PR 5's split channel
sequence space, PR 6's accountant token leak) are now checked by the
build.

* :mod:`repro.analysis.sync` - drop-in :func:`TrackedLock` /
  :func:`TrackedRLock` / :func:`TrackedCondition` factories (raw
  ``threading`` pass-through when tracking is off, like ``NULL_OBS``)
  feeding a :class:`LockTracker` that records the process-wide
  lock-acquisition graph, reports lock-order inversions with both
  stacks, raises on provable self-deadlock, and flags blocking calls
  made while holding a lock.  Enabled suite-wide by ``pytest --race``.

* :mod:`repro.analysis.lint` - an AST linter over ``src/`` enforcing
  repo invariants statically: no wall clock or unseeded randomness in
  sim-clocked modules (aliased imports included), no raw ``threading``
  locks outside this package, no bare ``except:``, every ``pack_*``
  has its ``unpack_*`` *and* agrees with it on fixed-width struct
  layout.  Run it with ``python -m repro.analysis.lint src`` (CI fails on it).

* :mod:`repro.analysis.flow` - the interprocedural layer the linter
  cannot be: a best-effort call graph (:mod:`repro.analysis.callgraph`)
  over the whole tree, a transitive **may-block** effect, per-function
  **lock summaries**, and the *static* lock-acquisition graph in the
  same creation-site-label vocabulary the runtime tracker speaks.
  Flags hold-while-blocking through any depth of calls and potential
  ABBA cycles with full call-chain witnesses - before any thread runs.
  ``python -m repro.analysis.flow src``; under ``pytest --race`` the
  static graph is diffed against the dynamically observed one
  (:mod:`repro.analysis.crosscheck`): dynamic-only edges are model
  bugs, static-only edges are unexercised coverage.
"""

from .sync import (
    DeadlockError,
    LockOrderError,
    LockTracker,
    RaceReport,
    TrackedCondition,
    TrackedLock,
    TrackedRLock,
    base_label,
    current_tracker,
    disable_tracking,
    enable_tracking,
    note_blocking,
    tracking,
)

#: Static-analysis names resolve lazily (PEP 562): ``python -m
#: repro.analysis.lint`` / ``...flow`` must be able to execute the
#: submodule as ``__main__`` without this package having imported it
#: first (runpy warns otherwise).
_LINT_NAMES = ("Violation", "lint_source", "lint_tree", "lint")
_FLOW_NAMES = ("FlowReport", "analyze_source", "analyze_tree", "flow")
_CROSSCHECK_NAMES = ("CrossCheck", "crosscheck")


def __getattr__(name: str):
    # importlib.import_module, not ``from . import``: the latter probes
    # the package attribute first (hasattr via this very __getattr__)
    # and recurses before the submodule import ever starts.
    import importlib

    if name in _LINT_NAMES:
        mod = importlib.import_module(".lint", __name__)
        value = mod if name == "lint" else getattr(mod, name)
    elif name in _FLOW_NAMES:
        mod = importlib.import_module(".flow", __name__)
        value = mod if name == "flow" else getattr(mod, name)
    elif name in _CROSSCHECK_NAMES:
        mod = importlib.import_module(".crosscheck", __name__)
        value = getattr(mod, name)
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    globals()[name] = value
    return value


__all__ = [
    "CrossCheck",
    "DeadlockError",
    "FlowReport",
    "LockOrderError",
    "LockTracker",
    "RaceReport",
    "TrackedCondition",
    "TrackedLock",
    "TrackedRLock",
    "Violation",
    "analyze_source",
    "analyze_tree",
    "base_label",
    "crosscheck",
    "current_tracker",
    "disable_tracking",
    "enable_tracking",
    "lint_source",
    "lint_tree",
    "note_blocking",
    "tracking",
]
