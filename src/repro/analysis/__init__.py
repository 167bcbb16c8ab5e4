"""``repro.analysis`` - machine-checked concurrency discipline.

Two tools, one contract: the invariants reviewers kept re-deriving by
hand (PR 4's one-worker dispatch deadlock, PR 5's split channel
sequence space, PR 6's accountant token leak) are now checked by the
build.

* :mod:`repro.analysis.sync` - drop-in :func:`TrackedLock` /
  :func:`TrackedRLock` / :func:`TrackedCondition` factories (raw
  ``threading`` pass-through when tracking is off, like ``NULL_OBS``)
  feeding a :class:`LockTracker` that records the process-wide
  lock-acquisition graph, reports lock-order inversions with both
  stacks, raises on provable self-deadlock, and flags blocking calls
  made while holding a lock.  Enabled suite-wide by ``pytest --race``,
  which fails the test during which a hazard was recorded; CI runs
  tier-1 that way on every push.

* :mod:`repro.analysis.lint` - an AST linter over ``src/`` enforcing
  repo invariants statically: no wall clock or unseeded randomness in
  sim-clocked modules (aliased imports included), no raw ``threading``
  locks and no ``time.sleep`` outside this package (the tracker sees
  neither), no bare ``except:``.  Run it with
  ``python -m repro.analysis.lint src`` (CI fails on it).
"""
