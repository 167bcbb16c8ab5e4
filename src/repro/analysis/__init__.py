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
