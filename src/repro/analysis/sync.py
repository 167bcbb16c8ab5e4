"""Tracked locks: a lock-order race detector for the executing runtime.

The repo is a genuinely concurrent system - serve and fork threads,
wire-sequenced channels, gossip frames racing with in-flight
delegations - and every concurrency bug so far was found *by hand in
review*.  This module makes lock discipline machine-checked,
lockdep-style:

* :func:`TrackedLock` / :func:`TrackedRLock` / :func:`TrackedCondition`
  are drop-in factories for the ``threading`` primitives.  With tracking
  **disabled** (the default) they return the raw ``threading`` objects -
  zero overhead, the same pass-through contract as
  :data:`repro.obs.NULL_OBS`.  With tracking **enabled** (pytest's
  ``--race`` flag, or :func:`enable_tracking` / :func:`tracking`) they
  return instrumented wrappers bound to a :class:`LockTracker`.

* The tracker records a process-wide **lock-acquisition graph**: an edge
  ``A -> B`` means some thread acquired ``B`` while holding ``A``, with
  the stack of the first such acquisition.  Acquiring an edge that
  closes a cycle in the graph is a **lock-order inversion** - the ABBA
  pattern that deadlocks under the right interleaving even if this run
  happened to get away with it - and is reported with *both* stacks:
  the acquisition that closed the cycle and the stored stack of every
  edge along the inverted path.

* Re-acquiring a non-reentrant lock the same thread already holds would
  hang forever; the tracker raises :class:`DeadlockError` *before*
  blocking (and records the self-cycle), so the test fails instead of
  wedging the suite.

* :func:`note_blocking` marks known blocking operations - paying
  :meth:`Channel.transit <repro.fixpoint.net.Channel.transit>` latency,
  waiting a :class:`~repro.fixpoint.net.Delegation` future
  (:meth:`Job.wait <repro.fixpoint.jobs.Job.wait>`, also how a
  fork/join parent waits for its forks), ``Condition.wait`` - and
  records a **hold-while-blocking** event when the calling thread
  holds any tracked lock at that moment (a condition
  waiter's own lock is exempt: ``wait`` releases it).  Holding a lock
  across a blocking call is how PR 4's one-worker dispatch wedge and
  most delivery-window hangs are born.  ``time.sleep`` announces
  nothing, so the linter (:mod:`repro.analysis.lint`) forbids it.

Cycle detection is *instance*-level (two distinct node locks acquired in
both orders), so consistent-but-concurrent suites never false-positive;
the reports name locks by the site label passed at construction
(``"FixpointNode._lock"``) plus a per-tracker serial, so two instances
of the same class stay distinguishable.

This module deliberately imports nothing from the rest of ``repro`` -
every lock site in the tree imports *it*, and the linter forbids raw
``threading.Lock()`` anywhere else.
"""

from __future__ import annotations

import sys
import threading
import traceback
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DeadlockError",
    "LockTracker",
    "RaceReport",
    "TrackedCondition",
    "TrackedLock",
    "TrackedRLock",
    "current_tracker",
    "disable_tracking",
    "enable_tracking",
    "note_blocking",
    "tracking",
]

#: Stack frames captured per acquisition site in reports.
_STACK_DEPTH = 14


class DeadlockError(RuntimeError):
    """An acquisition that would provably hang (self-deadlock)."""


def _capture_stack(skip: int = 2) -> str:
    """The caller's stack, formatted, minus ``skip`` tracker frames."""
    frame = sys._getframe(skip)
    return "".join(traceback.format_stack(frame, limit=_STACK_DEPTH))


@dataclass(frozen=True)
class CycleReport:
    """One detected lock-order inversion.

    ``names`` walks the cycle: ``names[i]`` was held while ``names[i+1]``
    was acquired (and the last entry wraps to the first).  ``stacks``
    holds, per edge, the formatted stack of the acquisition that first
    created it - including the acquisition that closed the cycle, so an
    ABBA inversion reports *both* stacks.
    """

    names: Tuple[str, ...]
    stacks: Tuple[Tuple[str, str, str], ...]  # (held, acquired, stack)

    def format(self) -> str:
        lines = [f"lock-order inversion: {' -> '.join(self.names)}"]
        for held, acquired, stack in self.stacks:
            lines.append(f"  acquired {acquired} while holding {held} at:")
            lines.extend(
                "    " + ln for ln in stack.rstrip("\n").split("\n")
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class BlockingReport:
    """A blocking operation performed while holding tracked locks."""

    what: str
    held: Tuple[str, ...]
    stack: str

    def format(self) -> str:
        lines = [f"blocking on {self.what} while holding {list(self.held)} at:"]
        lines.extend("  " + ln for ln in self.stack.rstrip("\n").split("\n"))
        return "\n".join(lines)


@dataclass(frozen=True)
class RaceReport:
    """Everything one tracker saw: inversions and hold-while-blocking."""

    cycles: Tuple[CycleReport, ...]
    blocking: Tuple[BlockingReport, ...]
    locks: int
    edges: int

    @property
    def clean(self) -> bool:
        return not self.cycles and not self.blocking

    def format(self) -> str:
        lines = [
            f"race report: {self.locks} locks, {self.edges} order edges, "
            f"{len(self.cycles)} inversion(s), "
            f"{len(self.blocking)} hold-while-blocking event(s)"
        ]
        for cycle in self.cycles:
            lines.append(cycle.format())
        for event in self.blocking:
            lines.append(event.format())
        return "\n".join(lines)


class _Held:
    """One entry of a thread's held-lock stack (depth counts reentry)."""

    __slots__ = ("lock", "depth")

    def __init__(self, lock: "_TrackedLock"):
        self.lock = lock
        self.depth = 1


@dataclass
class _Edge:
    """First-seen acquisition of ``dst`` while holding ``src``."""

    src_name: str
    dst_name: str
    stack: str


class LockTracker:
    """A process-wide lock-acquisition graph plus its findings.

    Every lock minted by :meth:`lock` / :meth:`rlock` /
    :meth:`condition` reports to this tracker for its whole life, even
    if a different tracker is installed later - which is what lets a
    test reconstruct a deadlock against a private tracker without
    polluting the suite-wide ``--race`` report.

    An inversion is recorded and execution continues, because this
    run's interleaving already proved survivable - it is the *next* one
    that deadlocks.
    """

    def __init__(self, name: str = "race"):
        self.name = name
        self._mutex = threading.Lock()  # raw by necessity: the tracker itself
        self._tls = threading.local()
        self._next_uid = 0
        self._lock_names: Dict[int, str] = {}
        #: uid -> {uid -> _Edge}: "acquired key while holding row".
        self._graph: Dict[int, Dict[int, _Edge]] = {}
        self._cycles: List[CycleReport] = []
        self._seen_cycles: set = set()
        self._blocking: List[BlockingReport] = []
        self._seen_blocking: set = set()
        _LIVE.add(self)

    # ------------------------------------------------------------------
    # Factories

    def lock(self, name: Optional[str] = None) -> "_TrackedLock":
        return _TrackedLock(self, self._register(name), reentrant=False)

    def rlock(self, name: Optional[str] = None) -> "_TrackedLock":
        return _TrackedLock(self, self._register(name), reentrant=True)

    def condition(
        self,
        lock: Optional["_TrackedLock"] = None,
        name: Optional[str] = None,
    ) -> "_TrackedCondition":
        if lock is None:
            lock = self.lock(name)
        return _TrackedCondition(self, lock)

    def _register(self, name: Optional[str]) -> Tuple[int, str]:
        with self._mutex:
            uid = self._next_uid
            self._next_uid += 1
            label = f"{name or _callsite_label()}#{uid}"
            self._lock_names[uid] = label
            return uid, label

    # ------------------------------------------------------------------
    # Acquisition bookkeeping (called by the wrappers)

    def _stack(self) -> List[_Held]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _before_acquire(self, lock: "_TrackedLock", blocking: bool) -> None:
        stack = self._stack()
        for held in stack:
            if held.lock is lock:
                if lock._reentrant:
                    return  # reentry: no new ordering information
                if not blocking:
                    return  # try-lock of a held lock just fails; no hang
                report = CycleReport(
                    names=(lock._label, lock._label),
                    stacks=(
                        (lock._label, lock._label, _capture_stack(3)),
                    ),
                )
                with self._mutex:
                    self._cycles.append(report)
                raise DeadlockError(
                    f"{self.name}: thread {threading.current_thread().name!r} "
                    f"re-acquiring non-reentrant {lock._label} it already "
                    f"holds would deadlock\n{report.format()}"
                )
        if not blocking or not stack:
            return
        dst = lock._uid
        with self._mutex:
            new_edges: List[Tuple[int, str]] = []
            cycle_path: Optional[List[_Edge]] = None
            cycle_src: Optional[_Held] = None
            for held in stack:
                src = held.lock._uid
                row = self._graph.setdefault(src, {})
                if dst not in row:
                    new_edges.append((src, held.lock._label))
                if cycle_path is None:
                    path = self._find_path(dst, src)
                    if path is not None:
                        cycle_path = path
                        cycle_src = held
            if not new_edges and cycle_path is None:
                return  # hot path: known ordering, no cycle
            stack_text = _capture_stack(3)
            for src, src_label in new_edges:
                self._graph[src][dst] = _Edge(src_label, lock._label, stack_text)
            if cycle_path is not None:
                self._record_cycle(cycle_src, lock, cycle_path, stack_text)

    def _find_path(self, start: int, goal: int) -> Optional[List[_Edge]]:
        """DFS for a path ``start -> ... -> goal`` in the edge graph."""
        if start == goal:
            return []
        seen = {start}
        todo: List[Tuple[int, List[_Edge]]] = [(start, [])]
        while todo:
            node, path = todo.pop()
            for nxt, edge in self._graph.get(node, {}).items():
                if nxt == goal:
                    return path + [edge]
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append((nxt, path + [edge]))
        return None

    def _record_cycle(
        self,
        held: _Held,
        lock: "_TrackedLock",
        path: Sequence[_Edge],
        stack_text: str,
    ) -> None:
        # The cycle: held -> lock (the closing acquisition, stack_text),
        # then lock -> ... -> held (the stored path edges).
        names = [held.lock._label, lock._label]
        stacks = [(held.lock._label, lock._label, stack_text)]
        for edge in path:
            names.append(edge.dst_name)
            stacks.append((edge.src_name, edge.dst_name, edge.stack))
        key = frozenset(names)
        if key in self._seen_cycles:
            return
        self._seen_cycles.add(key)
        self._cycles.append(
            CycleReport(names=tuple(names[:-1]), stacks=tuple(stacks))
        )

    def _note_acquired(self, lock: "_TrackedLock") -> None:
        stack = self._stack()
        for held in stack:
            if held.lock is lock:
                held.depth += 1
                return
        stack.append(_Held(lock))

    def _note_released(self, lock: "_TrackedLock") -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            held = stack[index]
            if held.lock is lock:
                held.depth -= 1
                if held.depth == 0:
                    del stack[index]
                return

    # ------------------------------------------------------------------
    # Blocking-while-holding

    def note_blocking(
        self, what: str, exclude: Optional["_TrackedLock"] = None
    ) -> None:
        """Record ``what`` as a blocking operation if this thread holds
        any of this tracker's locks (minus ``exclude``, a condition
        waiter's own lock, which ``wait`` releases while blocked)."""
        held = [h for h in self._stack() if h.lock is not exclude]
        if not held:
            return
        names = tuple(h.lock._label for h in held)
        key = (what, names)
        stack_text = _capture_stack(2)
        with self._mutex:
            if key in self._seen_blocking:
                return
            self._seen_blocking.add(key)
            self._blocking.append(
                BlockingReport(what=what, held=names, stack=stack_text)
            )

    # ------------------------------------------------------------------
    # Reporting

    def report(self) -> RaceReport:
        with self._mutex:
            return RaceReport(
                cycles=tuple(self._cycles),
                blocking=tuple(self._blocking),
                locks=self._next_uid,
                edges=sum(len(row) for row in self._graph.values()),
            )


class _TrackedLock:
    """Instrumented ``Lock``/``RLock`` twin reporting to one tracker.

    Implements the full ``threading`` lock protocol including the
    ``_release_save`` / ``_acquire_restore`` / ``_is_owned`` trio, so a
    ``threading.Condition`` built over it delegates every transition
    through the tracker (including the full release a reentrant holder's
    ``wait`` performs).
    """

    __slots__ = ("_tracker", "_uid", "_label", "_reentrant", "_inner")

    def __init__(
        self, tracker: LockTracker, ident: Tuple[int, str], reentrant: bool
    ):
        self._tracker = tracker
        self._uid, self._label = ident
        self._reentrant = reentrant
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._tracker._before_acquire(self, blocking)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._tracker._note_acquired(self)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._tracker._note_released(self)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    # -- the Condition integration protocol ----------------------------

    def _is_owned(self) -> bool:
        return any(h.lock is self for h in self._tracker._stack())

    def _release_save(self) -> int:
        depth = 0
        for held in self._tracker._stack():
            if held.lock is self:
                depth = held.depth
                break
        if depth == 0:
            raise RuntimeError(f"cannot release un-acquired {self._label}")
        for _ in range(depth):
            self.release()
        return depth

    def _acquire_restore(self, depth: int) -> None:
        for _ in range(depth):
            self.acquire()

    def __repr__(self) -> str:
        kind = "TrackedRLock" if self._reentrant else "TrackedLock"
        return f"<{kind} {self._label} tracker={self._tracker.name!r}>"


class _TrackedCondition:
    """``threading.Condition`` over a tracked lock, with wait() counted
    as a blocking operation (own lock exempt - wait releases it)."""

    __slots__ = ("_tracker", "_lock", "_cond")

    def __init__(self, tracker: LockTracker, lock: _TrackedLock):
        self._tracker = tracker
        self._lock = lock
        self._cond = threading.Condition(lock)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self._lock.__enter__()

    def __exit__(self, *exc) -> None:
        self._lock.__exit__(*exc)

    def wait(self, timeout: Optional[float] = None) -> bool:
        self._tracker.note_blocking("Condition.wait", exclude=self._lock)
        return self._cond.wait(timeout)

    def wait_for(self, predicate, timeout: Optional[float] = None):
        self._tracker.note_blocking("Condition.wait", exclude=self._lock)
        return self._cond.wait_for(predicate, timeout)

    def notify(self, n: int = 1) -> None:
        self._cond.notify(n)

    def notify_all(self) -> None:
        self._cond.notify_all()

    def __repr__(self) -> str:
        return f"<TrackedCondition over {self._lock!r}>"


# ----------------------------------------------------------------------
# Module-level switchboard: the factories every lock site calls

#: Trackers that exist right now; checked (cheaply: an empty-set bool)
#: by :func:`note_blocking` on instrumented blocking paths.
_LIVE: "weakref.WeakSet[LockTracker]" = weakref.WeakSet()

#: The installed tracker new locks bind to; ``None`` = tracking off and
#: the factories return raw ``threading`` primitives.
_current: Optional[LockTracker] = None


def _callsite_label(skip: int = 3) -> str:
    frame = sys._getframe(skip)
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{frame.f_lineno}"


def current_tracker() -> Optional[LockTracker]:
    """The installed tracker, or ``None`` when tracking is disabled."""
    return _current


def enable_tracking() -> LockTracker:
    """Install a fresh tracker as the process default.

    Locks created *before* this call stay raw - enable tracking before
    the system under test builds its locks (pytest's ``--race`` flag
    does this in ``pytest_configure``, ahead of collection imports).
    """
    global _current
    _current = LockTracker()
    return _current


def disable_tracking() -> None:
    """Uninstall the default tracker; new locks are raw again."""
    global _current
    _current = None


class tracking:
    """``with tracking(t):`` - temporarily install tracker ``t``.

    Locks created inside the block bind to ``t`` permanently; locks
    created before keep their original tracker (or stay raw).  This is
    how a test reconstructs a deadlock against a private tracker while
    the suite-wide ``--race`` tracker stays clean.
    """

    def __init__(self, tracker: Optional[LockTracker] = None):
        self.tracker = tracker if tracker is not None else LockTracker()
        self._previous: Optional[LockTracker] = None

    def __enter__(self) -> LockTracker:
        global _current
        self._previous = _current
        _current = self.tracker
        return self.tracker

    def __exit__(self, *exc) -> None:
        global _current
        _current = self._previous


def TrackedLock(name: Optional[str] = None):
    """A ``threading.Lock`` - raw when tracking is off, tracked when on."""
    if _current is None:
        return threading.Lock()
    return _current.lock(name)


def TrackedRLock(name: Optional[str] = None):
    """A ``threading.RLock`` - raw when tracking is off, tracked when on."""
    if _current is None:
        return threading.RLock()
    return _current.rlock(name)


def TrackedCondition(lock=None, name: Optional[str] = None):
    """A ``threading.Condition`` - raw when tracking is off, tracked when on.

    ``lock`` must be a lock from the same factory family: raw stays raw,
    tracked stays tracked.  A tracked condition over a lock some *other*
    tracker minted binds to that lock's tracker, keeping one lock one
    bookkeeper.
    """
    if isinstance(lock, _TrackedLock):
        return lock._tracker.condition(lock, name)
    if _current is None or lock is not None:
        return threading.Condition(lock)
    return _current.condition(None, name)


def note_blocking(what: str) -> None:
    """Mark a blocking operation (wire latency, a future wait, a join).

    Each live tracker records a hold-while-blocking event if the calling
    thread holds any of its locks.  Free when no tracker exists; a
    thread-local read per live tracker otherwise.
    """
    if not _LIVE:
        return
    for tracker in list(_LIVE):
        tracker.note_blocking(what)
