"""The Fixpoint runtime: an executable Fix evaluator.

This is the in-process analog of the paper's section 4.2.1 architecture:

* a **runtime storage** (one :class:`~repro.core.storage.Repository`),
  mapping Blobs/Trees to data and Encodes to results;
* a **program registry / ELF linker** (:class:`~repro.codelets.Linker`)
  mapping codelet handles to linked entrypoints;
* a Scheduler (here: the evaluator itself) deciding what I/O and
  computation an object needs under Fix semantics;
* invocation happens by *jumping straight to the codelet's entrypoint* -
  no processes or containers are spawned, which is what makes the
  per-invocation overhead microscopic (fig. 7a).

Every evaluation runs on the thread that asks for it: the caller's, or
the serve thread answering a delegation.  Parallelism across
invocations is the platform's business - placing them across cores and
machines - which :mod:`repro.dist` simulates (figs. 8 and 10) and
:mod:`repro.fixpoint.net` does by delegating to peers.

The runtime has one kind of thread, ``fixpoint-serve``
(:meth:`Fixpoint.spawn`).  A delegation whose caller goes on without
waiting (``delegate_async``, ``scatter``, and the blocking ``delegate``
built on ``delegate_async``) is served on one, a thread per request in flight, so a
node that receives a burst of K such requests holds K serve threads.
A blocking ``delegate_best`` is served on its caller's thread, which
would only wait: the paper's jump straight to the entrypoint, with no
thread handoff per call.  Serve threads are kept warm: one that
finishes parks for the next task instead of exiting, so a steady
stream of delegations reuses threads rather than starting one per
request.  A runtime starts no thread until it serves on one.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Sequence

from ..analysis.sync import TrackedCondition, TrackedLock
from ..codelets.linker import Linker
from ..codelets.stdlib import compile_stdlib
from ..codelets.toolchain import Toolchain
from ..core.api import FixAPI
from ..core.errors import NotAFunctionError
from ..core.eval import Evaluator
from ..core.handle import Handle
from ..core.limits import DEFAULT_LIMITS, ResourceLimits
from ..core.storage import Repository
from ..core.thunks import Invocation, make_application
from ..obs import NULL_OBS
from .tracing import Trace

#: Seconds a parked serve thread waits for its next task before exiting.
_SERVE_IDLE_S = 2.0


class _Parked:
    """One serve thread's hand-off slot: the task it runs next, and the
    condition it parks on until :meth:`_ServeThreads.run` fills it."""

    __slots__ = ("fn", "wake")

    def __init__(self, fn: Callable[[], object], wake):
        self.fn: Optional[Callable[[], object]] = fn
        self.wake = wake


class _ServeThreads:
    """The ``fixpoint-serve`` threads of one runtime.

    :meth:`run` hands a task to the most recently parked thread if one
    is idle, else starts a new thread for it, so every task gets a
    thread at once and never queues behind another.  A thread that
    finishes its task drops it and parks; it exits after
    ``_SERVE_IDLE_S`` without work, or when :meth:`close` releases it.
    A task that raises ends its thread (``threading.excepthook``), and
    after :meth:`close` a thread runs its one task and exits.
    """

    def __init__(self):
        self._lock = TrackedLock("Fixpoint._serve_lock")
        self._idle: list[_Parked] = []
        self._closed = False

    def run(self, fn: Callable[[], object]) -> None:
        with self._lock:
            if self._idle:
                slot = self._idle.pop()
                slot.fn = fn
                slot.wake.notify()
                return
            slot = _Parked(fn, TrackedCondition(self._lock))
        threading.Thread(
            target=self._serve, args=(slot,), name="fixpoint-serve",
            daemon=True,
        ).start()

    def _serve(self, slot: _Parked) -> None:
        while True:
            fn, slot.fn = slot.fn, None
            fn()  # type: ignore[misc]
            fn = None  # park without a reference to the finished task
            with self._lock:
                if self._closed:
                    return
                self._idle.append(slot)
                slot.wake.wait(_SERVE_IDLE_S)
                if slot.fn is None:
                    # Timed out (still listed as idle), or released by
                    # close(), which already emptied the list.
                    if not self._closed:
                        self._idle.remove(slot)
                    return

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for slot in self._idle:
                slot.wake.notify()
            self._idle.clear()


class Fixpoint:
    """A single-node Fixpoint instance.

    Use as a context manager (or call :meth:`close`) to release its
    parked serve threads at once rather than after their idle timeout.

    ``workers`` is accepted and unused: the perf harness still passes
    it (``benchmarks/perf/workloads.py``'s ``scatter_resident`` peers
    and ``layers.py``'s ``pool`` spawn probe).  ROADMAP item 1a drops
    those two call sites, and then the parameter.
    """

    def __init__(
        self,
        repo: Optional[Repository] = None,
        workers: int = 0,
        memoize: bool = True,
        with_stdlib: bool = True,
        obs=None,
    ):
        self.repo = repo if repo is not None else Repository()
        self.toolchain = Toolchain(self.repo)
        self.linker = Linker(self.repo)
        #: With an :class:`~repro.obs.Obs` the invocation trace emits
        #: into that obs' registry, so a node's codelet activity lands
        #: in the same export as its wire and scheduling metrics;
        #: without one, into the null registry nobody reads.
        self.obs = obs
        self.trace = Trace((obs or NULL_OBS).registry)
        self.stdlib: Dict[str, Handle] = (
            compile_stdlib(self.repo) if with_stdlib else {}
        )
        #: One evaluator, shared by every thread that evaluates here: it
        #: keeps no per-call state.
        self._evaluator = Evaluator(
            self.repo, apply_fn=self._apply, memoize=memoize
        )
        self._serve = _ServeThreads()

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        """Release the parked serve threads; a later :meth:`spawn` still
        runs its task, on a thread that exits when the task returns."""
        self._serve.close()

    def __enter__(self) -> "Fixpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Compilation / program setup

    def compile(self, source: str, name: str = "codelet") -> Handle:
        """Run the trusted toolchain and ahead-of-time link the codelet."""
        handle = self.toolchain.compile(source, name)
        self.linker.link(handle)  # off the critical path
        return handle

    # ------------------------------------------------------------------
    # Evaluation

    def eval(self, handle: Handle) -> Handle:
        """Evaluate ``handle`` (strict semantics); returns an Object handle."""
        return self._evaluator.eval(handle)

    def spawn(self, fn: Callable[[], object]) -> None:
        """Run ``fn`` off the caller's thread, on a ``fixpoint-serve``
        daemon thread.

        This is how a :class:`~repro.fixpoint.net.FixpointNode` serves
        a delegation whose dispatcher does not wait for it
        (``delegate_async`` and what is built on it); a blocking
        ``delegate_best`` serves on its own thread instead.
        Each task gets a
        thread of its own at once: a parked one from an earlier task
        when one is idle, a new one otherwise, so no task waits for
        another to finish.
        """
        self._serve.run(fn)

    def holdings(self) -> Dict[bytes, int]:
        """Content key -> wire size for everything in runtime storage.

        This is the node's authoritative inventory: what it can ship, and
        the ground truth a delegating node prices its *local* option with
        (remote options are priced from beliefs; see
        :mod:`repro.fixpoint.net`).  Read off the store's keys and the
        data's lengths, nothing hashed; placement does not call it - a
        quote asks ``Repository.held_sizes`` about its footprint only.
        """
        return dict(self.repo.sizes_after(-1)[0])

    def invoke(
        self,
        function: Handle,
        args: Sequence[Handle],
        limits: ResourceLimits = DEFAULT_LIMITS,
    ) -> Handle:
        """Convenience: an Application thunk for ``function(*args)``."""
        return make_application(self.repo, function, args, limits)

    def run(
        self,
        function: Handle,
        args: Sequence[Handle],
        limits: ResourceLimits = DEFAULT_LIMITS,
    ) -> Handle:
        """Build and strictly evaluate an invocation; returns the result."""
        return self.eval(self.invoke(function, args, limits).wrap_strict())

    # ------------------------------------------------------------------
    # Codelet application (the apply hook handed to evaluators)

    def _apply(
        self, evaluator: Evaluator, resolved: Handle, invocation: Invocation
    ) -> Handle:
        function = invocation.function
        if not (function.is_data and function.is_blob):
            raise NotAFunctionError(
                f"invocation function slot holds {function!r}, expected a "
                "codelet Blob"
            )
        linked = self.linker.link(function)
        fix = FixAPI(self.repo, resolved, invocation.limits)
        started = time.perf_counter()
        result = linked.run(fix, resolved)
        self.trace.record(
            linked.name,
            time.perf_counter() - started,
            fix.bytes_used,
            threading.current_thread().name,
        )
        return result
