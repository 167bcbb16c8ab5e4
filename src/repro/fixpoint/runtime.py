"""The Fixpoint runtime: an executable, multi-worker Fix evaluator.

This is the in-process analog of the paper's section 4.2.1 architecture:

* a **runtime storage** (one :class:`~repro.core.storage.Repository`)
  shared by all workers, mapping Blobs/Trees to data and Encodes to
  results;
* a **program registry / ELF linker** (:class:`~repro.codelets.Linker`)
  mapping codelet handles to linked entrypoints;
* a **thread pool of workers** sharing a queue of pending jobs; each
  worker embeds a Scheduler (here: the evaluator itself) deciding what
  I/O and computation an object needs under Fix semantics;
* invocation happens by *jumping straight to the codelet's entrypoint* -
  no processes or containers are spawned, which is what makes the
  per-invocation overhead microscopic (fig. 7a).

``workers=0`` gives a purely sequential runtime (used for the fig. 9
experiment, which the paper runs with a single worker thread, and for the
microbenchmarks).  With ``workers=N`` the runtime evaluates independent
Encode arguments in parallel: a thread that would block on a dependency
instead *helps* by executing queued jobs, so any worker count is
deadlock-free.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence

from ..analysis.sync import TrackedLock, note_blocking
from ..codelets.linker import Linker
from ..codelets.stdlib import compile_stdlib
from ..codelets.toolchain import Toolchain
from ..core.api import FixAPI
from ..core.errors import FixError, NotAFunctionError
from ..core.eval import EvalStats, Evaluator
from ..core.handle import Handle
from ..core.limits import DEFAULT_LIMITS, ResourceLimits
from ..core.storage import Repository
from ..core.thunks import Invocation, make_application
from .jobs import JobQueue
from .tracing import Stopwatch, Trace


class _WorkerEvaluator(Evaluator):
    """Evaluator wired to a runtime: applies codelets, may fork to the pool."""

    def __init__(self, runtime: "Fixpoint"):
        super().__init__(
            runtime.repo,
            apply_fn=runtime._apply,
            memoize=runtime.memoize,
            thunk_cache=runtime._thunk_cache,
        )
        self.runtime = runtime

    def resolve_invocation(self, definition: Handle, depth: int = 0) -> Handle:
        runtime = self.runtime
        if runtime.pool is not None and depth < 64:
            tree = self.repo.get_tree(definition)
            pending = [
                child
                for child in tree
                if child.is_encode and self.repo.get_result(child) is None
            ]
            if len(pending) > 1:
                runtime._fork_join(pending)
        return super().resolve_invocation(definition, depth)


class Fixpoint:
    """A single-node Fixpoint instance.

    Use as a context manager (or call :meth:`close`) when ``workers > 0``.
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
        self.memoize = memoize
        #: With an :class:`~repro.obs.Obs` the invocation trace emits
        #: into that obs' registry, so a node's codelet activity lands
        #: in the same export as its wire and scheduling metrics.
        self.obs = obs
        self.trace = Trace(
            registry=obs.registry if obs is not None else None
        )
        self.stdlib: Dict[str, Handle] = (
            compile_stdlib(self.repo) if with_stdlib else {}
        )
        self._thunk_cache: Dict[Handle, Handle] = {}
        self._stats_lock = TrackedLock("Fixpoint._stats_lock")
        self._stats = EvalStats()
        self.pool: Optional[JobQueue] = None
        self._threads: list[threading.Thread] = []
        if workers > 0:
            self.pool = JobQueue()
            for i in range(workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"fixpoint-{i}", daemon=True
                )
                thread.start()
                self._threads.append(thread)

    # ------------------------------------------------------------------
    # Lifecycle

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            note_blocking("Thread.join")
            for thread in self._threads:
                thread.join(timeout=2.0)
            self._threads.clear()
            self.pool = None

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
        evaluator = _WorkerEvaluator(self)
        try:
            return evaluator.eval(handle)
        finally:
            self._merge_stats(evaluator.stats)

    def spawn(self, fn: Callable[[], object]) -> None:
        """Run ``fn`` off the caller's thread - on the worker pool when
        this runtime has one, else on a fresh daemon thread.

        This is how a :class:`~repro.fixpoint.net.FixpointNode` serves
        incoming delegations without blocking the dispatching node: with
        ``workers=N`` the serve lands on the same pool that evaluates
        local Encodes (remote and local work genuinely contend, which is
        what the cost model's load signal measures); a sequential
        runtime still must not serve inline, so it pays one thread per
        request instead - as does a pool that closed between the check
        and the submit (the callable must run somewhere either way).
        """
        pool = self.pool
        if pool is not None and not pool.closed:
            try:
                pool.submit_task(fn)
                return
            except FixError:
                pass  # closed concurrently: fall through to a thread
        threading.Thread(
            target=fn, name="fixpoint-serve", daemon=True
        ).start()

    def holdings(self) -> Dict[bytes, int]:
        """Content key -> wire size for everything in runtime storage.

        This is the node's authoritative inventory: what it can ship, and
        the ground truth a delegating node prices its *local* option with
        (remote options are priced from beliefs; see
        :mod:`repro.fixpoint.net`).  Read off the store's keys and the
        data's lengths, nothing hashed; placement does not call it - a
        quote asks ``Repository.held_sizes`` about its footprint only.
        """
        return dict(self.repo.sizes_beyond(()))

    def eval_blob(self, handle: Handle) -> bytes:
        """Evaluate and return the resulting Blob's payload."""
        result = self.eval(handle)
        return self.repo.get_blob(result).data

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

    @property
    def stats(self) -> EvalStats:
        with self._stats_lock:
            return self._stats.snapshot()

    def _merge_stats(self, stats: EvalStats) -> None:
        with self._stats_lock:
            for key, value in vars(stats).items():
                setattr(self._stats, key, getattr(self._stats, key) + value)

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
        with Stopwatch() as watch:
            result = linked.run(fix, resolved)
        self.trace.record(
            linked.name,
            watch.elapsed,
            fix.bytes_used,
            threading.current_thread().name,
        )
        return result

    # ------------------------------------------------------------------
    # Parallel fork/join

    def _worker_loop(self) -> None:
        pool = self.pool
        if pool is None:
            return
        while True:
            job = pool.pop()
            if job is not None:
                pool.run_job(job, self._execute_encode)
            elif pool.closed:
                # Drain before exiting: a task enqueued just before
                # close() (a delegation being served, say) still runs -
                # abandoning it would leave its Delegation future
                # unresolved forever.
                break

    def _execute_encode(self, encode: Handle) -> Handle:
        evaluator = _WorkerEvaluator(self)
        try:
            return evaluator.eval_encode(encode)
        finally:
            self._merge_stats(evaluator.stats)

    def _fork_join(self, encodes: Sequence[Handle]) -> None:
        """Submit sibling Encodes to the pool; help until all complete."""
        pool = self.pool
        if pool is None:
            return
        jobs = [pool.submit(encode) for encode in encodes]
        for job in jobs:
            while not job.done:
                other = pool.try_pop()
                if other is not None:
                    pool.run_job(other, self._execute_encode)
                else:
                    job.wait(0.005)
        for job in jobs:
            job.value()  # re-raise failures in the parent
