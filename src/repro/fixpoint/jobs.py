"""Job bookkeeping for the Fixpoint worker pool.

All worker threads share a queue of pending jobs (paper section 4.2.1).  A
*job* is the evaluation of one Encode.  Jobs are deduplicated by Encode
handle, so concurrent requests for the same computation share one
execution.  Waiting threads *help*: instead of blocking idle while a
dependency evaluates elsewhere, they pull jobs off the shared queue - this
makes fork/join evaluation deadlock-free with any worker count.

The queue carries Encodes only.  Incoming delegations are not jobs: a
node serves each one on a thread of its own
(:meth:`repro.fixpoint.runtime.Fixpoint.spawn`), so a serve that waits
on the wire never holds one of these workers.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..analysis.sync import TrackedCondition, TrackedLock, note_blocking
from ..core.errors import FixError
from ..core.handle import Handle


class Job:
    """One pending Encode evaluation with completion signalling."""

    __slots__ = ("encode", "_event", "result", "error")

    def __init__(self, encode: Optional[Handle] = None):
        self.encode = encode
        self._event = threading.Event()
        self.result: Optional[Handle] = None
        self.error: Optional[BaseException] = None

    def complete(self, result: Handle) -> None:
        self.result = result
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if not self._event.is_set():
            # A genuine block (the result is not in yet): if the caller
            # holds a tracked lock this is the hold-while-blocking
            # pattern - waiting on a future that may need that very
            # lock to complete (PR 4's dispatch wedge).
            note_blocking("Job.wait")
        return self._event.wait(timeout)

    def value(self) -> Handle:
        if self.error is not None:
            raise self.error
        if self.result is None:
            raise FixError("job finished without a result")
        return self.result


class JobQueue:
    """Deduplicating, helping-friendly job queue shared by workers."""

    def __init__(self):
        self._lock = TrackedLock("JobQueue._lock")
        self._cond = TrackedCondition(self._lock)
        self._queue: Deque[Job] = deque()
        self._inflight: Dict[Handle, Job] = {}
        self._closed = False
        self.submitted = 0

    def submit(self, encode: Handle) -> Job:
        """Enqueue evaluation of ``encode`` (or join the in-flight job)."""
        with self._cond:
            existing = self._inflight.get(encode)
            if existing is not None:
                return existing
            job = Job(encode)
            self._inflight[encode] = job
            self._queue.append(job)
            self.submitted += 1
            self._cond.notify()
            return job

    def try_pop(self) -> Optional[Job]:
        """Non-blocking pop, used by helping threads."""
        with self._cond:
            if self._queue:
                return self._queue.popleft()
            return None

    def pop(self, timeout: float = 0.1) -> Optional[Job]:
        """Blocking pop with timeout, used by worker loops.

        ``timeout`` is a *deadline* (``wait_for``): a notify that another
        consumer races to the item re-waits only the remainder, so an
        idle worker's poll never returns early into a busy spin.
        """
        with self._cond:
            self._cond.wait_for(lambda: self._queue or self._closed, timeout)
            if self._queue:
                return self._queue.popleft()
            return None

    def finish(self, job: Job) -> None:
        """Remove a completed job from the in-flight map."""
        with self._cond:
            self._inflight.pop(job.encode, None)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def run_job(self, job: Job, executor: Callable[[Handle], Handle]) -> None:
        """Execute ``job`` via ``executor`` and publish its outcome."""
        try:
            job.complete(executor(job.encode))
        except BaseException as exc:  # noqa: BLE001 - propagated to waiters
            job.fail(exc)
        finally:
            self.finish(job)
