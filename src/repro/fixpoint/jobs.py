"""The completion signal of an Encode evaluated on another thread.

A :class:`Job` is what a waiter holds while one Encode evaluates
elsewhere: a sibling forked onto a serve thread
(:meth:`repro.fixpoint.runtime.Fixpoint._fork_join`, paper section
4.2.1), or a delegation served by a peer
(:class:`repro.fixpoint.net.Delegation`).  It carries the Encode, its
result or error, and the event a waiter blocks on.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..analysis.sync import note_blocking
from ..core.errors import FixError
from ..core.handle import Handle


class Job:
    """One pending Encode evaluation with completion signalling."""

    __slots__ = ("encode", "_event", "result", "error")

    def __init__(self, encode: Handle):
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
