"""Exception hierarchy for the Fix reproduction.

Every error raised by ``repro`` derives from :class:`FixError` so callers can
catch library failures without also swallowing programming errors.  The
sub-hierarchy mirrors the subsystems: handles, storage, evaluation, the
codelet sandbox, resource limits, and the cluster simulator.
"""

from __future__ import annotations


class FixError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class HandleError(FixError):
    """A handle was malformed, or an illegal derivation was requested.

    Examples: unpacking fewer than 32 bytes, wrapping a non-thunk in an
    Encode, or requesting the literal payload of a non-literal handle.
    """


class StorageError(FixError):
    """Base class for repository failures."""


class MissingObjectError(StorageError):
    """A handle's referent was not present in the repository.

    Under Fix semantics this indicates a platform bug or an incomplete
    minimum repository: the runtime must stage every dependency before an
    invocation starts (paper section 3.3).
    """

    def __init__(self, handle, where: str = "repository"):
        self.handle = handle
        self.where = where
        super().__init__(f"object for {handle!r} not found in {where}")


class AccessError(FixError):
    """A codelet touched data outside its minimum repository.

    Raised when a procedure attempts to read a Ref's payload, or presents a
    handle that is not reachable from its input tree (paper section 4.1.3).
    """


class EvaluationError(FixError):
    """The evaluator could not make progress on a well-formed object."""


class SelectionError(EvaluationError):
    """A Selection thunk addressed an index or range outside its target."""


class NotAFunctionError(EvaluationError):
    """An Application thunk's function slot did not hold runnable code."""


class CodeletError(FixError):
    """An exception escaped a user codelet.

    The original exception is preserved as ``__cause__``; the codelet's
    handle (if known) is carried for diagnostics.
    """

    def __init__(self, message: str, codelet=None):
        self.codelet = codelet
        super().__init__(message)


class SandboxError(FixError):
    """The trusted toolchain rejected a codelet.

    Raised ahead of time, at "compile" time - never while user code runs -
    mirroring Fixpoint's requirement that functions be converted to safe
    machine code before execution (paper section 4.1.1).
    """


class ResourceLimitError(FixError):
    """A codelet exceeded the memory budget in its resource-limits blob."""

    def __init__(self, used: int, limit: int):
        self.used = used
        self.limit = limit
        super().__init__(f"memory limit exceeded: used {used} bytes of {limit}")


class SerializationError(FixError):
    """A wire frame could not be encoded or decoded."""


class SchedulingError(FixError):
    """The scheduler could not produce a valid placement."""


class SimulationError(FixError):
    """The discrete-event engine detected an inconsistency.

    Examples: a process resumed after the simulation ended, time moving
    backwards, or releasing more of a resource than was held.
    """
