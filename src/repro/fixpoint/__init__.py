"""``repro.fixpoint`` - the executable in-process Fixpoint runtime.

A multi-worker evaluator for Fix programs (paper section 4.2): shared
runtime storage, ahead-of-time linked codelets, a shared job queue, and
direct-jump invocation with no processes or containers on the hot path.
"""

from .billing import Bill, InvocationMeter, bill_effort, bill_results, job_bill
from .jobs import Job, JobQueue
from .net import (
    Channel,
    Delegation,
    FixpointNode,
    NetworkError,
    RemoteEvalError,
)
from .runtime import Fixpoint
from .tracing import Stopwatch, Trace

__all__ = [
    "Bill",
    "Channel",
    "Delegation",
    "Fixpoint",
    "FixpointNode",
    "InvocationMeter",
    "Job",
    "JobQueue",
    "NetworkError",
    "RemoteEvalError",
    "Stopwatch",
    "Trace",
    "bill_effort",
    "bill_results",
    "job_bill",
]
