"""Pay-for-results billing (paper section 6, "Paying for results").

Current serverless billing is *pay-for-effort*: the customer pays for
every millisecond a function occupies a machine slice, idle or not -
which bills the customer for the provider's bad placement and noisy
neighbours.  The paper sketches the alternative this module implements:

* an **upfront cost**: the size of an invocation's data inputs plus its
  RAM reservation;
* a **runtime cost** that charges only work that is the function's own
  fault: a proxy for instructions retired (we use user-compute seconds)
  plus an L1/L2-miss-style penalty proportional to bytes actually mapped
  - but *not* wall-clock waiting, which may be the platform's fault;
* invocations carrying a more distant **deadline** get a discount, since
  the provider may spread the load.

:func:`bill_effort` computes the classic GB-second bill for comparison;
the ablation example shows how the two models diverge when the platform
places work badly: pay-for-effort passes the waste to the customer,
pay-for-results eats it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.errors import FixError

#: Default tariff, in abstract currency units.
PRICE_PER_INPUT_GB = 0.02
PRICE_PER_RESERVED_GB = 0.005
PRICE_PER_CPU_SECOND = 0.04
PRICE_PER_MAPPED_GB = 0.01
PRICE_PER_GB_SECOND_EFFORT = 0.0000166667 * 1000  # AWS-like GB-second rate
DEADLINE_DISCOUNT_PER_HOUR = 0.05
MAX_DEADLINE_DISCOUNT = 0.5


class BillingError(FixError):
    """Invalid meter readings."""


@dataclass(frozen=True)
class InvocationMeter:
    """What the platform measured for one invocation."""

    input_bytes: int
    reserved_memory_bytes: int
    user_cpu_seconds: float
    bytes_mapped: int
    wall_seconds: float
    deadline_slack_hours: float = 0.0

    def __post_init__(self):
        if min(
            self.input_bytes,
            self.reserved_memory_bytes,
            self.bytes_mapped,
        ) < 0 or min(self.user_cpu_seconds, self.wall_seconds) < 0:
            raise BillingError("meter readings must be non-negative")
        if self.deadline_slack_hours < 0:
            raise BillingError("deadline slack must be non-negative")


@dataclass(frozen=True)
class Bill:
    """An itemized charge."""

    upfront: float
    runtime: float
    discount: float

    @property
    def total(self) -> float:
        return max(0.0, self.upfront + self.runtime - self.discount)


def bill_results(meter: InvocationMeter) -> Bill:
    """The pay-for-results bill: immune to placement and neighbours."""
    gb = 1e9
    upfront = (
        meter.input_bytes / gb * PRICE_PER_INPUT_GB
        + meter.reserved_memory_bytes / gb * PRICE_PER_RESERVED_GB
    )
    runtime = (
        meter.user_cpu_seconds * PRICE_PER_CPU_SECOND
        + meter.bytes_mapped / gb * PRICE_PER_MAPPED_GB
    )
    discount_rate = min(
        MAX_DEADLINE_DISCOUNT,
        meter.deadline_slack_hours * DEADLINE_DISCOUNT_PER_HOUR,
    )
    discount = (upfront + runtime) * discount_rate
    return Bill(upfront=upfront, runtime=runtime, discount=discount)


def bill_effort(meter: InvocationMeter) -> Bill:
    """The classic pay-for-effort bill: GB-seconds of occupancy,
    including every moment the slice idled on I/O."""
    gb_seconds = meter.reserved_memory_bytes / 1e9 * meter.wall_seconds
    return Bill(
        upfront=0.0,
        runtime=gb_seconds * PRICE_PER_GB_SECOND_EFFORT,
        discount=0.0,
    )


def job_bill(
    meters: Iterable[InvocationMeter], model: str = "results"
) -> float:
    """Total over a job's invocations under the chosen model."""
    if model == "results":
        return sum(bill_results(m).total for m in meters)
    if model == "effort":
        return sum(bill_effort(m).total for m in meters)
    raise BillingError(f"unknown billing model {model!r}")
