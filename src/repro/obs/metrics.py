"""A thread-safe, low-overhead metrics registry with a pluggable clock.

The paper's whole evaluation is runtime-side measurement - per-invocation
wall/bytes traces (Table 2), CPU-state breakdowns (fig. 8), per-operation
cost models (fig. 9) - and the ROADMAP's throughput work needs scheduler
µs/decision and queue latencies.  This module is the one place all of
that lands: labeled
:class:`Counter`\\ s, :class:`Gauge`\\ s, and fixed-bucket
:class:`Histogram`\\ s owned by a :class:`MetricsRegistry`.

Two properties are load-bearing:

* **Pluggable clock.**  The registry times things through one callable.
  The executing runtime (:mod:`repro.fixpoint.net`) uses wall time
  (``time.perf_counter``); the simulated platform
  (:class:`~repro.dist.engine.FixpointSim`) passes ``lambda: sim.now``
  so every duration a metric observes is *simulated* time - metrics
  stay bit-identical under seeded replay (a property the tests assert),
  exactly like the rest of the deterministic substrate.

* **Off the critical path.**  Updating a metric is one lock acquire and
  a dict write; nothing is formatted, flushed, or exported until someone
  asks (:meth:`MetricsRegistry.export`).  The Lithops invoker/monitor
  split (PAPERS.md) is the pattern: measurement must never serialize the
  hot path it measures.  :class:`NullRegistry` is the control: the same
  API compiled down to no-ops, which the overhead benchmark prices
  against the real thing (<5% on ``scatter`` fan-out is asserted).

Label handling is open-schema: any keyword arguments form a series key,
and one family may hold series with different label sets (the gossip
round counter is bumped unlabeled by the coordinator and per-peer by the
wire path).  Export is deterministic: families and series sort by name
and label key.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.sync import TrackedLock
from ..core.errors import FixError

Clock = Callable[[], float]

#: Series key: sorted ``(label, value)`` pairs.  ``()`` is the unlabeled
#: series every bare ``inc()``/``set()`` touches.
LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(FixError):
    """Registry misuse (name collisions across metric kinds, bad buckets)."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labels_dict(key: LabelKey) -> Dict[str, str]:
    return {k: v for k, v in key}


def _format_series(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


#: Default histogram buckets (seconds): spans the microsecond-scale
#: scheduler decisions of fig. 10 up to multi-second simulated fetches.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing labeled family of floats."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = TrackedLock("Counter._lock")
        self._series: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def total(self, **label_filter: object) -> float:
        """Sum over every series matching the given label subset."""
        wanted = _label_key(label_filter)
        with self._lock:
            return sum(
                v
                for key, v in self._series.items()
                if set(wanted) <= set(key)
            )

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def export(self) -> List[Dict[str, object]]:
        with self._lock:
            return [
                {"labels": _labels_dict(key), "value": self._series[key]}
                for key in sorted(self._series)
            ]

    def summary_lines(self) -> List[str]:
        with self._lock:
            return [
                f"{_format_series(self.name, key)} {self._series[key]:g}"
                for key in sorted(self._series)
            ]


class Gauge:
    """A labeled family of set/add values, plus sampled callbacks.

    :meth:`set_function` registers a callable evaluated at export time -
    how live structures (an :class:`~repro.dist.objectview.ObjectView`'s
    entry count, a channel's configured latency, in-flight delegation
    load) are observed without the hot path pushing every change.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = TrackedLock("Gauge._lock")
        self._series: Dict[LabelKey, float] = {}
        self._fns: Dict[LabelKey, Callable[[], float]] = {}

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def add(self, value: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def set_function(self, fn: Callable[[], float], **labels: object) -> None:
        with self._lock:
            self._fns[_label_key(labels)] = fn

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        with self._lock:
            fn = self._fns.get(key)
            if fn is None:
                return self._series.get(key, 0.0)
        return float(fn())

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self._fns.clear()

    def _sampled(self) -> Dict[LabelKey, float]:
        with self._lock:
            values = dict(self._series)
            fns = list(self._fns.items())
        for key, fn in fns:  # outside the lock: callbacks may take others
            values[key] = float(fn())
        return values

    def export(self) -> List[Dict[str, object]]:
        values = self._sampled()
        return [
            {"labels": _labels_dict(key), "value": values[key]}
            for key in sorted(values)
        ]

    def summary_lines(self) -> List[str]:
        values = self._sampled()
        return [
            f"{_format_series(self.name, key)} {values[key]:g}"
            for key in sorted(values)
        ]


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # one extra slot for +Inf
        self.sum = 0.0
        self.count = 0


class _Timer:
    """``with histogram.time():`` - observes the clocked duration."""

    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: "Histogram", labels: Dict[str, object]):
        self._histogram = histogram
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._histogram._clock()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(
            self._histogram._clock() - self._start, **self._labels
        )


class Histogram:
    """Fixed-bucket labeled histogram (cumulative export, like fig. 9's
    per-operation cost rows: counts per band, sum, count)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        clock: Clock = time.perf_counter,
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricsError(
                f"histogram {self.__class__.__name__} {name!r} needs "
                "ascending, non-empty buckets"
            )
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._clock = clock
        self._lock = TrackedLock("Histogram._lock")
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1
                )
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def time(self, **labels: object) -> _Timer:
        """A context manager observing its duration on the registry clock."""
        return _Timer(self, labels)

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.sum if series is not None else 0.0

    def mean(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return 0.0
            return series.sum / series.count

    def quantile(self, q: float, **labels: object) -> float:
        """Bucket-resolution quantile: the upper bound of the bucket the
        q-th observation falls in (+Inf collapses to the last bound)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return 0.0
            target = q * series.count
            seen = 0
            for index, count in enumerate(series.counts):
                seen += count
                if seen >= target and count:
                    return self.buckets[min(index, len(self.buckets) - 1)]
            return self.buckets[-1]

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def export(self) -> List[Dict[str, object]]:
        with self._lock:
            out = []
            for key in sorted(self._series):
                series = self._series[key]
                out.append(
                    {
                        "labels": _labels_dict(key),
                        "buckets": list(self.buckets),
                        "counts": list(series.counts),
                        "sum": series.sum,
                        "count": series.count,
                    }
                )
            return out

    def summary_lines(self) -> List[str]:
        with self._lock:
            lines = []
            for key in sorted(self._series):
                series = self._series[key]
                mean = series.sum / series.count if series.count else 0.0
                lines.append(
                    f"{_format_series(self.name, key)} "
                    f"count={series.count} sum={series.sum:.6g} "
                    f"mean={mean:.6g}"
                )
            return lines


class MetricsRegistry:
    """Owns metric families; the unit of export and of clock injection.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family (so instruments can be
    looked up where they are used), and asking for an existing name as a
    different kind raises - one name, one meaning.
    """

    def __init__(self, name: str = "obs", clock: Clock = time.perf_counter):
        self.name = name
        self.clock = clock
        self._lock = TrackedLock("MetricsRegistry._lock")
        self._families: Dict[str, object] = {}

    # ------------------------------------------------------------------

    def _get_or_create(self, kind: type, name: str, factory):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, kind):
                    raise MetricsError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}, not {kind.kind}"  # type: ignore[attr-defined]
                    )
                return family
            family = factory()
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            lambda: Histogram(name, help, buckets=buckets, clock=self.clock),
        )

    # ------------------------------------------------------------------

    def families(self) -> List[object]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def reset(self) -> None:
        for family in self.families():
            family.reset()  # type: ignore[attr-defined]

    def export(self) -> Dict[str, object]:
        """The whole registry as one JSON-ready dict (sorted, stable)."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for family in self.families():
            target = {
                "counter": counters,
                "gauge": gauges,
                "histogram": histograms,
            }[family.kind]  # type: ignore[attr-defined]
            target[family.name] = family.export()  # type: ignore[attr-defined]
        return {
            "name": self.name,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def summary(self) -> str:
        lines = [f"== metrics: {self.name} =="]
        for family in self.families():
            lines.extend(family.summary_lines())  # type: ignore[attr-defined]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The no-op twin: same API, zero work - the overhead-guard control.


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_TIMER = _NullTimer()


class NullCounter(Counter):
    def __init__(self):
        super().__init__("null")

    def inc(self, value: float = 1.0, **labels: object) -> None:
        return None


class NullGauge(Gauge):
    def __init__(self):
        super().__init__("null")

    def set(self, value: float, **labels: object) -> None:
        return None

    def add(self, value: float = 1.0, **labels: object) -> None:
        return None

    def set_function(self, fn: Callable[[], float], **labels: object) -> None:
        return None


class NullHistogram(Histogram):
    def __init__(self):
        super().__init__("null", buckets=(1.0,))

    def observe(self, value: float, **labels: object) -> None:
        return None

    def time(self, **labels: object) -> _NullTimer:  # type: ignore[override]
        return _NULL_TIMER


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry(MetricsRegistry):
    """Every family is a shared no-op; export is empty.

    This is what "metrics disabled" means: the instrumentation points
    stay in the code, each one costing a single dynamic call into a
    body that immediately returns - the cost the <5% ``scatter``
    overhead bench compares against.
    """

    def __init__(self, name: str = "null", clock: Clock = time.perf_counter):
        super().__init__(name, clock)

    def counter(self, name: str, help: str = "") -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "") -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def export(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def summary(self) -> str:
        return f"== metrics: {self.name} (disabled) =="
