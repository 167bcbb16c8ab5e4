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

* **Off the critical path.**  No hot path counts through here.  A
  counter is the component's own state - an int, or a dict keyed by
  label values - bumped under a lock the path already holds and read
  through the reader the component registered at construction
  (:meth:`Counter.read`); a gauge is a callback (:meth:`Gauge.set_function`).
  Both are sampled only when someone asks (:meth:`MetricsRegistry.export`),
  outside the family lock.  Histograms are bound at construction: a
  component with observability off (:class:`NullRegistry`) holds ``None``
  and pays one ``is None`` test per timed site.  The Lithops
  invoker/monitor split (PAPERS.md) is the pattern: measurement must
  never serialize the hot path it measures.  The overhead benchmark
  prices a real registry against the null one (<5% on ``scatter``
  fan-out is asserted).

Label handling is open-schema: any keyword arguments form a series key,
and one family may hold series with different label sets.  Each family
remembers the series key of every all-``str`` label set it has seen, so
a repeated ``inc``/``observe`` finds its key with one lookup instead of
sorting its labels.  Export is deterministic: families and series sort
by name and label key.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.sync import TrackedLock
from ..core.errors import FixError

Clock = Callable[[], float]

#: Series key: sorted ``(label, value)`` pairs.  ``()`` is the unlabeled
#: series every bare ``inc()``/``observe()`` touches.
LabelKey = Tuple[Tuple[str, str], ...]

#: A counter's reader: label values -> count, sampled at export
#: (:meth:`Counter.read`).
Reader = Callable[[], Mapping[object, int]]


class MetricsError(FixError):
    """Registry misuse (name collisions across metric kinds, bad buckets)."""


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Family:
    """What every metric family shares: a name, help text, and the
    memo from the label sets it was called with to their series keys."""

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._keys: Dict[Tuple[Tuple[str, object], ...], LabelKey] = {}

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        """``_label_key(labels)``, remembered by keyword order.

        Only label sets whose values are all ``str`` are remembered:
        ``1``, ``True`` and ``1.0`` are equal as dict keys but not as
        labels, and an unhashable value cannot be a dict key at all.
        (A ``str`` subclass whose ``__str__`` is not its value would
        find the key of the ``str`` it equals; no caller passes one.)
        """
        items = tuple(labels.items())
        try:
            return self._keys[items]
        except KeyError:
            pass
        except TypeError:  # an unhashable label value
            return _label_key(labels)
        key = _label_key(labels)
        for value in labels.values():
            if type(value) is not str:
                return key
        self._keys[items] = key
        return key


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


class _Sampled(_Family):
    """A family read when asked: :meth:`export` and :meth:`summary_lines`
    render what :meth:`_sampled` returns, each series' current value."""

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


class Counter(_Sampled):
    """A monotonically increasing labeled family.

    Components keep their counts as their own state and register a
    reader with :meth:`read`, sampled when the family is read.
    :meth:`inc` is the family's own source, for callers with no state to
    read.  All series sum on the one export path: ``inc``'s with the
    readers', and those of components sharing one registry.
    """

    kind = "counter"

    def __init__(self, name: str, help: str):
        super().__init__(name, help)
        self._lock = TrackedLock("Counter._lock")
        self._series: Dict[LabelKey, float] = {}
        self._readers: List[Tuple[Reader, Tuple[str, ...]]] = []

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def read(self, fn: Reader, *names: str) -> None:
        """Sample ``fn`` whenever the family is read.  ``fn()`` maps
        label values - a tuple, one per name in ``names``, or the bare
        value of a single label - to a count; a series it has no key for
        was never counted.  It must return a mapping its component no
        longer writes (``dict.copy`` of the live state), and it runs
        outside the family lock, so it may take the component's."""
        with self._lock:
            self._readers.append((fn, names))

    def _sampled(self) -> Dict[LabelKey, float]:
        with self._lock:
            values = dict(self._series)
            readers = list(self._readers)
        for fn, names in readers:
            for labels, count in fn().items():
                if type(labels) is not tuple:
                    labels = (labels,)
                key = _label_key(dict(zip(names, labels)))
                values[key] = values.get(key, 0.0) + count
        return values

    def value(self, **labels: object) -> float:
        return self._sampled().get(self._key(labels), 0.0)

    def total(self, **label_filter: object) -> float:
        """Sum over every series matching the given label subset."""
        wanted = set(_label_key(label_filter))
        return sum(
            v for key, v in self._sampled().items() if wanted <= set(key)
        )


class Gauge(_Sampled):
    """A labeled family of sampled callbacks.

    :meth:`set_function` registers a callable evaluated at export time -
    how live structures (an :class:`~repro.dist.objectview.ObjectView`'s
    entry count, a channel's configured latency, in-flight delegation
    load) are observed without the hot path pushing every change.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str):
        super().__init__(name, help)
        self._lock = TrackedLock("Gauge._lock")
        self._fns: Dict[LabelKey, Callable[[], float]] = {}

    def set_function(self, fn: Callable[[], float], **labels: object) -> None:
        with self._lock:
            self._fns[self._key(labels)] = fn

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            fn = self._fns.get(key)
        return 0.0 if fn is None else float(fn())

    def _sampled(self) -> Dict[LabelKey, float]:
        with self._lock:
            fns = list(self._fns.items())
        # Outside the lock: callbacks may take others.
        return {key: float(fn()) for key, fn in fns}


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # one extra slot for +Inf
        self.sum = 0.0
        self.count = 0


class _Timer:
    """``with histogram.time():`` - observes the clocked duration."""

    __slots__ = ("_histogram", "_key", "_start")

    def __init__(self, histogram: "Histogram", key: LabelKey):
        self._histogram = histogram
        self._key = key
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._histogram._clock()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram._record(
            self._histogram._clock() - self._start, self._key
        )


class Histogram(_Family):
    """Fixed-bucket labeled histogram (cumulative export, like fig. 9's
    per-operation cost rows: counts per band, sum, count)."""

    kind = "histogram"

    def __init__(
        self, name: str, help: str, buckets: Sequence[float], clock: Clock
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricsError(
                f"histogram {self.__class__.__name__} {name!r} needs "
                "ascending, non-empty buckets"
            )
        super().__init__(name, help)
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._clock = clock
        self._lock = TrackedLock("Histogram._lock")
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        self._record(value, self._key(labels))

    def _record(self, value: float, key: LabelKey) -> None:
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
        return _Timer(self, self._key(labels))

    def count(self, **labels: object) -> int:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: object) -> float:
        with self._lock:
            series = self._series.get(self._key(labels))
            return series.sum if series is not None else 0.0

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

    def _get_or_create(self, kind: type, name: str, *args):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = kind(name, *args)
            elif not isinstance(family, kind):
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}, not {kind.kind}"  # type: ignore[attr-defined]
                )
            return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Optional[Histogram]:
        """The family, or ``None`` with metrics off (:class:`NullRegistry`)."""
        return self._get_or_create(Histogram, name, help, buckets, self.clock)

    # ------------------------------------------------------------------

    def families(self) -> List[object]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def export(self) -> Dict[str, object]:
        """The whole registry as one JSON-ready dict (sorted, stable)."""
        snapshot: Dict[str, object] = {
            "name": self.name, "counters": {}, "gauges": {}, "histograms": {}
        }
        for family in self.families():
            kind = family.kind + "s"  # type: ignore[attr-defined]
            snapshot[kind][family.name] = family.export()  # type: ignore
        return snapshot

    def summary(self) -> str:
        lines = [f"== metrics: {self.name} =="]
        for family in self.families():
            lines.extend(family.summary_lines())  # type: ignore[attr-defined]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Observability off


class NullRegistry(MetricsRegistry):
    """Metrics off: nothing is registered, so the export is empty.

    A histogram is ``None``: a component binds it at construction and,
    holding ``None``, times nothing - one ``is None`` test per site, no
    call.  A counter or gauge is a fresh family nobody keeps, so what is
    registered on it costs construction time only.
    """

    def _get_or_create(self, kind: type, name: str, *args):
        return None if kind is Histogram else kind(name, *args)
