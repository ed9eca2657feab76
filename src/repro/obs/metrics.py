"""Typed metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` holds labeled series keyed by ``(name, labels)``
— asking for the same name/labels pair always returns the same instrument,
so call sites never need to cache handles.  Three kinds exist:

* :class:`Counter` — monotonically accumulating value (``inc``/``add``);
  integer increments keep the value an ``int``, so call counts serialize
  as ``3`` and never ``3.0``;
* :class:`Gauge` — last-written value with a high-water helper
  (:meth:`Gauge.set_max`), e.g. FIFO backlog high-water marks;
* :class:`Histogram` — fixed upper-bound buckets plus an implicit
  overflow bucket, tracking per-bucket counts, sum, count, min, and max.

Collectors registered with :meth:`MetricsRegistry.register_collector` run
at snapshot time and may publish derived series (the kernel memo cache
publishes its hit/miss/eviction counters this way, paying nothing on the
cache hot path).

:meth:`MetricsRegistry.snapshot` renders everything as a plain JSON-able
dict (schema ``repro.metrics/1``) — the payload behind the CLI's
``--metrics-out`` and the per-experiment run manifests.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "METRICS_SCHEMA",
    "DEFAULT_TIME_BUCKETS",
]

#: Version tag written into every snapshot.
METRICS_SCHEMA = "repro.metrics/1"

#: Default histogram buckets for wall-time observations, in seconds
#: (geometric 1 µs .. 10 s; observations above fall into the overflow bin).
DEFAULT_TIME_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class _Metric:
    """Common identity/locking of all instrument kinds."""

    __slots__ = ("name", "labels", "_lock")

    kind = "metric"

    def __init__(self, name: str, labels: dict[str, Any]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    def _header(self) -> dict[str, Any]:
        # labels are emitted key-sorted so serialized snapshots are
        # byte-stable regardless of the call site's keyword order
        return {"name": self.name, "labels": dict(sorted(self.labels.items()))}


class Counter(_Metric):
    """Monotonically increasing value.

    Integer-only increments keep :attr:`value` an ``int``; mixing in a
    float increment promotes it to ``float`` (e.g. accumulated seconds).
    """

    __slots__ = ("_value",)

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]):
        super().__init__(name, labels)
        self._value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for ±deltas")
        with self._lock:
            self._value += amount

    #: Alias reading better for continuous quantities (``add(seconds)``).
    add = inc

    def set_total(self, value: int | float) -> None:
        """Overwrite the running total — for collector-published counters
        whose source keeps its own (monotonic) accounting."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> int | float:
        """Current total."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self) -> dict[str, Any]:
        return {**self._header(), "value": self.value}


class Gauge(_Metric):
    """Last-written value with a high-water helper."""

    __slots__ = ("_value",)

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any]):
        super().__init__(name, labels)
        self._value: int | float = 0

    def set(self, value: int | float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = value

    def set_max(self, value: int | float) -> None:
        """Raise the gauge to *value* if it is a new high-water mark."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> int | float:
        """Current value."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _snapshot(self) -> dict[str, Any]:
        return {**self._header(), "value": self.value}


class Histogram(_Metric):
    """Fixed-bucket histogram with an implicit overflow bucket.

    ``buckets`` are strictly increasing upper bounds; an observation lands
    in the first bucket whose bound is >= the value, or in the overflow bin
    (``counts`` has ``len(buckets) + 1`` entries).
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_min", "_max")

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, Any], buckets: tuple[float, ...]):
        super().__init__(name, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def merge(self, entry: dict[str, Any]) -> None:
        """Fold a snapshot *entry* of an identically-bucketed histogram
        (typically from a worker process) into this one."""
        if tuple(entry["buckets"]) != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched buckets"
            )
        with self._lock:
            for i, c in enumerate(entry["counts"]):
                self._counts[i] += c
            self._sum += entry["sum"]
            self._count += entry["count"]
            if entry["count"]:
                self._min = min(self._min, entry["min"])
                self._max = max(self._max, entry["max"])

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        with self._lock:
            return self._sum

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0
            self._min = float("inf")
            self._max = float("-inf")

    def _snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                **self._header(),
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }


def _label_key(labels: dict[str, Any]) -> tuple:
    # identity key: keys are unique within one dict, so this sort never
    # compares two label *values* and is safe for mixed value types
    return tuple(sorted(labels.items()))


def _sort_key(metric: "_Metric") -> tuple:
    """Deterministic total order over series: name, then label keys, then
    label values compared as ``(type name, str)`` pairs — well-defined even
    when two series label the same key with values of different types
    (e.g. ``op=1`` vs ``op="a"``), where a plain tuple sort would raise."""
    return (
        metric.name,
        tuple(
            (k, type(v).__name__, str(v)) for k, v in sorted(metric.labels.items())
        ),
    )


class MetricsRegistry:
    """Process-wide store of labeled instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    with a given ``(name, labels)`` creates the series, later calls return
    the same object.  Requesting an existing name with a different kind is
    an error (one name, one kind).
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, tuple], _Metric] = {}
        self._kinds: dict[str, str] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    # -- get-or-create -----------------------------------------------------------
    def _get(self, cls, name: str, labels: dict[str, Any], *args) -> _Metric:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._series.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            if self._kinds.get(name, cls.kind) != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {self._kinds[name]}"
                )
            metric = cls(name, dict(labels), *args)
            self._series[key] = metric
            self._kinds[name] = cls.kind
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """Get or create the histogram ``name{labels}`` (``buckets`` only
        applies on creation; later calls reuse the original bounds)."""
        return self._get(Histogram, name, labels, buckets)

    def series(self, name: str) -> list[_Metric]:
        """All series registered under *name*, label-order sorted."""
        with self._lock:
            found = [m for (n, _), m in self._series.items() if n == name]
        return sorted(found, key=_sort_key)

    # -- merging -----------------------------------------------------------------
    def merge_snapshot(self, snapshot: dict[str, Any], **extra_labels: Any) -> None:
        """Fold a ``repro.metrics/1`` *snapshot* (typically from a worker
        process) into this registry.

        Counters accumulate (``inc`` by the snapshot value), gauges take
        the high-water mark, and histograms merge bucket-wise.  Pass
        *extra_labels* (e.g. ``origin="worker"``) to keep merged series
        distinct from this process's own — essential for counters that a
        snapshot-time collector would otherwise overwrite, such as the
        kernel-cache series.

        A zero counter or gauge and an empty histogram are skipped: they
        are what :meth:`reset` leaves of a series nothing set since, such
        as the ones a forked worker inherits, and merging them would
        only leave zero series behind.
        """
        if snapshot.get("schema") != METRICS_SCHEMA:
            raise ValueError(f"cannot merge snapshot schema {snapshot.get('schema')!r}")
        for entry in snapshot.get("counters", ()):
            labels = {**entry["labels"], **extra_labels}
            value = entry["value"]
            if value:
                self.counter(entry["name"], **labels).inc(value)
        for entry in snapshot.get("gauges", ()):
            labels = {**entry["labels"], **extra_labels}
            if entry["value"]:
                self.gauge(entry["name"], **labels).set_max(entry["value"])
        for entry in snapshot.get("histograms", ()):
            if not entry["count"]:
                continue
            labels = {**entry["labels"], **extra_labels}
            self.histogram(
                entry["name"], buckets=tuple(entry["buckets"]), **labels
            ).merge(entry)

    # -- collectors --------------------------------------------------------------
    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register *fn* to be called (with this registry) at every
        snapshot — the hook for sources that keep their own accounting."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    # -- snapshot / reset --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Everything as a JSON-able dict (schema ``repro.metrics/1``).

        Series are emitted in a deterministic order (name, then label
        key/value pairs) and each entry's ``labels`` dict is key-sorted,
        so two snapshots of identical state serialize byte-identically
        across runs and Python hash randomization — the property
        ``obs diff`` and the golden-manifest tests rely on.
        """
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect(self)
        with self._lock:
            series = sorted(self._series.values(), key=_sort_key)
        out: dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        for metric in series:
            out[metric.kind + "s"].append(metric._snapshot())
        return out

    def reset(self, prefix: str | None = None) -> None:
        """Zero the values of all series (or those whose name starts with
        *prefix*).  Series objects stay registered, so handles held by
        call sites keep working."""
        with self._lock:
            metrics = list(self._series.values())
        for metric in metrics:
            if prefix is None or metric.name.startswith(prefix):
                metric._reset()

    def clear(self) -> None:
        """Drop every series (collectors are kept).  Call-site handles to
        dropped series become orphans — prefer :meth:`reset` mid-run."""
        with self._lock:
            self._series.clear()
            self._kinds.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)


#: The process-wide registry every instrumented layer reports to.
registry = MetricsRegistry()

#: Bound conveniences mirroring the registry methods.
counter = registry.counter
gauge = registry.gauge
histogram = registry.histogram
