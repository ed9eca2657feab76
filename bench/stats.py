"""Sample statistics and the host-speed probe used by the benchmark.

The host this benchmark was sized on changes speed by up to 1.7x for
minutes at a time (a fixed loop read 110 ms in fast phases and 190 ms in
slow ones, with CPU time tracking wall time, so the change is in speed,
not in stolen time).  Medians within a run cannot remove that, so every
end-to-end timing is scaled to a reference host speed: a short fixed
probe runs between measured segments, and a segment's timings are
divided by its speed factor, the mean of the probe readings before and
after it over :data:`REFERENCE_PROBE_S`.

The host's two vCPUs also share one core's capacity at times: then a
single process runs at full speed but two busy processes each run at
about half.  A workload that keeps several processes busy at once
probes with as many processes at once.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import Any, Sequence

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "REFERENCE_PROBE_S",
    "HostSpeed",
    "calibrate_ms",
    "latency_summary",
    "probe_s",
    "quantile",
    "quartiles",
    "tail_percentile",
]

#: A reported tail percentile keeps at least this many samples beyond it.
MIN_BEYOND = 10

_PERCENTILES = (99, 95, 90, 75, 50)

#: Probe time at the reference host speed (a typical reading on the host
#: the benchmark was sized on).
REFERENCE_PROBE_S = 0.020

_PROBE_DATA = np.random.default_rng(0).random(262_144)


def probe_s() -> float:
    """Wall time of a short fixed mix of Python and numpy work (~20 ms)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    prefix = np.cumsum(_PROBE_DATA)
    for k in (1, 3, 7, 19, 61, 157, 509, 1021):
        np.subtract(prefix[k:], prefix[:-k]).max()
    np.sort(_PROBE_DATA)
    return time.perf_counter() - t0


def _probe_helper(conn) -> None:
    """Run a probe each time the parent asks, until it sends False."""
    while conn.recv():
        conn.send(probe_s())


class HostSpeed:
    """Speed factors of consecutive measured segments.

    Create it right before the first segment and call :meth:`mark` right
    after each segment, once nothing else is running: it probes and
    returns the segment's factor, >1 when the host ran slower than the
    reference.  Dividing a segment's times by it gives reference times.

    With *processes* > 1 each reading is the mean of that many probes
    run at once, the extra ones in helper processes, for work that keeps
    that many processes busy; use it as a context manager then, so the
    helpers are stopped.
    """

    def __init__(self, processes: int = 1):
        context = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(processes - 1):
            conn, child_conn = context.Pipe()
            process = context.Process(target=_probe_helper, args=(child_conn,))
            process.start()
            self._helpers.append((conn, process))
        self.readings = [self._probe()]
        self.factors: list[float] = []

    def _probe(self) -> float:
        for conn, _ in self._helpers:
            conn.send(True)
        total = probe_s() + sum(conn.recv() for conn, _ in self._helpers)
        return total / (1 + len(self._helpers))

    def current(self) -> float:
        """The factor of the latest reading alone, for pacing what comes next."""
        return self.readings[-1] / REFERENCE_PROBE_S

    def close(self) -> None:
        """Stop the helper processes."""
        for conn, process in self._helpers:
            conn.send(False)
            process.join()
            conn.close()
        self._helpers = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def mark(self) -> float:
        self.readings.append(self._probe())
        factor = (self.readings[-2] + self.readings[-1]) / 2.0 / REFERENCE_PROBE_S
        self.factors.append(factor)
        return factor


def calibrate_ms() -> float:
    """Wall time of eight probes (~0.16 s), in ms: the host drift probe.

    Run before and after each workload: when the two readings differ by
    more than 10 % the host changed speed during the run.
    """
    return sum(probe_s() for _ in range(8)) * 1e3


def quantile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) of *values*, linearly interpolated."""
    if not len(values):
        raise ValueError("quantile of an empty sample")
    return float(np.quantile(np.asarray(values, dtype=float), q))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n: int) -> int | None:
    """The highest of p99/p95/p90/p75/p50 with at least :data:`MIN_BEYOND`
    of *n* samples beyond it; None when even p50 has fewer (the tail is
    then reported as the maximum)."""
    for p in _PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            return p
    return None


def latency_summary(latencies_s: Sequence[float]) -> dict[str, float | int | str]:
    """Median and tail latency in ms, the tail's label and the sample count."""
    n = len(latencies_s)
    p = tail_percentile(n)
    return {
        "p50_ms": quantile(latencies_s, 0.5) * 1e3,
        "tail_ms": (quantile(latencies_s, p / 100) if p else max(latencies_s)) * 1e3,
        "tail": f"p{p}" if p else "max",
        "n": n,
    }
