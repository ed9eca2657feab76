"""Per-kernel instrumentation, backed by the ``repro.obs`` metrics registry.

Every hot kernel is wrapped with :func:`instrumented`.  Each call reports
into three labeled series of the process-wide
:data:`repro.obs.metrics.registry`:

* ``kernel.calls{kernel=<name>}`` — counter, integer call count;
* ``kernel.seconds{kernel=<name>}`` — counter, accumulated wall time;
* ``kernel.seconds.hist{kernel=<name>}`` — fixed-bucket timing histogram.

and, when the :data:`repro.obs.tracing.tracer` is enabled, opens a nested
span named after the kernel — so a ``--trace`` run shows every min-plus
convolution under the experiment that triggered it.  With tracing off the
extra cost is a single attribute check.  Read the series with
``registry.snapshot()`` (or the CLI's ``--metrics-out``); :func:`reset`
zeroes exactly the kernel series.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, TypeVar

from repro.obs.metrics import DEFAULT_TIME_BUCKETS, registry
from repro.obs.tracing import tracer

__all__ = ["instrumented", "reset", "record"]

F = TypeVar("F", bound=Callable[..., Any])

#: Registry series names of the kernel instrumentation.
CALLS_METRIC = "kernel.calls"
SECONDS_METRIC = "kernel.seconds"
HISTOGRAM_METRIC = "kernel.seconds.hist"

#: Prefix shared by all kernel series (used by :func:`reset`).
_KERNEL_PREFIX = "kernel."


def record(name: str, seconds: float) -> None:
    """Account one call of *name* taking *seconds* of wall time."""
    seconds = float(seconds)
    registry.counter(CALLS_METRIC, kernel=name).inc()
    registry.counter(SECONDS_METRIC, kernel=name).add(seconds)
    registry.histogram(
        HISTOGRAM_METRIC, buckets=DEFAULT_TIME_BUCKETS, kernel=name
    ).observe(seconds)


def instrumented(
    name: str, *, attrs: Callable[..., dict[str, Any]] | None = None
) -> Callable[[F], F]:
    """Decorator: meter calls to the wrapped kernel and, when tracing is
    enabled, open a span named *name*.

    *attrs* optionally maps the call arguments to span attributes (e.g.
    operand sizes); it only runs while tracing is enabled, so it may be
    arbitrarily lazy about cost.
    """

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                span_attrs = attrs(*args, **kwargs) if attrs is not None else {}
                with tracer.span(name, **span_attrs):
                    t0 = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        record(name, time.perf_counter() - t0)
            else:
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(name, time.perf_counter() - t0)

        return wrapper  # type: ignore[return-value]

    return decorate


def reset() -> None:
    """Zero all per-kernel series (they stay registered)."""
    registry.reset(prefix=_KERNEL_PREFIX)
