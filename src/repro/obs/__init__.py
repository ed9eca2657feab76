"""repro.obs — dependency-free observability: tracing, metrics, manifests.

The pillars (see ``docs/observability.md``):

* :mod:`repro.obs.tracing` — nestable :func:`span` context managers with
  monotonic timings, a JSONL exporter, and a Chrome ``trace_event``
  converter so runs open in ``about:tracing``/Perfetto;
* :mod:`repro.obs.metrics` — a typed registry of counters, gauges, and
  fixed-bucket histograms with labeled series; the ``repro.perf``
  instrumentation and the kernel memo cache report through it;
* :mod:`repro.obs.manifest` — per-run manifests binding an experiment's
  outputs to its parameters, input content digests, seed, version, and
  metrics snapshot;
* :mod:`repro.obs.profile` — after-the-fact aggregation of collected
  spans and metrics into self-time / dispatch / cache-tier breakdowns,
  collapsed flamegraph stacks, interpolated histogram quantiles, and
  Prometheus text exposition (the ``obs report``/``flame`` CLI);
* :mod:`repro.obs.trajectory` — the append-only benchmark trajectory
  store (``benchmarks/TRAJECTORY.jsonl``) with a rolling-median
  regression gate (``scripts/check_trajectory.py``).

Everything here is standard-library only and imports nothing from the
rest of the package, so any layer — kernels, simulators, experiment
harnesses, the CLI — can report into it without cycles.

Quick use::

    from repro import obs

    obs.tracer.enable()
    with obs.span("build", clips=14):
        obs.counter("items").inc()
        obs.gauge("backlog.high_water", fifo="PE2").set_max(37)
    obs.tracer.export_jsonl("trace.jsonl")
    snapshot = obs.registry.snapshot()
"""

from __future__ import annotations

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    TIMING_FIELDS,
    build_manifest,
    collecting_inputs,
    combine_manifests,
    digest_json,
    record_input,
    stable_view,
    write_manifest,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    aggregate_spans,
    cache_tiers,
    collapsed_stacks,
    dispatch_breakdown,
    histogram_quantile,
    histogram_quantiles,
    profile_report,
    service_breakdown,
    simulation_breakdown,
    window_breakdown,
    prometheus_text,
    read_trace_jsonl,
    write_collapsed,
    write_profile,
)
from repro.obs.tracing import TRACE_SCHEMA, Span, Tracer, span, tracer
from repro.obs.trajectory import (
    TRAJECTORY_PATH,
    TRAJECTORY_SCHEMA,
    append_record,
    build_record,
    check_records,
    env_fingerprint,
    flatten_bench,
    metric_direction,
    read_records,
)

__all__ = [
    # tracing
    "TRACE_SCHEMA",
    "Span",
    "Tracer",
    "span",
    "tracer",
    # metrics
    "METRICS_SCHEMA",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "registry",
    # manifests
    "MANIFEST_SCHEMA",
    "TIMING_FIELDS",
    "build_manifest",
    "combine_manifests",
    "collecting_inputs",
    "digest_json",
    "record_input",
    "stable_view",
    "write_manifest",
    # profiling
    "PROFILE_SCHEMA",
    "aggregate_spans",
    "cache_tiers",
    "collapsed_stacks",
    "dispatch_breakdown",
    "histogram_quantile",
    "histogram_quantiles",
    "profile_report",
    "service_breakdown",
    "simulation_breakdown",
    "window_breakdown",
    "prometheus_text",
    "read_trace_jsonl",
    "write_collapsed",
    "write_profile",
    # trajectory
    "TRAJECTORY_PATH",
    "TRAJECTORY_SCHEMA",
    "append_record",
    "build_record",
    "check_records",
    "env_fingerprint",
    "flatten_bench",
    "metric_direction",
    "read_records",
]
