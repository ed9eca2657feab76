"""The layers the benchmark attributes time to, and their metrics.

Each layer is timed from outside: :data:`TARGETS` lists the public
entry points :mod:`bench.spans` wraps, and the span name of a target is
the prefix of its layer's metrics (``staircase.oneshot`` ->
``staircase.oneshot_s``, ``staircase.oneshot_calls``, ...).

Time and work metrics (unit ``s/op`` and ``count/op``) are per operation
of the workload — per ``repro all`` pass, sweep point, open-system
scenario or service request — so they read the same at any run length.
A layer's ``_s`` metric is self time: its spans' durations minus the
time their child spans cover; ``experiments.<id>_s`` is an experiment's
whole time.  These times are raw, not scaled to the reference host
speed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from bench.spans import Target, self_times

__all__ = [
    "TARGETS",
    "EXPERIMENT_IDS",
    "LAYER_SPANS",
    "LAYER_METRICS",
    "registry_counts",
    "registry_metrics",
    "span_metrics",
]

#: Registry order of the paper's experiments (``repro.experiments.ALL_EXPERIMENTS``).
EXPERIMENT_IDS = (
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
    "A1", "A2", "A3", "A4", "A5", "A6",
)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _oneshot_work(args, kwargs, result) -> int:
    """Window sums formed: trace length x number of window lengths."""
    return np.size(_arg(args, kwargs, 0, "values")) * np.size(_arg(args, kwargs, 1, "k_values"))


def _stream_work(args, kwargs, result) -> int:
    """Window sums formed by the streaming fold (0 when no total is given)."""
    total = kwargs.get("total")
    return 0 if total is None else int(total) * np.size(_arg(args, kwargs, 1, "k_values"))


def _arrival_work(args, kwargs, result) -> int:
    """Window minima formed: trace length x number of event counts."""
    times = _arg(args, kwargs, 0, "timestamps")
    counts = kwargs.get("n_values")
    return np.size(times) * (np.size(times) if counts is None else np.size(counts))


def _maximum_work(args, kwargs, result) -> int:
    """Breakpoints of both operands of the pointwise maximum."""
    return args[0].n_segments + _arg(args, kwargs, 1, "other").n_segments


def _replay_work(args, kwargs, result) -> int:
    """Item-stages replayed: stages x items of the demand matrix."""
    return np.size(_arg(args, kwargs, 1, "demands"))


TARGETS = (
    Target("mpeg.generate", "repro.mpeg.bitstream", "SyntheticClip.generate"),
    Target("staircase.oneshot", "repro.util.staircase", "cumulative_envelope_minmax", _oneshot_work),
    Target("staircase.stream", "repro.util.staircase", "streaming_envelope_minmax", _stream_work),
    Target("workload.extract", "repro.core.workload", "WorkloadCurve.from_demand_array"),
    Target("workload.extract", "repro.core.workload", "WorkloadCurve.from_demand_stream"),
    Target("workload.extract", "repro.core.workload", "WorkloadCurvePair.from_demand_stream"),
    Target("workload.envelope", "repro.core.operations", "envelope_upper"),
    Target("workload.envelope", "repro.core.operations", "envelope_lower"),
    Target("curves.arrival", "repro.curves.arrival", "from_trace_upper", _arrival_work),
    Target("curves.maximum", "repro.curves.curve", "PiecewiseLinearCurve.maximum", _maximum_work),
    Target("curves.minplus", "repro.curves.minplus", "convolve"),
    Target("curves.minplus", "repro.curves.minplus", "deconvolve"),
    Target("curves.bounds", "repro.curves.bounds", "backlog_bound"),
    Target("analysis.frequency", "repro.analysis.frequency", "FrequencySweepEvaluator.bound_curves"),
    Target("analysis.frequency", "repro.analysis.frequency", "FrequencySweepEvaluator.bisect"),
    Target("analysis.frequency", "repro.analysis.frequency", "FrequencySweepEvaluator.bound_wcet"),
    Target("analysis.frequency", "repro.analysis.frequency", "FrequencySweepEvaluator.backlog_events"),
    Target("analysis.frequency", "repro.analysis.frequency", "minimum_frequency_curves"),
    Target("analysis.frequency", "repro.analysis.frequency", "minimum_frequency_wcet"),
    Target("analysis.backlog", "repro.analysis.backlog", "backlog_bound_events"),
    Target("scheduling.taskgen", "repro.scheduling.generator", "random_variable_task_set"),
    Target("scheduling.taskgen", "repro.scheduling.generator", "random_task_set"),
    Target("scheduling.rms", "repro.scheduling.rms", "rms_test_classic"),
    Target("scheduling.rms", "repro.scheduling.rms", "rms_test_curves"),
    Target("scheduling.simulate", "repro.scheduling.simulator", "simulate"),
    Target("simulation.generate", "repro.simulation.workloads", "WorkloadSpec.generate"),
    Target("simulation.replay", "repro.simulation.chain", "replay_chain", _replay_work),
    Target("simulation.pipeline", "repro.simulation.pipeline", "simulate_pipeline"),
    Target("simulation.pipeline", "repro.simulation.pipeline", "replay_pipeline"),
    Target("experiments.case_study", "repro.experiments.common", "case_study_context"),
)

#: Span names of the wrapped layers, in :data:`TARGETS` order.  Each
#: reports ``<span>_s`` (self time) and ``<span>_calls``.
LAYER_SPANS = tuple(dict.fromkeys(t.span for t in TARGETS))

#: The work count a layer's spans carry, by span name.
_WORK_METRICS = {
    "staircase.oneshot": "staircase.oneshot_window_sums",
    "staircase.stream": "staircase.stream_window_sums",
    "curves.arrival": "curves.arrival_window_mins",
    "curves.maximum": "curves.maximum_breakpoints",
    "simulation.replay": "simulation.item_stages",
}

#: Every per-layer metric the benchmark reports, with its unit.  A traced
#: run reports all of them on every workload; a layer the workload does
#: not reach reads 0.
LAYER_METRICS = {
    **{f"{span}_s": "s/op" for span in LAYER_SPANS},
    **{f"{span}_calls": "count/op" for span in LAYER_SPANS},
    **dict.fromkeys(_WORK_METRICS.values(), "count/op"),
    "perf.memo_lookups": "count/op",
    "perf.memo_hit_ratio": "ratio",
    "analysis.verify_calls": "count/op",
    **{f"experiments.{eid}_s": "s/op" for eid in EXPERIMENT_IDS},
    "experiments.unattributed_s": "s/op",
    "experiments.digest_drift": "count",
    "runner.tasks": "count",
    "runner.failed": "count",
    "runner.task_s": "s/op",
    "runner.utilization": "ratio",
    "runner.overhead_s": "s/op",
    "service.queue_p50_ms": "ms",
    "service.exec_p50_ms": "ms",
    "service.transport_p50_ms": "ms",
    "service.latency_p99_ms": "ms",
    "service.generator_late_p99_ms": "ms",
    "service.rejected": "count",
    "service.shed": "count",
    "host.calib_before_ms": "ms",
    "host.calib_after_ms": "ms",
    "obs.trace_overhead_pct": "%",
    "obs.spans": "count",
}


_REGISTRY_COUNTERS = ("cache.hits", "cache.misses", "frequency.verify_calls")


def registry_counts() -> dict[str, float]:
    """Totals of the program's memo and verification counters (summed
    over labels, so merged worker series count too)."""
    from repro.obs.metrics import registry

    out = dict.fromkeys(_REGISTRY_COUNTERS, 0.0)
    for entry in registry.snapshot()["counters"]:
        if entry["name"] in out:
            out[entry["name"]] += entry["value"]
    return out


def registry_metrics(
    before: dict[str, float], after: dict[str, float], ops: int
) -> dict[str, float]:
    """Per-op memo and verification metrics from two :func:`registry_counts`."""
    delta = {name: after[name] - before[name] for name in before}
    lookups = delta["cache.hits"] + delta["cache.misses"]
    return {
        "perf.memo_lookups": lookups / max(ops, 1),
        "perf.memo_hit_ratio": delta["cache.hits"] / lookups if lookups else 0.0,
        "analysis.verify_calls": delta["frequency.verify_calls"] / max(ops, 1),
    }


def span_metrics(records: list[dict[str, Any]], ops: int) -> dict[str, float]:
    """Per-op self time, call and work metrics of the wrapped layers."""
    selfs = self_times(records)
    out: dict[str, float] = {}
    for r in records:
        span = r["name"]
        if span not in LAYER_SPANS:
            continue
        for name, value in (
            (f"{span}_s", selfs[r["id"]]),
            (f"{span}_calls", 1),
            (_WORK_METRICS.get(span), r["attrs"].get("work", 0)),
        ):
            if name is not None:
                out[name] = out.get(name, 0.0) + value
    return {name: value / max(ops, 1) for name, value in out.items()}
