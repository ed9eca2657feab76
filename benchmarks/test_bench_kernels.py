"""Micro-benchmarks of the computational kernels.

These are the pieces whose cost scales with trace length or curve size:
workload-curve extraction, pseudo-inversion, arrival-curve extraction,
min-plus convolution, and the pipeline replay.  Multiple rounds give real
timing statistics (unlike the one-shot experiment regenerations).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import repro.perf as perf
from repro.core.workload import WorkloadCurve
from repro.curves.arrival import from_trace_upper, leaky_bucket, periodic_upper
from repro.curves.minplus import convolve, deconvolve
from repro.curves.service import rate_latency
from repro.simulation.pipeline import replay_pipeline
from repro.util.staircase import make_k_grid

RNG = np.random.default_rng(12345)
DEMANDS = RNG.uniform(1_000.0, 15_000.0, 50_000)
TIMESTAMPS = np.cumsum(RNG.exponential(25e-6, 50_000))


def test_bench_workload_curve_extraction(benchmark):
    grid = make_k_grid(DEMANDS.size, dense_limit=1024, growth=1.05)
    curve = benchmark(
        WorkloadCurve.from_demand_array, DEMANDS, "upper", k_values=grid
    )
    assert curve.horizon == DEMANDS.size


def test_bench_pseudo_inverse(benchmark):
    curve = WorkloadCurve.from_demand_array(DEMANDS[:10_000], "upper")
    budgets = np.linspace(0.0, float(curve(curve.horizon)) * 2, 10_000)

    out = benchmark(curve.pseudo_inverse, budgets)
    assert out.shape == budgets.shape


def test_bench_arrival_curve_extraction(benchmark):
    grid = make_k_grid(TIMESTAMPS.size, dense_limit=1024, growth=1.05)
    alpha = benchmark(from_trace_upper, TIMESTAMPS, n_values=grid)
    assert alpha.final_slope > 0


def test_bench_minplus_convolve(benchmark):
    f = leaky_bucket(50.0, 3.0)
    g = rate_latency(8.0, 2.0)
    result = benchmark(convolve, f, g)
    assert result.final_slope == pytest.approx(3.0)


def test_bench_minplus_deconvolve(benchmark):
    f = leaky_bucket(50.0, 3.0)
    g = rate_latency(8.0, 2.0)
    result = benchmark(deconvolve, f, g)
    assert result.final_slope == pytest.approx(3.0)


def test_bench_pipeline_replay(benchmark):
    freq = DEMANDS.mean() / 25e-6 * 1.2
    result = benchmark(replay_pipeline, TIMESTAMPS, DEMANDS, freq)
    assert result.max_backlog >= 1


def _sweep_pairs():
    """A design-space-sweep workload: a handful of distinct curve pairs,
    each re-convolved many times (as a buffer/frequency sweep does)."""
    pairs = []
    for i in range(8):
        alpha = periodic_upper(1.0 + 0.25 * i, jitter=0.4 * i, horizon_periods=24)
        beta = rate_latency(30.0 + 2.0 * i, 0.5 + 0.1 * i)
        pairs.append((alpha, beta))
    return pairs


def _run_sweep(pairs, repeats):
    total = 0.0
    for _ in range(repeats):
        for f, g in pairs:
            total += convolve(f, g)(5.0)
    return total


def test_bench_convolve_sweep_cached(benchmark):
    pairs = _sweep_pairs()
    perf.reset()
    perf.configure(enabled=True)
    total = benchmark(_run_sweep, pairs, 25)
    assert total > 0


def test_bench_convolve_sweep_uncached(benchmark):
    pairs = _sweep_pairs()
    perf.configure(enabled=False)
    try:
        total = benchmark(_run_sweep, pairs, 25)
    finally:
        perf.configure(enabled=True)
    assert total > 0


def test_cache_speedup_on_sweep_workload():
    """Acceptance gate: the memo cache yields >= 3x on repeated-convolution
    sweeps.  Runs as a plain test (no --benchmark-only needed) and dumps the
    sweep timings to BENCH_kernels.json.
    """
    pairs = _sweep_pairs()
    repeats = 25

    perf.reset()
    perf.configure(enabled=False)
    t0 = time.perf_counter()
    baseline_total = _run_sweep(pairs, repeats)
    cold_seconds = time.perf_counter() - t0

    perf.reset()
    perf.configure(enabled=True)
    t0 = time.perf_counter()
    cached_total = _run_sweep(pairs, repeats)
    warm_seconds = time.perf_counter() - t0

    assert cached_total == baseline_total  # cache must not change results
    stats = perf.cache_stats()
    assert stats["misses"] == len(pairs)
    assert stats["hits"] == len(pairs) * (repeats - 1)

    speedup = cold_seconds / warm_seconds
    report = {
        "sweep": {
            "pairs": len(pairs),
            "repeats": repeats,
            "uncached_seconds": cold_seconds,
            "cached_seconds": warm_seconds,
            "speedup": speedup,
        },
    }
    out = Path(__file__).parent / "BENCH_kernels.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    assert speedup >= 3.0, f"cache speedup {speedup:.1f}x below the 3x gate"


def test_bench_scheduler_simulation(benchmark):
    from repro.scheduling import PeriodicTask, TaskSet, simulate

    tasks = TaskSet(
        [
            PeriodicTask("t1", 4.0, 1.0),
            PeriodicTask("t2", 5.0, 1.5),
            PeriodicTask("t3", 10.0, 2.0),
            PeriodicTask("t4", 20.0, 2.0),
        ]
    )
    result = benchmark(simulate, tasks, 2000.0)
    assert result.deadline_misses() == 0
