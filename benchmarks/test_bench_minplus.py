"""Acceptance gates for the structure-aware min-plus layer.

Load-bearing properties gated in CI:

* the convex ⊗ convex slope-merge fast path must beat the generic
  per-interval envelope kernel by >= 10x on large (>= 200-segment)
  operands — that is the regime where design-space sweeps spend their
  time, and a dispatch regression would silently fall back to the
  O(n·m) kernel;
* the streaming workload extraction must process a million-event demand
  trace in bounded memory — a small multiple of the chunk size, not of
  the trace — while returning bit-identical envelopes to the one-shot
  kernel;
* the blocked streaming fold must extract the workload envelopes of 16
  analysis-service payloads (2,048 integer demands each, three weighted
  client classes with 5 % long tasks, one chunk per payload as the
  daemon's ``curve`` op folds them) >= 2x faster than the per-length
  fold (``repro.reference.streaming_envelope_brute``), bit for bit;
* the pruned window kernel must extract one 72-frame case-study clip's
  workload envelopes and minimal window lengths on the context grid
  (dense to 4096, growth 1.015) >= 1.5x faster each than the per-length
  loop it replaced, which the gate keeps as its reference, bit for bit;
* the upper workload curve alone (``cumulative_envelope_max``) must
  extract the 12 open-system trace families (model x long-task fraction
  x demand spread, 16,384 items each) >= 1.3x faster than the two-sided
  kernel, whose maximum side it must equal byte for byte;
* the production generic kernel (the SoA kernel behind ``convolve``)
  must beat the numpy oracle (``convolve_generic``) by >= 5x on a
  200-segment *general* pair (no fast path applies) and by >= 2.5x when
  ``convolve_many`` runs 32 distinct general pairs, with
  envelope-identical results.  The report records which kernel
  (``backend``) produced the numbers.

All gates run as plain tests (no ``--benchmark-only`` needed) and merge
their measurements into ``benchmarks/BENCH_minplus.json``.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro.perf as perf
from repro.curves.arrival import minimal_window_lengths
from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import convolve, convolve_generic
from repro.mpeg.clips import standard_clips
from repro.obs.metrics import registry
from repro.perf.batch import convolve_many
from repro.reference import streaming_envelope_brute
from repro.simulation import ClientProfile, WorkloadSpec, scenario_grid
from repro.util.staircase import (
    cumulative_envelope_max,
    cumulative_envelope_minmax,
    make_k_grid,
    streaming_envelope_minmax,
)

BENCH_PATH = Path(__file__).parent / "BENCH_minplus.json"

SEGMENTS = 200
STREAM_EVENTS = 1_000_000
STREAM_CHUNK = 8_192


def _merge_report(section: str, payload: dict) -> None:
    report = {}
    if BENCH_PATH.exists():
        report = json.loads(BENCH_PATH.read_text())
    report[section] = payload
    BENCH_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _random_convex(rng: np.random.Generator, n: int) -> PiecewiseLinearCurve:
    gaps = rng.uniform(0.5, 2.0, n - 1)
    xs = np.concatenate(([0.0], np.cumsum(gaps)))
    ss = np.sort(rng.uniform(0.1, 10.0, n))
    ys = np.cumsum(np.concatenate(([0.0], np.diff(xs) * ss[:-1])))
    return PiecewiseLinearCurve(xs, ys, ss)


def _stream_chunks():
    rng = np.random.default_rng(42)
    for start in range(0, STREAM_EVENTS, STREAM_CHUNK):
        yield rng.uniform(1e3, 1.5e4, min(STREAM_CHUNK, STREAM_EVENTS - start))


def test_convex_fast_path_speedup_gate():
    """The slope merge must be >= 10x faster than the generic kernel on
    200-segment convex operands, with pointwise-identical results."""
    rng = np.random.default_rng(12345)
    f = _random_convex(rng, SEGMENTS)
    g = _random_convex(rng, SEGMENTS)
    assert f.is_convex and g.is_convex

    perf.configure(enabled=False)  # time the kernels, not the memo cache
    try:
        t0 = time.perf_counter()
        oracle = convolve_generic(f, g)
        generic_seconds = time.perf_counter() - t0

        fast_seconds = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            fast = convolve(f, g)
            fast_seconds = min(fast_seconds, time.perf_counter() - t0)
    finally:
        perf.configure(enabled=True)

    pts = np.linspace(0.0, float(fast.breakpoints[-1]) * 1.5, 4_096)
    np.testing.assert_allclose(fast(pts), oracle(pts), rtol=1e-12, atol=1e-12)
    assert fast.is_convex

    speedup = generic_seconds / fast_seconds
    _merge_report(
        "convex_convolve",
        {
            "segments": SEGMENTS,
            "generic_seconds": generic_seconds,
            "fast_seconds": fast_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 10.0, f"convex fast path {speedup:.1f}x below the 10x gate"


def test_streaming_extraction_bounded_memory_gate():
    """A 1M-event trace must stream through the extraction fold with peak
    memory a fraction of the materialized trace, bit-identically."""
    ks = make_k_grid(4_096, dense_limit=256, growth=1.1)
    trace_bytes = STREAM_EVENTS * 8

    tracemalloc.start()
    t0 = time.perf_counter()
    lo, hi = streaming_envelope_minmax(_stream_chunks(), ks, total=STREAM_EVENTS)
    stream_seconds = time.perf_counter() - t0
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    full = np.concatenate(list(_stream_chunks()))
    lo1, hi1 = cumulative_envelope_minmax(full, ks)
    assert np.array_equal(lo, lo1)
    assert np.array_equal(hi, hi1)

    _merge_report(
        "streaming_extraction",
        {
            "events": STREAM_EVENTS,
            "chunk": STREAM_CHUNK,
            "k_grid": int(ks.size),
            "k_max": int(ks[-1]),
            "seconds": stream_seconds,
            "peak_bytes": peak_bytes,
            "trace_bytes": trace_bytes,
        },
    )
    assert peak_bytes < trace_bytes / 4, (
        f"streaming peak {peak_bytes / 1e6:.2f} MB is not bounded well below "
        f"the {trace_bytes / 1e6:.0f} MB materialized trace"
    )


def _loop_envelope(demands: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-length loop the window kernel replaced."""
    csum = np.concatenate(([0.0], np.cumsum(demands)))
    lo = np.empty(ks.size)
    hi = np.empty(ks.size)
    for i, k in enumerate(ks):
        diffs = csum[k:] - csum[:-k]
        lo[i] = diffs.min()
        hi[i] = diffs.max()
    return lo, hi


def _loop_min_windows(ts: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """The per-count loop ``minimal_window_lengths`` replaced."""
    return np.array([float(np.min(ts[n - 1 :] - ts[: ts.size - n + 1])) for n in ns])


def _best_of(runs: int, fn):
    best, result = np.inf, None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _service_payloads() -> list[np.ndarray]:
    """16 demand arrays shaped like the analysis service's ``curve``
    requests: 2,048 integer demands from three weighted client classes
    with 5 % long tasks."""
    spec = WorkloadSpec(
        items=2_048,
        demand_mean=2000.0,
        demand_spread=0.3,
        long_task_fraction=0.05,
        clients=(
            ClientProfile("light", 5.0, 0.5),
            ClientProfile("medium", 3.0, 1.0),
            ClientProfile("heavy", 1.0, 3.0),
        ),
    )
    return [np.maximum(np.rint(spec.generate(seed).demands[0]), 1.0) for seed in range(16)]


def _stream_lengths(path: str) -> int:
    return registry.counter("staircase.stream_lengths", path=path).value


def test_streaming_fold_speedup_gate():
    """The blocked streaming fold must extract the envelopes of 16
    service payloads >= 2x faster than the per-length fold, bit for bit."""
    payloads = _service_payloads()
    ks = make_k_grid(payloads[0].size)  # the grid the `curve` op folds over

    brute_s, expected = _best_of(
        3, lambda: [streaming_envelope_brute([p], ks) for p in payloads]
    )
    blocked_before = _stream_lengths("blocked")
    lengths_before = sum(_stream_lengths(p) for p in ("blocked", "single", "repass"))
    fold_s, got = _best_of(3, lambda: [streaming_envelope_minmax([p], ks) for p in payloads])
    blocked = _stream_lengths("blocked") - blocked_before
    lengths = sum(_stream_lengths(p) for p in ("blocked", "single", "repass")) - lengths_before

    for (lo, hi), (lo0, hi0) in zip(got, expected):
        assert lo.tobytes() == lo0.tobytes() and hi.tobytes() == hi0.tobytes()
    speedup = brute_s / fold_s
    _merge_report(
        "streaming_fold",
        {
            "payloads": len(payloads),
            "events": int(payloads[0].size),
            "lengths": int(ks.size),
            "brute_ms_per_payload": brute_s / len(payloads) * 1e3,
            "fold_ms_per_payload": fold_s / len(payloads) * 1e3,
            "speedup": speedup,
            "blocked_share": blocked / lengths,
        },
    )
    assert speedup >= 2.0, f"streaming fold {speedup:.2f}x below the 2x gate"


def _window_lengths(path: str) -> int:
    return sum(
        registry.counter("staircase.window_lengths", op=op, path=path).value
        for op in ("envelope_minmax", "min_window")
    )


def test_window_pruning_speedup_gate():
    """The pruned window kernel must beat the per-length loop >= 1.5x on
    the envelope and on the minimal window lengths of one 72-frame clip
    on the case-study grid, with bit-identical results."""
    data = standard_clips(frames=72)[0].generate()
    demands, ts = data.pe2_cycles, data.pe1_output
    ks = make_k_grid(demands.size, dense_limit=4_096, growth=1.015)
    ns = make_k_grid(ts.size, dense_limit=4_096, growth=1.015)

    loop_env_s, (lo0, hi0) = _best_of(2, lambda: _loop_envelope(demands, ks))
    loop_arr_s, d0 = _best_of(2, lambda: _loop_min_windows(ts, ns))
    pruned_before = _window_lengths("pruned")
    lengths_before = sum(_window_lengths(p) for p in ("anchor", "pruned", "fallback"))
    perf.configure(enabled=False)  # time the kernels, not the memo cache
    try:
        env_s, (lo, hi) = _best_of(2, lambda: cumulative_envelope_minmax(demands, ks))
        arr_s, (_, d) = _best_of(2, lambda: minimal_window_lengths(ts, ns))
    finally:
        perf.configure(enabled=True)
    pruned = _window_lengths("pruned") - pruned_before
    lengths = sum(_window_lengths(p) for p in ("anchor", "pruned", "fallback")) - lengths_before

    assert lo.tobytes() == lo0.tobytes() and hi.tobytes() == hi0.tobytes()
    assert d.tobytes() == d0.tobytes()
    envelope_speedup = loop_env_s / env_s
    arrival_speedup = loop_arr_s / arr_s
    _merge_report(
        "window_pruning",
        {
            "events": int(demands.size),
            "lengths": int(ks.size),
            "envelope_loop_seconds": loop_env_s,
            "envelope_seconds": env_s,
            "envelope_speedup": envelope_speedup,
            "arrival_loop_seconds": loop_arr_s,
            "arrival_seconds": arr_s,
            "arrival_speedup": arrival_speedup,
            "pruned_share": pruned / lengths,
        },
    )
    assert envelope_speedup >= 1.5, f"envelope {envelope_speedup:.2f}x below the 1.5x gate"
    assert arrival_speedup >= 1.5, f"window lengths {arrival_speedup:.2f}x below the 1.5x gate"


#: The open-system trace families: every axis of the ``open_system``
#: scenario grid but the per-stage demand scales.
OPEN_SYSTEM_AXES = {
    "model": ["poisson", "uniform"],
    "long_task_fraction": [0.0, 0.05],
    "demand_spread": [0.0, 0.3, 0.6],
}
OPEN_SYSTEM_ITEMS = 16_384


def _pruned_and_lengths(op: str) -> tuple[int, int]:
    """``(pruned, lengths)`` counted so far under window-kernel *op*."""
    paths = {
        path: registry.counter("staircase.window_lengths", op=op, path=path).value
        for path in ("anchor", "pruned", "fallback")
    }
    return paths["pruned"], sum(paths.values())


def test_one_sided_envelope_gate():
    """The upper workload curve alone must extract the 12 open-system
    trace families >= 1.3x faster than the two-sided kernel, whose
    maximum side it must equal byte for byte."""
    grid = scenario_grid(WorkloadSpec(items=OPEN_SYSTEM_ITEMS), OPEN_SYSTEM_AXES, base_seed=2004)
    traces = [spec.generate(seed).stage_demands(0) for spec, seed in grid]
    ks = make_k_grid(OPEN_SYSTEM_ITEMS)

    before = {op: _pruned_and_lengths(op) for op in ("envelope_minmax", "envelope_max")}
    perf.configure(enabled=False)  # time the kernels, not the memo cache
    try:
        pair_s, pairs = _best_of(3, lambda: [cumulative_envelope_minmax(d, ks) for d in traces])
        max_s, maxima = _best_of(3, lambda: [cumulative_envelope_max(d, ks) for d in traces])
    finally:
        perf.configure(enabled=True)
    shares = {}
    for op, (pruned0, lengths0) in before.items():
        pruned, lengths = _pruned_and_lengths(op)
        shares[op] = (pruned - pruned0) / (lengths - lengths0)

    for (_, hi), got in zip(pairs, maxima):
        assert got.tobytes() == hi.tobytes()
    speedup = pair_s / max_s
    _merge_report(
        "one_sided",
        {
            "traces": len(traces),
            "events": OPEN_SYSTEM_ITEMS,
            "lengths": int(ks.size),
            "pair_seconds": pair_s,
            "max_seconds": max_s,
            "speedup": speedup,
            "pair_pruned_share": shares["envelope_minmax"],
            "max_pruned_share": shares["envelope_max"],
        },
    )
    assert speedup >= 1.3, f"one-sided envelope {speedup:.2f}x below the 1.3x gate"


def _random_general(rng: np.random.Generator, n: int) -> PiecewiseLinearCurve:
    """A continuous *general* curve: random unsorted slopes, so neither
    convexity nor concavity holds and no closed-form fast path applies."""
    gaps = rng.uniform(0.5, 2.0, n - 1)
    xs = np.concatenate(([0.0], np.cumsum(gaps)))
    ss = rng.uniform(0.1, 10.0, n)
    ys = np.cumsum(np.concatenate(([0.0], np.diff(xs) * ss[:-1])))
    return PiecewiseLinearCurve(xs, ys, ss)


def test_general_backend_speedup_gate():
    """``convolve`` (the SoA kernel) must be >= 5x faster than the numpy
    oracle on one 200-segment general pair, envelope-identically."""
    rng = np.random.default_rng(20240808)
    f = _random_general(rng, SEGMENTS)
    g = _random_general(rng, SEGMENTS)
    assert not (f.is_convex or f.is_concave)
    assert not (g.is_convex or g.is_concave)

    perf.configure(enabled=False)  # time the kernels, not the memo cache
    try:
        t0 = time.perf_counter()
        oracle = convolve_generic(f, g)
        generic_seconds = time.perf_counter() - t0

        soa_seconds = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            out = convolve(f, g)
            soa_seconds = min(soa_seconds, time.perf_counter() - t0)
    finally:
        perf.configure(enabled=True)

    pts = np.linspace(0.0, float(oracle.breakpoints[-1]) * 1.5, 4_096)
    np.testing.assert_allclose(out(pts), oracle(pts), rtol=1e-12, atol=1e-12)

    speedup = generic_seconds / soa_seconds
    _merge_report(
        "general_backend",
        {
            "backend": "soa",
            "segments": SEGMENTS,
            "generic_seconds": generic_seconds,
            "backend_seconds": soa_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 5.0, f"soa kernel {speedup:.1f}x below the 5x gate"


def test_batched_convolve_many_gate():
    """``convolve_many`` on 32 distinct general pairs must be >= 2.5x
    faster than a loop of the numpy oracle over the same pairs."""
    rng = np.random.default_rng(99)
    pairs = [
        (_random_general(rng, 60), _random_general(rng, 60)) for _ in range(32)
    ]

    perf.configure(enabled=False)  # no memoization: every pair is distinct
    try:
        t0 = time.perf_counter()
        expected = [convolve_generic(f, g) for f, g in pairs]
        loop_seconds = time.perf_counter() - t0

        batch_seconds = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            got = convolve_many(pairs)
            batch_seconds = min(batch_seconds, time.perf_counter() - t0)
    finally:
        perf.configure(enabled=True)

    pts = np.linspace(0.0, 60.0, 257)
    for e, o in zip(expected, got):
        np.testing.assert_allclose(o(pts), e(pts), rtol=1e-12, atol=1e-12)

    speedup = loop_seconds / batch_seconds
    _merge_report(
        "batched_convolve_many",
        {
            "backend": "soa",
            "batch": len(pairs),
            "segments": 60,
            "loop_seconds": loop_seconds,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
        },
    )
    assert speedup >= 2.5, f"batched convolve_many {speedup:.1f}x below the 2.5x gate"


def test_bench_convex_convolve_fast(benchmark):
    rng = np.random.default_rng(7)
    f = _random_convex(rng, SEGMENTS)
    g = _random_convex(rng, SEGMENTS)
    perf.configure(enabled=False)
    try:
        result = benchmark(convolve, f, g)
    finally:
        perf.configure(enabled=True)
    assert result.is_convex


def test_bench_streaming_fold(benchmark):
    ks = make_k_grid(1_024, dense_limit=128, growth=1.1)
    rng = np.random.default_rng(3)
    chunks = [rng.uniform(1e3, 1.5e4, 4_096) for _ in range(16)]
    # a fresh iterator per round: the fold consumes its input
    lo, hi = benchmark(lambda: streaming_envelope_minmax(iter(chunks), ks))
    assert np.all(lo <= hi)
