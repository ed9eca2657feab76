"""Benchmark gates for the parallel runner and the kernel cache.

Three acceptance gates, all written to ``BENCH_runner.json``:

* **fan-out speedup** — a 4-worker :func:`repro.runner.run_many` sweep of
  latency-bound tasks must finish at least 2x faster than the serial run.
  The tasks block rather than burn CPU, so the gate measures what the
  pool controls — chunking, dispatch, and result collection overhead —
  and holds even on a single-core CI machine.
* **warm cache beats cold** — a convolution sweep against a fresh disk
  cache (cold: every kernel computes and writes through) must be slower
  than the rerun after the in-memory cache is dropped (warm: every
  kernel loads from disk), proving a persisted cache outlives the
  process-local memo table.
* **sweep validation** — 12 ``sim_validate`` sweep points on one seed
  (6 FIFO sizes x bisect on/off, 4096-item validation trace, low-fidelity
  context) with the memo on must run at least 2x faster than with it
  off, with identical point data: the points share one validation trace,
  so with the memo it is generated and characterized once (one miss and
  11 hits of the ``sim.validate.trace`` op).
"""

import json
import time
from pathlib import Path

import repro.perf as perf
from repro.runner import run_many
from repro.runner.tasks import convolution_workload, frequency_backlog_point, sleep_task

BENCH_PATH = Path(__file__).parent / "BENCH_runner.json"

#: Fan-out shape of the speedup gate: 8 tasks x 150 ms.
TASKS = 8
TASK_SECONDS = 0.15
WORKERS = 4

#: Sweep-validation gate: the FIFO sizes of the benchmark's design sweep,
#: each with and without bisection, on one validation seed.
SWEEP_BUFFERS = (405, 810, 1215, 1620, 2025, 2430)
SWEEP_POINT = {
    "frames": 12,
    "dense_limit": 512,
    "growth": 1.05,
    "sim_validate": True,
    "sim_items": 4096,
    "sim_seed": 0,
}


def _merge_report(section: str, payload: dict) -> None:
    report = {}
    if BENCH_PATH.exists():
        report = json.loads(BENCH_PATH.read_text())
    report[section] = payload
    BENCH_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def test_runner_parallel_speedup_and_warm_cache(tmp_path):
    """Acceptance gate: >= 2x fan-out speedup and a warm-cache win."""
    # -- gate 1: 4-worker fan-out vs serial --------------------------------
    items = [TASK_SECONDS] * TASKS

    t0 = time.perf_counter()
    serial = run_many(sleep_task, items, max_workers=1)
    serial_seconds = time.perf_counter() - t0
    assert all(r.ok for r in serial)

    t0 = time.perf_counter()
    parallel = run_many(sleep_task, items, max_workers=WORKERS)
    parallel_seconds = time.perf_counter() - t0
    assert all(r.ok for r in parallel)
    assert [r.value for r in parallel] == [r.value for r in serial]

    speedup = serial_seconds / parallel_seconds

    # -- gate 2: cold disk cache vs warm rerun -----------------------------
    spec = (10, 3)  # 10 distinct convolutions, re-requested 3 times
    cache_dir = tmp_path / "kernel-cache"

    perf.reset()
    perf.configure(disk_dir=cache_dir)
    try:
        t0 = time.perf_counter()
        cold_total = convolution_workload(spec)
        cold_seconds = time.perf_counter() - t0
        cold_stats = perf.cache_stats()["disk"]

        perf.clear_cache()  # drop the in-memory level, keep the disk level
        t0 = time.perf_counter()
        warm_total = convolution_workload(spec)
        warm_seconds = time.perf_counter() - t0
        warm_stats = perf.cache_stats()["disk"]
    finally:
        perf.configure(disk_dir=False)

    assert warm_total == cold_total  # the disk level must not change results
    assert cold_stats["writes"] == spec[0]
    assert warm_stats["hits"] >= cold_stats["hits"] + spec[0]

    warm_speedup = cold_seconds / warm_seconds
    _merge_report(
        "fan_out",
        {
            "tasks": TASKS,
            "task_seconds": TASK_SECONDS,
            "workers": WORKERS,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": speedup,
        },
    )
    _merge_report(
        "disk_cache",
        {
            "distinct_kernels": spec[0],
            "repeats": spec[1],
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_speedup": warm_speedup,
            "cold": cold_stats,
            "warm": warm_stats,
        },
    )

    assert speedup >= 2.0, f"fan-out speedup {speedup:.1f}x below the 2x gate"
    assert warm_speedup > 1.0, (
        f"warm cache ({warm_seconds:.3f}s) did not beat cold ({cold_seconds:.3f}s)"
    )


def _sweep_validation_points() -> tuple[float, list[dict]]:
    """Seconds and point data of the 12 sweep-validation points."""
    t0 = time.perf_counter()
    data = [
        frequency_backlog_point(buffer_size=b, bisect=bisect, **SWEEP_POINT).data
        for b in SWEEP_BUFFERS
        for bisect in (False, True)
    ]
    return time.perf_counter() - t0, data


def test_sweep_validation_memo_speedup():
    """Acceptance gate: same-seed sweep-validation points run >= 2x faster
    with the memo than without it, with identical data."""
    frequency_backlog_point(buffer_size=SWEEP_BUFFERS[0], **SWEEP_POINT)  # warm the context
    perf.reset()
    on_seconds, on_data = _sweep_validation_points()
    trace_memo = perf.cache_stats()["per_op"]["sim.validate.trace"]
    perf.configure(enabled=False)
    try:
        off_seconds, off_data = _sweep_validation_points()
    finally:
        perf.configure(enabled=True)

    assert on_data == off_data  # the memo must not change a point
    points = len(on_data)
    speedup = off_seconds / on_seconds
    _merge_report(
        "sweep_validation",
        {
            "points": points,
            "sim_items": SWEEP_POINT["sim_items"],
            "memo_on_ms_per_point": on_seconds / points * 1e3,
            "memo_off_ms_per_point": off_seconds / points * 1e3,
            "speedup": speedup,
            "trace_hits": trace_memo["hits"],
            "trace_misses": trace_memo["misses"],
        },
    )
    assert trace_memo == {"hits": points - 1, "misses": 1}
    assert speedup >= 2.0, f"sweep validation {speedup:.2f}x below the 2x gate"
