"""Tests for the process-pool runner: fan-out, retry, timeout, seeding,
observability merging, and the serial fallback.

The worker functions live at module level (workers unpickle them by
reference) and coordinate cross-process behaviour through marker files,
because worker memory is not shared with the test process.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.obs.metrics import registry
from repro.obs.tracing import tracer
from repro.runner import RunnerError, TaskResult, derive_seed, run_many, sweep
from repro.runner.tasks import sleep_task

WORKERS = 2


def square(x: int) -> int:
    """Trivial worker: square the item."""
    return x * x


def failing(x: int) -> int:
    """Worker that always raises."""
    raise ValueError(f"bad item {x}")


def flaky_once(marker_dir: str) -> str:
    """Worker that fails the first time it runs (per marker directory) and
    succeeds on every retry — cross-process state via a marker file."""
    marker = Path(marker_dir) / "attempted"
    try:
        marker.touch(exist_ok=False)
    except FileExistsError:
        return "recovered"
    raise RuntimeError("flaky first attempt")


def slow_then_value(pair: tuple[float, int]) -> int:
    """Worker sleeping ``pair[0]`` seconds before returning ``pair[1]``."""
    seconds, value = pair
    time.sleep(seconds)
    return value


def global_random_draw(_: object) -> float:
    """Worker returning a draw from the *global* RNG — only deterministic
    if the runner reseeds per task."""
    import random

    return random.random()


class TestSerial:
    def test_results_in_item_order(self):
        results = run_many(square, [3, 1, 2], max_workers=1)
        assert [r.value for r in results] == [9, 1, 4]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_empty_items(self):
        assert run_many(square, [], max_workers=4) == []

    def test_failure_captured_not_raised(self):
        results = run_many(failing, [7], max_workers=1)
        assert not results[0].ok
        assert results[0].error_type == "ValueError"
        assert "bad item 7" in results[0].error

    def test_unwrap_raises_runner_error(self):
        result = run_many(failing, [7], max_workers=1)[0]
        with pytest.raises(RunnerError, match="bad item 7"):
            result.unwrap()

    def test_retry_recovers_flaky_task(self, tmp_path):
        results = run_many(
            flaky_once, [str(tmp_path)], max_workers=1, retries=2, backoff_s=0.01
        )
        assert results[0].ok
        assert results[0].value == "recovered"
        assert results[0].attempts == 2

    def test_retries_exhausted(self):
        results = run_many(failing, [1], max_workers=1, retries=2, backoff_s=0.01)
        assert not results[0].ok
        assert results[0].attempts == 3

    def test_timeout_enforced_in_serial_path(self):
        results = run_many(
            slow_then_value, [(5.0, 1), (0.0, 2)], max_workers=1, timeout_s=0.2
        )
        assert not results[0].ok
        assert results[0].error_type == "TaskTimeout"
        assert results[1].ok and results[1].value == 2


class TestParallel:
    def test_results_in_item_order(self):
        results = run_many(square, list(range(10)), max_workers=WORKERS)
        assert [r.value for r in results] == [i * i for i in range(10)]
        assert all(r.ok for r in results)
        assert {r.worker for r in results} - {os.getpid()}, (
            "work must run in child processes"
        )

    def test_mixed_success_and_failure(self):
        def is_even_ok(r: TaskResult) -> bool:
            return r.ok == (r.index % 2 == 0)

        results = run_many(parity_picky, list(range(6)), max_workers=WORKERS)
        assert all(is_even_ok(r) for r in results)

    def test_retry_recovers_flaky_task(self, tmp_path):
        results = run_many(
            flaky_once,
            [str(tmp_path)],
            max_workers=WORKERS,
            retries=2,
            backoff_s=0.01,
        )
        assert results[0].ok and results[0].value == "recovered"
        assert results[0].attempts == 2

    def test_timeout_kills_only_the_slow_task(self):
        items = [(3.0, 0)] + [(0.0, i) for i in range(1, 6)]
        t0 = time.perf_counter()
        results = run_many(
            slow_then_value, items, max_workers=WORKERS, timeout_s=0.3, chunk_size=1
        )
        wall = time.perf_counter() - t0
        assert not results[0].ok
        assert results[0].error_type == "TaskTimeout"
        assert [r.value for r in results[1:]] == [1, 2, 3, 4, 5]
        assert wall < 3.0, "the slow task must be interrupted, not awaited"

    def test_timeout_then_retry_counts_attempts(self):
        results = run_many(
            slow_then_value,
            [(3.0, 0)],
            max_workers=WORKERS,
            timeout_s=0.2,
            retries=1,
            backoff_s=0.01,
        )
        assert not results[0].ok
        assert results[0].attempts == 2

    def test_chunking_covers_all_items(self):
        results = run_many(square, list(range(23)), max_workers=WORKERS, chunk_size=4)
        assert [r.value for r in results] == [i * i for i in range(23)]

    def test_metrics_merged_under_worker_origin(self):
        registry.reset()
        results = run_many(square, list(range(4)), max_workers=WORKERS)
        assert all(r.ok for r in results)
        completed = registry.counter("runner.tasks.completed").value
        assert completed == 4

    def test_inherited_series_do_not_come_back_as_zeros(self):
        # the forked workers inherit these (and the parent's runner.workers)
        # and zero them; a chunk that never set them must not merge them
        registry.gauge("test.inherited").set(3)
        registry.histogram("test.inherited_s").observe(0.5)
        before = _zero_worker_series()
        run_many(square, list(range(4)), max_workers=WORKERS)
        run_many(square, list(range(4)), max_workers=WORKERS)
        assert _zero_worker_series() <= before
        merged = {
            e["name"]
            for kind in ("gauges", "histograms")
            for e in registry.snapshot()[kind]
            if e["labels"].get("origin") == "worker"
        }
        assert not merged & {"test.inherited", "test.inherited_s"}

    def test_trace_records_merged_and_well_formed(self):
        tracer.enable()
        tracer.reset()
        try:
            with tracer.span("test-root"):
                run_many(traced_square, [1, 2], max_workers=WORKERS)
            records = tracer.records()
        finally:
            tracer.disable()
        names = [r["name"] for r in records]
        assert "runner.run_many" in names
        assert names.count("worker-span") == 2
        ids = {r["id"] for r in records}
        assert len(ids) == len(records), "ingested ids must not collide"
        for r in records:
            assert r["parent"] is None or r["parent"] in ids
            assert r["ts"] >= 0 and r["dur"] >= 0
        worker_spans = [r for r in records if r["name"] == "worker-span"]
        assert all("worker_pid" in r["attrs"] for r in worker_spans)


def _zero_worker_series() -> set[tuple[str, str]]:
    """The zero gauges and empty histograms merged from workers."""
    snapshot = registry.snapshot()
    return {
        (e["name"], repr(sorted(e["labels"].items())))
        for kind, field in (("gauges", "value"), ("histograms", "count"))
        for e in snapshot[kind]
        if e["labels"].get("origin") == "worker" and not e[field]
    }


class TestSeeding:
    def test_derive_seed_is_stable_and_spread(self):
        assert derive_seed(None, 3) is None
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(7, 3) != derive_seed(8, 3)

    def test_serial_and_parallel_draws_identical(self):
        serial = run_many(global_random_draw, [None] * 6, max_workers=1, seed=42)
        parallel = run_many(
            global_random_draw, [None] * 6, max_workers=WORKERS, seed=42, chunk_size=2
        )
        assert [r.value for r in serial] == [r.value for r in parallel]

    def test_different_tasks_draw_differently(self):
        results = run_many(global_random_draw, [None] * 4, max_workers=1, seed=42)
        values = [r.value for r in results]
        assert len(set(values)) == len(values)


class TestSweep:
    def test_grid_expansion_order(self):
        swept = sweep(
            grid_point,
            {"a": [1, 2], "b": [10, 20]},
            fixed={"c": 5},
            max_workers=1,
        )
        assert swept.points == [
            {"c": 5, "a": 1, "b": 10},
            {"c": 5, "a": 1, "b": 20},
            {"c": 5, "a": 2, "b": 10},
            {"c": 5, "a": 2, "b": 20},
        ]
        assert swept.values() == [16, 26, 17, 27]
        assert swept.ok

    def test_parallel_sweep_matches_serial(self):
        serial = sweep(grid_point, {"a": [1, 2, 3], "b": [4]}, max_workers=1)
        parallel = sweep(grid_point, {"a": [1, 2, 3], "b": [4]}, max_workers=WORKERS)
        assert serial.values() == parallel.values()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis 'a' is empty"):
            sweep(grid_point, {"a": []})


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_many(square, [1], retries=-1)

    def test_sleep_task_returns_duration(self):
        assert sleep_task(0.0) == 0.0


def parity_picky(x: int) -> int:
    """Worker accepting even items only."""
    if x % 2:
        raise ValueError(f"odd item {x}")
    return x


def traced_square(x: int) -> int:
    """Worker opening its own span (workers trace into their own tracer)."""
    with tracer.span("worker-span", item=x):
        return x * x


def grid_point(*, a: int = 0, b: int = 0, c: int = 0) -> int:
    """Sweep-point worker combining its grid parameters."""
    return a + b + c
