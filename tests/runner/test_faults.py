"""Fault injection for the runner, and the retry rule it shares with the
analysis service.

Faults: a worker SIGKILLed in the middle of a task, and a task over its
time budget on the in-process path.  Retry rule: a ``ValidationError``
is a deterministic input error and is never retried, any other
exception uses every retry.  Workers coordinate through marker files
(worker memory is not shared with the test process), and a task never
kills the test process itself.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

from repro.obs.metrics import registry
from repro.runner import run_many
from repro.util.validation import ValidationError

WORKERS = 2


def kill_once(item: tuple[str | None, int, int]) -> int:
    """Return ``item[2]``; with a marker directory ``item[0]``, first
    SIGKILL the worker running it, once per directory — unless the
    worker is the test process ``item[1]``."""
    marker_dir, test_pid, value = item
    if marker_dir is not None and os.getpid() != test_pid:
        try:
            (Path(marker_dir) / "killed").touch(exist_ok=False)
        except FileExistsError:
            return value
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def invalid(x: int) -> int:
    """Worker rejecting its input."""
    raise ValidationError(f"invalid item {x}")


def failing(x: int) -> int:
    """Worker that always raises a retryable error."""
    raise ValueError(f"bad item {x}")


def sleep_for(seconds: float) -> float:
    """Worker sleeping *seconds*."""
    time.sleep(seconds)
    return seconds


class TestKilledWorker:
    def test_killed_worker_is_replaced_and_its_task_retried(self, tmp_path):
        registry.reset()
        items = [(None, os.getpid(), i) for i in range(6)]
        items[2] = (str(tmp_path), os.getpid(), 2)
        results = run_many(
            kill_once, items, max_workers=WORKERS, retries=1, backoff_s=0.01
        )
        assert [r.index for r in results] == list(range(6))
        assert all(r.ok for r in results), [r.error for r in results]
        assert [r.value for r in results] == list(range(6))
        assert results[2].attempts == 2
        assert all(r.attempts in (1, 2) for r in results)
        assert registry.counter("runner.pool_restarts").value >= 1
        # every item reached exactly one terminal state
        assert registry.counter("runner.tasks.completed").value == 6
        assert registry.counter("runner.tasks.failed").value == 0


class TestRetryRule:
    @pytest.mark.parametrize("max_workers", [1, WORKERS])
    def test_validation_error_is_not_retried(self, max_workers):
        results = run_many(
            invalid, [1, 2], max_workers=max_workers, retries=2, backoff_s=0.01
        )
        assert [r.error_type for r in results] == ["ValidationError"] * 2
        assert [r.attempts for r in results] == [1, 1]

    @pytest.mark.parametrize("max_workers", [1, WORKERS])
    def test_other_errors_use_every_retry(self, max_workers):
        results = run_many(
            failing, [1, 2], max_workers=max_workers, retries=2, backoff_s=0.01
        )
        assert [r.error_type for r in results] == ["ValueError"] * 2
        assert [r.attempts for r in results] == [3, 3]

    def test_serial_timeout_is_counted(self):
        registry.reset()
        results = run_many(sleep_for, [5.0, 0.0], max_workers=1, timeout_s=0.2)
        assert results[0].error_type == "TaskTimeout"
        assert results[1].ok
        assert registry.counter("runner.tasks.timeouts").value == 1
