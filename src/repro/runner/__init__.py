"""repro.runner — parallel task execution with a persistent cache.

The fan-out layer on top of everything else (see ``docs/architecture.md``):

* :mod:`repro.runner.pool` — :func:`run_many` / :func:`sweep` over a
  ``ProcessPoolExecutor`` with chunked distribution, per-task timeouts,
  bounded retry with backoff, deterministic per-task seeding, and a
  serial fallback; workers report spans/metrics into their own collectors
  and the parent merges them, so tracing and metrics export keep working
  under parallelism;
* :mod:`repro.runner.tasks` — the stock picklable task functions (one
  frequency/backlog sweep point, one open-system scenario, benchmark
  workloads).

Combined with the persistent kernel cache
(:mod:`repro.perf.diskcache`, attached via ``cache_dir=``), warm sweeps
skip the expensive min-plus convolutions entirely — across workers *and*
across runs.

Quick use::

    from repro import runner
    from repro.runner import tasks

    swept = runner.sweep(
        tasks.frequency_backlog_point,
        {"buffer_size": [810, 1620, 3240]},
        fixed={"frames": 24},
        max_workers=4,
        cache_dir=".repro-cache",
    )
    results = runner.run_many(tasks.sleep_task, [0.1, 0.2], max_workers=2)
"""

from __future__ import annotations

from repro.runner.pool import (
    RunnerError,
    SweepResult,
    TaskResult,
    TaskTimeout,
    derive_seed,
    run_many,
    sweep,
)

__all__ = [
    "RunnerError",
    "SweepResult",
    "TaskResult",
    "TaskTimeout",
    "derive_seed",
    "run_many",
    "sweep",
]
