"""Process-pool fan-out for experiments and parameter sweeps.

:func:`run_many` executes one function over many items on a
``concurrent.futures.ProcessPoolExecutor`` with

* **chunked distribution** — items are batched so each worker amortizes
  its per-chunk observability bookkeeping and any worker-local state
  (e.g. a case-study context) across several tasks;
* **per-task timeouts** — enforced *inside* the worker with a SIGALRM
  interval timer (the worker survives and moves on), with a generous
  parent-side deadline as a backstop against workers stuck in
  uninterruptible code;
* **bounded retry with backoff** — failed or timed-out items are
  resubmitted in waves up to ``retries`` times, with exponentially
  growing sleeps between waves (:func:`backoff_delay`); a
  :class:`~repro.util.validation.ValidationError` is a deterministic
  input error and is never retried;
* **graceful degradation** — ``max_workers=1`` or a pool that fails to
  start run the same waves in-process, with identical semantics and
  result shape;
* **observability merging** — each worker collects spans and metrics into
  its own process-local collectors; the parent ingests child trace records
  (id-remapped, re-parented, timeline-aligned) and folds child metrics
  into the local registry under an ``origin="worker"`` label, so
  ``--trace``/``--metrics-out`` keep working under parallelism;
* **deterministic seeding** — every task runs after a reseed of the
  ``random`` and ``numpy`` global generators with a seed derived from
  ``(base seed, task index)`` by the shared helper in
  :mod:`repro.util.seeding`, identically in the serial and parallel
  paths, so a 4-worker run is bit-identical to a serial one.

Every attempt, here and in the analysis service (:mod:`repro.service`),
runs through :func:`run_attempt`, and both build their worker pools with
:func:`process_pool`, so the two layers share one execution policy.

The function and items must be picklable (define task functions at module
level — see :mod:`repro.runner.tasks` for the stock ones).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.obs.metrics import registry
from repro.obs.tracing import tracer
from repro.util.seeding import derive_seed, reseed as _reseed
from repro.util.validation import ValidationError

__all__ = [
    "TaskResult",
    "SweepResult",
    "RunnerError",
    "TaskTimeout",
    "run_many",
    "sweep",
    "run_attempt",
    "failed_attempt",
    "backoff_delay",
    "process_pool",
    "derive_seed",
]

#: Parent-side backstop slack added on top of ``timeout_s`` per chunk item.
_BACKSTOP_SLACK_S = 30.0

#: Cap on a single retry backoff sleep.
_MAX_BACKOFF_S = 30.0


class RunnerError(RuntimeError):
    """Raised by :func:`unwrap`-style accessors when a task failed."""


class TaskTimeout(Exception):
    """Raised inside a worker when a task exceeds its time budget."""


@dataclass
class TaskResult:
    """Outcome of one item of a :func:`run_many` call.

    ``value`` is the function's return value on success; on failure it is
    ``None`` and ``error``/``error_type`` describe the last attempt.
    """

    index: int
    value: Any = None
    error: str | None = None
    error_type: str | None = None
    attempts: int = 0
    duration_s: float = 0.0
    worker: int | None = None

    @property
    def ok(self) -> bool:
        """True when the task finally succeeded."""
        return self.error is None

    def unwrap(self) -> Any:
        """The value, or :class:`RunnerError` if the task failed."""
        if not self.ok:
            raise RunnerError(
                f"task {self.index} failed after {self.attempts} attempt(s): "
                f"{self.error}"
            )
        return self.value


@dataclass
class SweepResult:
    """Outcome of a :func:`sweep` call: the grid, the expanded parameter
    points (cartesian order), and one :class:`TaskResult` per point."""

    grid: dict[str, list[Any]]
    points: list[dict[str, Any]] = field(default_factory=list)
    results: list[TaskResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every point succeeded."""
        return all(r.ok for r in self.results)

    def values(self) -> list[Any]:
        """All point values, raising :class:`RunnerError` on any failure."""
        return [r.unwrap() for r in self.results]


# ---------------------------------------------------------------------------
# one attempt, one backoff schedule, one pool factory
# ---------------------------------------------------------------------------

@contextmanager
def _alarm_guard(seconds: float | None):
    """Arm a SIGALRM interval timer that raises :class:`TaskTimeout`;
    degrades to no enforcement off the main thread or on platforms
    without SIGALRM."""
    if (
        seconds is None
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeout(f"task exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def failed_attempt(exc: BaseException, duration: float = 0.0) -> dict[str, Any]:
    """The outcome record of an attempt that raised *exc*; only a
    ``ValidationError`` (a deterministic input error) is not retryable."""
    return {
        "ok": False,
        "error": str(exc) or type(exc).__name__,
        "error_type": type(exc).__name__,
        "retryable": not isinstance(exc, ValidationError),
        "duration": duration,
    }


def run_attempt(
    fn: Callable[..., Any], args: tuple, seed: int | None, timeout_s: float | None
) -> dict[str, Any]:
    """Execute one attempt of ``fn(*args)`` in this process; the runner
    and the analysis service run every attempt through here.

    Reseeds the global RNGs with *seed* (None leaves them alone), calls
    ``fn(*args)`` under a SIGALRM budget of *timeout_s* (enforced on the
    main thread, where pool workers run it) and times the call.  Returns
    ``{"ok": True, "value", "duration"}`` or the :func:`failed_attempt`
    record of the exception (a blown budget is a ``TaskTimeout``).
    """
    _reseed(seed)
    t0 = time.perf_counter()
    try:
        with _alarm_guard(timeout_s):
            value = fn(*args)
    except Exception as exc:
        return failed_attempt(exc, time.perf_counter() - t0)
    return {"ok": True, "value": value, "duration": time.perf_counter() - t0}


def backoff_delay(base_s: float, retry: int) -> float:
    """Sleep before retry number *retry* (1-based): ``base_s * 2**(retry-1)``,
    capped at 30 s."""
    return min(base_s * 2 ** (retry - 1), _MAX_BACKOFF_S)


def process_pool(
    workers: int, cache_dir: str | None = None, shards: int | None = None
) -> ProcessPoolExecutor | None:
    """A pool of *workers* processes (``fork`` where the platform has it,
    ``spawn`` otherwise) that attach the disk cache at *cache_dir* with
    *shards* shards on start, so every worker shares warm kernel results
    through the filesystem; None when the pool cannot be built."""
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    try:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_start_worker,
            initargs=(cache_dir, shards),
        )
    except (OSError, ValueError):
        # e.g. no /dev/shm semaphores in a locked-down sandbox
        return None


def _start_worker(cache_dir: str | None, shards: int | None) -> None:
    """Initializer of a :func:`process_pool` worker.

    SIGTERM takes its default action again: a forked worker inherits the
    daemon's drain handler and the event loop's signal wakeup fd, so a
    SIGTERM sent to the worker (as a broken pool's clean-up does) would
    survive it and stop the daemon instead.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if cache_dir:
        from repro.perf.cache import attach_disk_cache

        attach_disk_cache(cache_dir, shards=shards)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _reset_child_collectors() -> None:
    """Zero the worker's metric state so each chunk snapshot is a delta."""
    from repro.perf.cache import kernel_cache

    registry.reset()
    kernel_cache.reset_counters()
    if kernel_cache.disk is not None:
        kernel_cache.disk.reset_counters()


def _run_chunk(
    fn: Callable[[Any], Any],
    tasks: list[tuple[int, Any, int | None]],
    timeout_s: float | None,
    collect_trace: bool,
) -> dict[str, Any]:
    """Execute one chunk of ``(index, item, seed)`` tasks in a worker.

    Returns per-item outcomes plus the worker's span records and a metrics
    snapshot covering exactly this chunk.
    """
    tracer.forget_thread()  # fork children inherit the parent's span stack
    if collect_trace:
        tracer.reset()
        tracer.enable()
    _reset_child_collectors()
    outcomes = [
        {"index": index, **run_attempt(fn, (item,), task_seed, timeout_s)}
        for index, item, task_seed in tasks
    ]
    payload = {
        "results": outcomes,
        "pid": os.getpid(),
        "metrics": registry.snapshot(),
        # include_open: a task cut short by a timeout still shows where its
        # time went — open spans flush marked ``unfinished: true``
        "trace": tracer.records(include_open=True) if collect_trace else [],
    }
    if collect_trace:
        tracer.disable()
    return payload


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def _merge_chunk_obs(payload: dict[str, Any], submitted_at: float) -> None:
    """Fold one chunk's trace records and metrics into the parent."""
    if payload["trace"]:
        tracer.ingest(
            payload["trace"],
            ts_offset=max(0.0, submitted_at),
            parent_id=tracer.current_span_id(),
            extra_attrs={"worker_pid": payload["pid"]},
        )
    try:
        registry.merge_snapshot(payload["metrics"], origin="worker")
    except ValueError:
        registry.counter("runner.metrics_merge_failures").inc()


def run_many(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    max_workers: int = 1,
    timeout_s: float | None = None,
    retries: int = 0,
    backoff_s: float = 0.25,
    chunk_size: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    seed: int | None = None,
) -> list[TaskResult]:
    """Run ``fn(item)`` for every item, fanned out over worker processes.

    Returns one :class:`TaskResult` per item, in item order.  With
    ``max_workers=1`` (the default) or when no process pool can be
    started, every attempt runs in-process — same waves, same semantics,
    no pickling requirement.

    ``cache_dir`` attaches the persistent kernel cache in the parent *and*
    in every worker, so min-plus results computed by any process are
    shared with all others and with future runs; a store the parent
    already has attached at that directory is kept, with its counters.  ``seed`` drives the
    deterministic per-task reseed (None disables reseeding).  ``retries``
    bounds resubmission of failed/timed-out items (a ``ValidationError``
    is never retried), with :func:`backoff_delay` sleeps between waves.
    """
    items = list(items)
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if cache_dir is not None:
        from repro.perf.cache import attach_disk_cache, kernel_cache

        cache_dir = str(cache_dir)
        attached = kernel_cache.disk
        if attached is None or attached.directory != Path(cache_dir):
            attach_disk_cache(cache_dir)
    if not items:
        return []

    workers = max(1, min(int(max_workers), len(items)))
    registry.gauge("runner.workers").set_max(workers)
    if chunk_size is None:
        chunk_size = max(1, -(-len(items) // (workers * 4)))
    chunk_size = max(1, int(chunk_size))
    deadline = (
        None
        if timeout_s is None
        else timeout_s * chunk_size * (retries + 1) + _BACKSTOP_SLACK_S
    )
    collect_trace = tracer.enabled
    executor = process_pool(workers, cache_dir) if workers > 1 else None
    if executor is None and workers > 1:
        registry.counter("runner.pool_fallbacks").inc()
        workers = 1

    results = [
        TaskResult(index=i, error="not run", error_type="RunnerError")
        for i in range(len(items))
    ]
    attempts = [0] * len(items)
    retry: list[int] = []

    def record(index: int, outcome: dict[str, Any], worker: int) -> None:
        result = results[index]
        result.attempts = attempts[index]
        result.duration_s = outcome["duration"]
        result.worker = worker
        if outcome["ok"]:
            result.value = outcome["value"]
            result.error = result.error_type = None
            return
        result.error = outcome["error"]
        result.error_type = outcome["error_type"]
        if result.error_type == "TaskTimeout":
            registry.counter("runner.tasks.timeouts").inc()
        if outcome["retryable"]:
            retry.append(index)

    def fail_chunk(chunk: list[tuple], error: str, error_type: str) -> None:
        for index, _, _ in chunk:
            results[index].error = error
            results[index].error_type = error_type
            results[index].attempts = attempts[index]
            retry.append(index)

    def restart(broken: ProcessPoolExecutor) -> None:
        # every chunk of a broken pool fails: replace the pool only once
        nonlocal executor
        if broken is executor:
            registry.counter("runner.pool_restarts").inc()
            broken.shutdown(wait=False, cancel_futures=True)
            executor = process_pool(workers, cache_dir)
            if executor is None:
                registry.counter("runner.pool_fallbacks").inc()

    def pool_wave(tasks: list[tuple]) -> None:
        wave_executor = executor
        futures = {}
        for start in range(0, len(tasks), chunk_size):
            chunk = tasks[start : start + chunk_size]
            registry.counter("runner.chunks").inc()
            try:
                future = wave_executor.submit(
                    _run_chunk, fn, chunk, timeout_s, collect_trace
                )
            except BrokenProcessPool:  # a worker died during submission
                fail_chunk(chunk, "worker process died", "BrokenProcessPool")
                restart(wave_executor)
                continue
            futures[future] = (chunk, tracer.now())
        not_done = set(futures)
        while not_done:
            done, not_done = wait(
                not_done, timeout=deadline, return_when=FIRST_COMPLETED
            )
            if not done:
                # backstop tripped: the pool is wedged — abandon it
                for future in not_done:
                    fail_chunk(
                        futures[future][0],
                        f"chunk deadline exceeded ({deadline:.0f}s)",
                        "TaskTimeout",
                    )
                restart(wave_executor)
                return
            for future in done:
                chunk, submitted_at = futures[future]
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    fail_chunk(chunk, "worker process died", "BrokenProcessPool")
                    restart(wave_executor)
                    continue
                except Exception as exc:
                    error = str(exc) or type(exc).__name__
                    fail_chunk(chunk, error, type(exc).__name__)
                    continue
                _merge_chunk_obs(payload, submitted_at)
                for outcome in payload["results"]:
                    record(outcome["index"], outcome, payload["pid"])

    pending = list(range(len(items)))
    wave = 0
    mode = "serial" if executor is None else "parallel"
    with tracer.span("runner.run_many", tasks=len(items), workers=workers, mode=mode):
        try:
            while pending:
                if wave:
                    time.sleep(backoff_delay(backoff_s, wave))
                for i in pending:
                    attempts[i] += 1
                tasks = [(i, items[i], derive_seed(seed, i)) for i in pending]
                if executor is None:
                    for index, item, task_seed in tasks:
                        outcome = run_attempt(fn, (item,), task_seed, timeout_s)
                        record(index, outcome, os.getpid())
                else:
                    pool_wave(tasks)
                pending = sorted(i for i in set(retry) if attempts[i] <= retries)
                retry.clear()
                if pending:
                    registry.counter("runner.tasks.retried").inc(len(pending))
                wave += 1
        finally:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)

    registry.counter("runner.tasks.completed").inc(sum(r.ok for r in results))
    registry.counter("runner.tasks.failed").inc(sum(not r.ok for r in results))
    return results


def sweep(
    fn: Callable[..., Any],
    grid: dict[str, Iterable[Any]],
    *,
    fixed: dict[str, Any] | None = None,
    **runner_kwargs: Any,
) -> SweepResult:
    """Fan a parameter grid out across workers.

    *grid* maps parameter names to value lists; the cartesian product (in
    the given key order) defines the sweep points, each merged over the
    *fixed* keyword arguments and passed to ``fn(**params)``.  All
    :func:`run_many` options apply.  ``fn`` must be a module-level
    callable (it is pickled by reference into the workers).
    """
    grid = {name: list(values) for name, values in grid.items()}
    for name, values in grid.items():
        if not values:
            raise ValueError(f"sweep grid axis {name!r} is empty")
    names = list(grid)
    points = [
        {**(fixed or {}), **dict(zip(names, combo))}
        for combo in itertools.product(*grid.values())
    ]
    with tracer.span("runner.sweep", points=len(points), axes=",".join(names)):
        results = run_many(
            _call_with_kwargs, [(fn, point) for point in points], **runner_kwargs
        )
    return SweepResult(grid=grid, points=points, results=results)


def _call_with_kwargs(pair: tuple[Callable[..., Any], dict[str, Any]]) -> Any:
    """Adapter: expand a ``(fn, kwargs)`` sweep item into ``fn(**kwargs)``."""
    fn, kwargs = pair
    return fn(**kwargs)
