"""The asyncio analysis daemon: :class:`AnalysisService`.

The service owns three moving parts and wires them together:

* a **bounded job queue** drained by asyncio worker tasks that run each
  attempt through :func:`repro.runner.pool.run_attempt` on the runner's
  :func:`~repro.runner.pool.process_pool` (threads where none can be
  built), so a job's budget is enforced inside its worker, with the
  runner's retry backoff between attempts;
* a **self-characterizing admission controller**
  (:class:`repro.service.admission.AdmissionController`) metering every
  submission and rejecting by the paper's eq. (8) feasibility test when
  the offered load outruns the configured capacity;
* an **event bus** for ``stream`` subscribers: every job state change is
  fanned out to subscriber queues (slow subscribers drop events rather
  than stall the daemon).

Worker processes attach the sharded disk cache
(:class:`repro.perf.diskcache.DiskCache`) on start, so kernel results
are shared across workers and across daemon restarts.

Lifecycle::

    service = AnalysisService(workers=2, queue_limit=64)
    await service.start()
    job = await service.submit("frequency", {"buffer_size": 8})
    result = await service.result(job.id)
    await service.drain()          # graceful: finish queued work, stop

Metrics published to :mod:`repro.obs`: counters ``service.submitted``,
``service.accepted``, ``service.rejected{reason=...}``,
``service.completed{state=...}``, ``service.retries``,
``service.pool_fallbacks``; gauge ``service.queue_depth``; histogram
``service.job_seconds``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.obs.metrics import registry
from repro.runner.pool import (
    TaskTimeout,
    backoff_delay,
    failed_attempt,
    process_pool,
    run_attempt,
)
from repro.service import ops
from repro.service.admission import AdmissionController
from repro.service.jobs import Job
from repro.util.seeding import derive_seed
from repro.util.validation import check_integer

__all__ = ["AnalysisService", "ServiceClosed"]

#: Per-subscriber event queue bound; beyond it events are dropped.
_SUBSCRIBER_QUEUE = 256


class ServiceClosed(RuntimeError):
    """Raised by :meth:`AnalysisService.submit` after shutdown began."""


class AnalysisService:
    """Asyncio job daemon running analysis ops on a CPU executor.

    Parameters
    ----------
    workers:
        CPU executor width (and the number of queue-draining tasks).
    queue_limit:
        Bound of the job queue; submissions beyond it are **shed**.
    timeout_s:
        Per-attempt wall-clock budget of one job (None = unbounded); a
        process worker is interrupted at it, a thread only abandoned.
    retries:
        Extra attempts after a failure (timeouts and validation errors
        are never retried: they would fail the same way again).
    backoff_s:
        Base sleep before retry ``n`` is ``backoff_s * 2**(n-1)``,
        capped at 30 s (:func:`~repro.runner.pool.backoff_delay`).
    seed:
        Base seed; job ``i`` runs under ``derive_seed(seed, i)`` so
        results are independent of worker assignment and arrival order.
    admission:
        An :class:`AdmissionController`, or None to admit everything.
    cache_dir / cache_shards:
        Persistent kernel cache attached in every worker process
        (sharded when ``cache_shards > 1``).
    executor:
        Pre-built executor (tests inject a ``ThreadPoolExecutor``);
        when given the service will not build or own one.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 64,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.25,
        seed: int | None = None,
        admission: AdmissionController | None = None,
        cache_dir: str | None = None,
        cache_shards: int | None = None,
        executor: Executor | None = None,
    ):
        self.workers = check_integer(workers, "workers", minimum=1)
        self.queue_limit = check_integer(queue_limit, "queue_limit", minimum=1)
        self.timeout_s = None if timeout_s is None else float(timeout_s)
        self.retries = check_integer(retries, "retries", minimum=0)
        self.backoff_s = float(backoff_s)
        self.seed = seed
        self.admission = admission
        self.cache_dir = cache_dir
        self.cache_shards = cache_shards
        self._executor = executor
        self._owns_executor = executor is None
        self._queue: asyncio.Queue[Job] = asyncio.Queue(maxsize=self.queue_limit)
        self._jobs: dict[str, Job] = {}
        self._tasks: list[asyncio.Task] = []
        self._subscribers: list[asyncio.Queue] = []
        self._counter = 0
        self._started = False
        self._closing = False
        self.started_at: float | None = None

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> None:
        """Build the executor and launch the worker tasks (idempotent)."""
        if self._started:
            return
        if self._executor is None:
            self._executor = self._build_executor()
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker_loop(i)) for i in range(self.workers)
        ]
        self._started = True
        self._closing = False
        self.started_at = time.time()

    def _build_executor(self) -> Executor:
        """The runner's process pool, or a thread pool when none can be
        built (counted as a fallback)."""
        executor = process_pool(self.workers, self.cache_dir, self.cache_shards)
        if executor is None:
            registry.counter("service.pool_fallbacks").inc()
            executor = ThreadPoolExecutor(max_workers=self.workers)
        return executor

    async def drain(self, timeout_s: float | None = None) -> None:
        """Graceful shutdown: refuse new work, finish what is queued,
        then stop the workers and the executor.

        With a *timeout_s*, work still unfinished when it expires is
        abandoned (the worker tasks are cancelled).
        """
        self._closing = True
        if not self._started:
            return
        try:
            await asyncio.wait_for(self._queue.join(), timeout=timeout_s)
        except asyncio.TimeoutError:
            pass
        await self._stop_workers()

    async def close(self) -> None:
        """Immediate shutdown: cancel workers, drop queued jobs."""
        self._closing = True
        if not self._started:
            return
        while not self._queue.empty():
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if not job.terminal:
                job.finish("cancelled")
                self._emit(job)
            self._queue.task_done()
        await self._stop_workers()

    async def _stop_workers(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._started = False

    # -- submission --------------------------------------------------------------
    async def submit(
        self, op: str, params: dict[str, Any] | None = None
    ) -> Job:
        """Submit one request; returns its :class:`Job` immediately.

        The job may already be terminal on return: ``rejected`` when the
        admission controller's eq. (8) test failed, ``shed`` when the
        bounded queue was full.  Unknown ops raise
        :class:`~repro.service.ops.UnknownOperation` synchronously.
        """
        if self._closing or not self._started:
            raise ServiceClosed("service is not accepting jobs")
        if op not in ops.OPS:
            raise ops.UnknownOperation(
                f"unknown op {op!r} (known: {', '.join(sorted(ops.OPS))})"
            )
        params = dict(params or {})
        self._counter += 1
        job = Job(
            id=f"job-{self._counter:06d}",
            op=op,
            params=params,
            seed=derive_seed(self.seed, self._counter),
        )
        self._jobs[job.id] = job
        registry.counter("service.submitted").inc()

        job.demand = ops.estimate_demand(op, params)
        if self.admission is not None:
            job.demand = self.admission.estimate(op, job.demand)
            decision = self.admission.admit(job.demand)
            job.admission = decision.to_dict()
            if not decision.accepted:
                job.finish("rejected")
                self._emit(job)
                return job
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            registry.counter("service.rejected", reason="queue-full").inc()
            job.finish("shed")
            self._emit(job)
            return job
        registry.gauge("service.queue_depth").set(self._queue.qsize())
        self._emit(job)
        return job

    # -- queries -----------------------------------------------------------------
    def status(self, job_id: str) -> Job:
        """The job record for *job_id* (raises ``KeyError`` if unknown)."""
        return self._jobs[job_id]

    async def result(self, job_id: str, timeout_s: float | None = None) -> Job:
        """Wait until *job_id* is terminal and return it."""
        job = self._jobs[job_id]
        if not job.terminal:
            await asyncio.wait_for(job.done_event.wait(), timeout=timeout_s)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; returns True when it took effect.

        A running job is not interrupted (the executor gives no safe
        preemption) — cancellation of a running or terminal job is a
        no-op returning False.
        """
        job = self._jobs[job_id]
        if job.state != "queued":
            return False
        job.finish("cancelled")
        registry.counter("service.completed", state="cancelled").inc()
        self._emit(job)
        return True

    def stats(self) -> dict[str, Any]:
        """JSON-serializable service snapshot (the ``stats`` response)."""
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        out: dict[str, Any] = {
            "started_at": self.started_at,
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "queue_depth": self._queue.qsize(),
            "jobs": len(self._jobs),
            "states": states,
            "closing": self._closing,
        }
        if self.admission is not None:
            out["admission"] = self.admission.stats()
        return out

    # -- streaming ---------------------------------------------------------------
    def subscribe(self) -> asyncio.Queue:
        """A queue receiving every subsequent job state change (as job
        dicts without results).  Pair with :meth:`unsubscribe`."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=_SUBSCRIBER_QUEUE)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Detach a subscriber queue obtained from :meth:`subscribe`."""
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def _emit(self, job: Job) -> None:
        """Fan one job state change out to every subscriber (lossy)."""
        if not self._subscribers:
            return
        event = job.to_dict(with_result=False)
        for queue in self._subscribers:
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                pass

    # -- execution ---------------------------------------------------------------
    async def _worker_loop(self, index: int) -> None:
        """One queue-draining task: pull, execute with retries, resolve."""
        while True:
            job = await self._queue.get()
            try:
                if not job.terminal:  # cancelled jobs pass through
                    await self._run_job(job)
            finally:
                self._queue.task_done()
                registry.gauge("service.queue_depth").set(self._queue.qsize())

    async def _run_job(self, job: Job) -> None:
        """Execute one job through :func:`run_attempt` on the executor,
        retrying failed attempts; a timeout ends the job."""
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.started_at = time.time()
        self._emit(job)
        t0 = time.perf_counter()
        for attempt in range(1, self.retries + 2):
            job.attempts = attempt
            if attempt > 1:
                registry.counter("service.retries").inc()
                await asyncio.sleep(backoff_delay(self.backoff_s, attempt - 1))
            executor = self._executor
            try:
                future = loop.run_in_executor(
                    executor,
                    run_attempt,
                    ops.execute_op_json,
                    (job.op, job.params),
                    job.seed,
                    self.timeout_s,
                )
                # SIGALRM cannot reach a worker thread: this deadline is
                # what ends a job on the thread fallback
                outcome = await asyncio.wait_for(future, timeout=self.timeout_s)
            except asyncio.TimeoutError:
                exceeded = TaskTimeout(f"task exceeded {self.timeout_s:g}s")
                outcome = failed_attempt(exceeded)
            except BrokenProcessPool as exc:
                outcome = failed_attempt(exc)
                # jobs that ran on one broken pool replace it only once
                if self._owns_executor and self._executor is executor:
                    executor.shutdown(wait=False, cancel_futures=True)
                    self._executor = self._build_executor()
            except Exception as exc:  # noqa: BLE001 — executor faults retried
                outcome = failed_attempt(exc)
            timed_out = outcome.get("error_type") == "TaskTimeout"
            if outcome["ok"] or timed_out or not outcome["retryable"]:
                break
        self._finalize(job, t0, outcome)

    def _finalize(self, job: Job, t0: float, outcome: dict[str, Any]) -> None:
        """Resolve a job from its last attempt's outcome record: state,
        duration, result or error, metrics, feedback."""
        job.duration_s = time.perf_counter() - t0
        if outcome["ok"]:
            state = "done"
            job.result_json = outcome["value"]
        else:
            state = "timeout" if outcome["error_type"] == "TaskTimeout" else "failed"
            job.error = outcome["error"]
            job.error_type = outcome["error_type"]
        job.finish(state)
        registry.counter("service.completed", state=state).inc()
        registry.histogram("service.job_seconds").observe(job.duration_s)
        if state == "done" and self.admission is not None:
            # close the self-characterization loop: measured cost in ms
            self.admission.record_cost(job.op, job.duration_s * 1000.0)
        self._emit(job)
