"""Tests for the asyncio job daemon (:class:`AnalysisService`).

All daemon tests inject a ``ThreadPoolExecutor`` so the lifecycle
machinery (queueing, retries, timeouts, cancellation, drain, admission
wiring) is exercised without process-spawn latency; the process-pool
path is covered by the client/server integration test and CI smoke.
"""

from __future__ import annotations

import asyncio
import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.metrics import registry
from repro.service import ops, protocol
from repro.service.admission import AdmissionController
from repro.service.daemon import AnalysisService, ServiceClosed
from repro.service.ops import UnknownOperation


def run(coro):
    """Drive one async test body to completion."""
    return asyncio.run(coro)


def make_service(**overrides) -> AnalysisService:
    defaults = dict(workers=2, queue_limit=16, executor=ThreadPoolExecutor(2))
    defaults.update(overrides)
    return AnalysisService(**defaults)


class TestLifecycle:
    def test_submit_and_result(self):
        async def body():
            svc = make_service()
            await svc.start()
            job = await svc.submit("curve", {"demands": [1.0, 4.0, 2.0]})
            done = await svc.result(job.id, timeout_s=10)
            assert done.state == "done"
            assert done.result["wcet"] == 4.0
            assert done.attempts == 1
            assert done.duration_s > 0
            await svc.drain()

        run(body())

    def test_status_of_unknown_job_raises(self):
        async def body():
            svc = make_service()
            await svc.start()
            with pytest.raises(KeyError):
                svc.status("job-999999")
            await svc.drain()

        run(body())

    def test_unknown_op_rejected_synchronously(self):
        async def body():
            svc = make_service()
            await svc.start()
            with pytest.raises(UnknownOperation):
                await svc.submit("no-such-op", {})
            await svc.drain()

        run(body())

    def test_submit_after_drain_refused(self):
        async def body():
            svc = make_service()
            await svc.start()
            await svc.drain()
            with pytest.raises(ServiceClosed):
                await svc.submit("sleep", {"seconds": 0})

        run(body())

    def test_graceful_drain_finishes_queued_work(self):
        async def body():
            svc = make_service(workers=1, executor=ThreadPoolExecutor(1))
            await svc.start()
            jobs = [
                await svc.submit("sleep", {"seconds": 0.02}) for _ in range(5)
            ]
            await svc.drain()
            assert all(svc.status(j.id).state == "done" for j in jobs)

        run(body())

    def test_seed_derivation_is_per_job(self):
        async def body():
            svc = make_service(seed=42)
            await svc.start()
            a = await svc.submit("sleep", {"seconds": 0})
            b = await svc.submit("sleep", {"seconds": 0})
            assert a.seed is not None and b.seed is not None
            assert a.seed != b.seed
            await svc.drain()

        run(body())


class TestRetention:
    def test_terminal_jobs_drop_their_params(self):
        """A terminal job keeps no posted params, and its ``status`` and
        ``result`` responses read the bytes they read with the params
        kept."""

        async def body():
            svc = make_service(workers=1, queue_limit=3, executor=ThreadPoolExecutor(1))
            await svc.start()
            posted = [
                ("curve", {"demands": [1.0, 4.0, 2.0]}),
                ("curve", {"demands": []}),
                ("sleep", {"seconds": 0}),
                ("sleep", {"seconds": 0}),
            ]
            # submit() never yields: three jobs queue, the fourth is shed
            jobs = [await svc.submit(op, dict(params)) for op, params in posted]
            assert svc.cancel(jobs[2].id) is True
            for job in jobs[:2]:
                await svc.result(job.id, timeout_s=10)
            assert [j.state for j in jobs] == ["done", "failed", "cancelled", "shed"]
            for job, (_, params) in zip(jobs, posted):
                assert job.params is None
                kept = dataclasses.replace(job, params=params)
                for with_result in (False, True):
                    assert protocol.encode(
                        protocol.ok_response(1, job=job.to_dict(with_result=with_result))
                    ) == protocol.encode(
                        protocol.ok_response(1, job=kept.to_dict(with_result=with_result))
                    )
            await svc.drain()

        run(body())


class TestFailuresAndRetries:
    def test_validation_error_fails_without_retry(self):
        async def body():
            svc = make_service(retries=3, backoff_s=0.01)
            await svc.start()
            job = await svc.submit("curve", {"demands": []})
            done = await svc.result(job.id, timeout_s=10)
            assert done.state == "failed"
            assert done.error_type == "ValidationError"
            assert done.attempts == 1  # deterministic input error: no retry
            await svc.drain()

        run(body())

    def test_transient_failures_retried_with_backoff(self, monkeypatch):
        calls = {"n": 0}
        real = ops.execute_op

        def flaky(op, params):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return real(op, params)

        monkeypatch.setattr(ops, "execute_op", flaky)

        async def body():
            svc = make_service(retries=2, backoff_s=0.01)
            await svc.start()
            job = await svc.submit("sleep", {"seconds": 0})
            done = await svc.result(job.id, timeout_s=10)
            assert done.state == "done"
            assert done.attempts == 3
            await svc.drain()

        run(body())

    def test_retries_exhausted_marks_failed(self, monkeypatch):
        def always_broken(op, params):
            raise RuntimeError("still broken")

        monkeypatch.setattr(ops, "execute_op", always_broken)

        async def body():
            svc = make_service(retries=1, backoff_s=0.01)
            await svc.start()
            job = await svc.submit("sleep", {"seconds": 0})
            done = await svc.result(job.id, timeout_s=10)
            assert done.state == "failed"
            assert done.attempts == 2
            assert done.error == "still broken"
            await svc.drain()

        run(body())

    def test_timeout_terminates_job(self):
        async def body():
            svc = make_service(timeout_s=0.05)
            await svc.start()
            job = await svc.submit("sleep", {"seconds": 5.0})
            done = await svc.result(job.id, timeout_s=10)
            assert done.state == "timeout"
            await svc.close()  # the sleeper thread is abandoned

        run(body())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def body():
            svc = make_service(workers=1, executor=ThreadPoolExecutor(1))
            await svc.start()
            blocker = await svc.submit("sleep", {"seconds": 0.2})
            queued = await svc.submit("sleep", {"seconds": 0.2})
            assert svc.cancel(queued.id) is True
            assert svc.status(queued.id).state == "cancelled"
            done = await svc.result(blocker.id, timeout_s=10)
            assert done.state == "done"
            await svc.drain()

        run(body())

    def test_cancel_terminal_job_is_noop(self):
        async def body():
            svc = make_service()
            await svc.start()
            job = await svc.submit("sleep", {"seconds": 0})
            await svc.result(job.id, timeout_s=10)
            assert svc.cancel(job.id) is False
            await svc.drain()

        run(body())


class TestBackpressure:
    def test_full_queue_sheds(self):
        async def body():
            registry.reset("service.")
            svc = make_service(
                workers=1, queue_limit=1, executor=ThreadPoolExecutor(1)
            )
            await svc.start()
            # submit() never yields to the loop, so the worker cannot
            # drain between these three calls: 1 queued, rest shed
            jobs = [await svc.submit("sleep", {"seconds": 0.05}) for _ in range(3)]
            states = [j.state for j in jobs]
            assert states.count("shed") == 2
            shed = registry.counter("service.rejected", reason="queue-full").value
            assert shed == 2
            await svc.drain()

        run(body())

    def test_admission_rejection_terminal_at_submit(self):
        async def body():
            admission = AdmissionController(
                capacity=50.0, queue_bound=2, min_history=8, refresh_every=4
            )
            svc = make_service(queue_limit=64, admission=admission)
            await svc.start()
            rejected = []
            for _ in range(60):
                job = await svc.submit("sleep", {"seconds": 0.2})
                if job.state == "rejected":
                    rejected.append(job)
            assert rejected, "synthetic overload must trip eq. (8)"
            record = rejected[0]
            assert record.admission is not None
            assert record.admission["reason"] == "infeasible"
            assert record.admission["required"] > record.admission["capacity"]
            await svc.close()

        run(body())


class TestObservability:
    def test_stats_and_metrics(self):
        async def body():
            registry.reset("service.")
            svc = make_service()
            await svc.start()
            job = await svc.submit("sleep", {"seconds": 0})
            await svc.result(job.id, timeout_s=10)
            stats = svc.stats()
            assert stats["states"]["done"] == 1
            assert stats["queue_limit"] == 16
            assert registry.counter("service.submitted").value == 1
            assert registry.counter("service.completed", state="done").value == 1
            await svc.drain()

        run(body())

    def test_event_stream_sees_lifecycle(self):
        async def body():
            svc = make_service()
            await svc.start()
            queue = svc.subscribe()
            job = await svc.submit("sleep", {"seconds": 0})
            await svc.result(job.id, timeout_s=10)
            states = []
            while not queue.empty():
                states.append(queue.get_nowait()["state"])
            assert states[0] == "queued"
            assert states[-1] == "done"
            assert "running" in states
            svc.unsubscribe(queue)
            await svc.drain()

        run(body())

    def test_measured_cost_feeds_admission(self):
        async def body():
            admission = AdmissionController(capacity=1e9, queue_bound=4)
            svc = make_service(admission=admission)
            await svc.start()
            job = await svc.submit("sleep", {"seconds": 0.01})
            await svc.result(job.id, timeout_s=10)
            await svc.drain()
            # the measured ~10ms cost replaced the static estimate
            assert admission.estimate("sleep", 1.0) >= 5.0

        run(body())
