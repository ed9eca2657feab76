"""Fault tests of the analysis daemon on a real process pool.

Unlike ``test_daemon.py`` these tests inject no executor, so every
attempt runs in a forked worker process.  A job over its budget must be
stopped inside its worker, so the job queued behind it finds the worker
free.  A worker killed in the middle of a job must be replaced: with a
retry the job completes on the new pool, without one it fails as
``BrokenProcessPool``, and either way later jobs are still served.  The
``kill_once`` op is registered in ``ops.OPS`` before the service starts,
so the workers forked from the test process inherit it.  A daemon sent
SIGTERM must drain like one sent a ``shutdown`` request, and leave no
pool worker behind.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs.metrics import registry
from repro.service import ops
from repro.service.client import ServiceClient
from repro.service.daemon import AnalysisService


def run(coro):
    """Drive one async test body to completion."""
    return asyncio.run(coro)


def _kill_once(params):
    """Op: SIGKILL the worker running it, once per marker file (never
    the test process)."""
    if os.getpid() == params["test_pid"]:
        raise RuntimeError("kill_once must run in a worker process")
    try:
        Path(params["marker"]).touch(exist_ok=False)
    except FileExistsError:
        return {"survived": True}
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def kill_params(monkeypatch, tmp_path):
    """Register ``kill_once`` and return its params."""
    monkeypatch.setitem(ops.OPS, "kill_once", _kill_once)
    return {"marker": str(tmp_path / "killed"), "test_pid": os.getpid()}


def completed(state: str) -> int:
    """Jobs the service resolved in *state* since the last reset."""
    return registry.counter("service.completed", state=state).value


async def finished(svc: AnalysisService, job) -> object:
    """Wait for *job* to reach a terminal state."""
    return await svc.result(job.id, timeout_s=60)


def test_timed_out_job_frees_its_worker():
    async def body():
        registry.reset("service.")
        svc = AnalysisService(workers=1, timeout_s=0.3)
        await svc.start()
        try:
            warm = await svc.submit("sleep", {"seconds": 0})
            assert (await finished(svc, warm)).state == "done"
            slow = await svc.submit("sleep", {"seconds": 3.0})
            fast = await svc.submit("sleep", {"seconds": 0})
            assert (await finished(svc, slow)).state == "timeout"
            assert (await finished(svc, fast)).state == "done"
        finally:
            await svc.close()
        assert registry.counter("service.pool_fallbacks").value == 0

    run(body())


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_killed_worker_is_replaced_and_the_job_retried(kill_params, workers):
    async def body():
        registry.reset("service.")
        svc = AnalysisService(workers=workers, retries=1, backoff_s=0.01)
        await svc.start()
        try:
            jobs = [await svc.submit("kill_once", kill_params)]
            jobs += [await svc.submit("sleep", {"seconds": 0.05}) for _ in range(3)]
            results = [await finished(svc, job) for job in jobs]
            later = await svc.submit("sleep", {"seconds": 0})
            results.append(await finished(svc, later))
        finally:
            await svc.close()
        assert [job.state for job in results] == ["done"] * 5
        assert results[0].attempts == 2
        assert results[0].result == {"survived": True}
        assert all(job.attempts in (1, 2) for job in results)
        # every job reached exactly one terminal state
        assert completed("done") == 5
        assert svc.stats()["states"] == {"done": 5}

    run(body())


def test_killed_worker_without_retry_fails_the_job(kill_params):
    async def body():
        registry.reset("service.")
        svc = AnalysisService(workers=2, retries=0)
        await svc.start()
        try:
            killed = await finished(svc, await svc.submit("kill_once", kill_params))
            later = await finished(svc, await svc.submit("sleep", {"seconds": 0}))
        finally:
            await svc.close()
        assert killed.state == "failed"
        assert killed.error_type == "BrokenProcessPool"
        assert killed.attempts == 1
        assert later.state == "done"
        assert completed("failed") == 1 and completed("done") == 1
        assert svc.stats()["states"] == {"failed": 1, "done": 1}

    run(body())



def _children(pid: int) -> list[int]:
    """The PIDs of *pid*'s child processes, read from ``/proc``."""
    files = list(Path(f"/proc/{pid}/task").glob("*/children"))
    if not files:
        pytest.skip("/proc/<pid>/task/<tid>/children is not available")
    return [int(child) for f in files for child in f.read_text().split()]


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _curve_job(sock: str) -> str:
    """Run one small ``curve`` job to a terminal state; returns the state."""
    with ServiceClient(sock, timeout=30) as client:
        job = client.submit("curve", {"demands": [1.0, 3.0, 2.0, 3.0]})
        return client.result(job["id"], timeout=30)["state"]


@pytest.fixture
def daemon(tmp_path):
    """Start ``python -m repro serve`` with *workers* pool workers; returns
    ``(process, socket path, worker PIDs)`` once a job has run.  Whatever
    is left of it is killed at teardown."""
    started: list[tuple[subprocess.Popen, list[int]]] = []

    def start(workers: int):
        sock = str(tmp_path / "svc.sock")
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        command = ["serve", "--socket", sock, "--workers", str(workers)]
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *command],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        started.append((process, []))
        assert process.stdout.readline().startswith("listening on")
        for _ in range(2 * workers):
            assert _curve_job(sock) == "done"
        started[-1][1].extend(_children(process.pid))
        assert len(started[-1][1]) == workers, started[-1][1]
        return process, sock, started[-1][1]

    yield start
    for process, workers in started:
        if process.poll() is None:
            workers += _children(process.pid)  # a replacement pool's too
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_sigterm_drains_the_daemon_and_stops_its_workers(daemon):
    process, _, workers = daemon(1)
    process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=10) == 0
    deadline = time.monotonic() + 5.0
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in workers if _alive(pid)]


def test_sigterm_to_a_worker_stops_only_that_worker(daemon):
    """A forked worker does not inherit the daemon's SIGTERM handling: the
    signal kills it, and the daemon keeps serving on a new pool."""
    process, sock, workers = daemon(2)
    os.kill(workers[0], signal.SIGTERM)
    deadline = time.monotonic() + 5.0
    while _alive(workers[0]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(workers[0])
    states = [_curve_job(sock) for _ in range(3)]
    assert states[-1] == "done", states
    assert process.poll() is None
