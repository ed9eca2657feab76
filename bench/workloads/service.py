"""service: ``curve`` requests through the analysis daemon.

Set-up starts ``python -m repro serve --socket ... --workers 1`` (no
admission control) and sends 8 warm-up jobs.  Each request posts one of
16 integer 2048-event demand arrays (about 11 KB as JSON) drawn with
``WorkloadSpec`` from 3 weighted client classes with 5 % long tasks; the
daemon extracts the workload curves with the streaming fold.

The measured section has two phases over the same daemon:

* a closed loop with 4 requests outstanding on one connection, sized
  to a fifth of ``--seconds`` (100 requests in a 10-second run), whose
  completion rate stands in for the highest sustainable rate
  (``throughput_ops_s``);
* an open loop of Poisson arrivals at 15 requests/s
  (:func:`poisson_offsets`) for the whole of ``--seconds`` (150 requests
  in a 10-second run), so that its p90 has 15 samples beyond it: one
  generator thread submits on one connection, the
  main thread collects results in order on a second.  Latency runs from
  each request's scheduled send time to its result's receipt, so a
  stalled generator shows as latency, and the generator's lateness is
  reported.

``--seed`` draws the payloads and the order requests post them in.  The
open loop's arrival times are one fixed Poisson draw, the same for every
seed: which requests arrive close together sets the tail latency, and a
schedule drawn per seed made the tail's ten-seed spread about half as
wide again.

The host changes speed within seconds, so both phases are cut into
short segments (10 closed-loop requests, 0.75-second open-loop windows)
that end with nothing in flight, and a host-speed probe between them
scales each segment's times.  The open-loop schedule is in reference
time too: each window's arrival times are stretched by the speed factor
read just before it, so the daemon sees the same utilization on a slow
host as on a fast one.

The daemon's job records (submitted, started, finished) split each
request into queue, execution and transport time, so a traced run
needs no wrappers here.
"""

from __future__ import annotations

import os
import queue
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench import OUT
from bench.spans import new_tracer
from bench.stats import HostSpeed, quantile
from bench.workloads import Measurement, sub_seed

WRAPPED = False

PAYLOADS = 16
EVENTS = 2048
WARMUP_JOBS = 8
OUTSTANDING = 4
#: The closed loop's length as a share of ``--seconds``.
CLOSED_SHARE = 0.2
#: Closed-loop completions per second at the reference host speed.
CLOSED_RATE = 50.0
CLOSED_SEGMENT = 10
OPEN_RATE = 15.0
OPEN_WINDOW_S = 0.75
#: Seed of the open loop's arrival schedule, fixed across ``--seed``.
SCHEDULE_SEED = 0
#: Window lengths per payload checked against an independent numpy sum.
SAMPLED_K = 8
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_CURVE = ("k", "gamma_u", "gamma_l")


@dataclass
class State:
    seed: int
    payloads: list[list[int]]
    daemon: subprocess.Popen
    socket: str
    clients: list = field(default_factory=list)
    rounds: int = 0


def make_payloads(seed: int) -> list[list[int]]:
    """The 16 demand arrays requests post, drawn from *seed*."""
    from repro.simulation import ClientProfile, WorkloadSpec

    spec = WorkloadSpec(
        items=EVENTS,
        demand_mean=2000.0,
        demand_spread=0.3,
        long_task_fraction=0.05,
        clients=(
            ClientProfile("light", 5.0, 0.5),
            ClientProfile("medium", 3.0, 1.0),
            ClientProfile("heavy", 1.0, 3.0),
        ),
    )
    return [
        np.maximum(np.rint(spec.generate(sub_seed(seed, "payload", i)).demands[0]), 1)
        .astype(int)
        .tolist()
        for i in range(PAYLOADS)
    ]


def setup(seed: int) -> State:
    from repro.service.client import ServiceClient

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"svc-{os.getpid()}.sock"
    # AF_UNIX paths are limited to about 107 bytes; the daemon inherits our
    # working directory, so a path relative to it names the same socket
    socket = min(str(path), os.path.relpath(path), key=len)
    path.unlink(missing_ok=True)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket, "--workers", "1"],
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    state = State(seed, make_payloads(seed), daemon, socket)
    try:
        ready, _, _ = select.select([daemon.stdout], [], [], START_TIMEOUT_S)
        if not ready or not daemon.stdout.readline().startswith(b"listening"):
            raise RuntimeError("analysis daemon did not start")
        state.clients = [ServiceClient(socket), ServiceClient(socket)]
        for i in range(WARMUP_JOBS):
            job = state.clients[0].submit("curve", {"demands": state.payloads[i % PAYLOADS]})
            state.clients[0].result(job["id"])
    except BaseException:
        teardown(state)
        raise
    return state


def poisson_offsets(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Send times of *n* Poisson arrivals at *rate*, with stratified gaps.

    Gap *i* is the exponential quantile of ``(i + u) / n``, ``u`` uniform,
    and the gaps come in random order: each gap is still exponential, but
    the set of gaps varies far less from seed to seed than *n*
    independent draws, and so does the tail latency they cause.
    """
    u = (np.arange(n) + rng.random(n)) / n
    return np.cumsum(rng.permutation(-np.log1p(-u) / rate))


def open_loop(offsets, send, *, clock=time.perf_counter, sleep=time.sleep):
    """Call ``send(i, due, sent)`` for request *i* at ``offsets[i]`` seconds
    after the start, whether or not earlier requests completed.

    Returns ``(due, sent)`` per request: ``sent - due`` is how late the
    generator ran.
    """
    start = clock()
    times = []
    for i, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        if due > now:
            sleep(due - now)
        sent = clock()
        send(i, due, sent)
        times.append((due, sent))
    return times


def _compact(record: dict) -> dict:
    """The job record with its curve lists as numpy arrays, which take a
    quarter of the memory of lists of Python floats."""
    result = record.get("result")
    if result is not None:
        record["result"] = {**result, **{key: np.asarray(result[key]) for key in _CURVE}}
    return record


def _closed_loop(state: State, order: np.ndarray) -> tuple[list, float]:
    """Send the requests of *order* keeping OUTSTANDING in flight."""
    client = state.clients[0]
    pending: list = []
    done = []

    def collect() -> None:
        payload, job = pending.pop(0)
        done.append((payload, _compact(client.result(job["id"]))))

    start = time.perf_counter()
    for payload in order.tolist():
        pending.append((payload, client.submit("curve", {"demands": state.payloads[payload]})))
        if len(pending) == OUTSTANDING:
            collect()
    while pending:
        collect()
    return done, time.perf_counter() - start


def _open_window(state: State, offsets: np.ndarray, order: np.ndarray) -> list:
    """Send requests at *offsets* from now whatever the replies; collect
    every reply.  Returns ``(payload, due, sent, receipt, record)`` each."""
    submitted: queue.Queue = queue.Queue()
    submitter, collector = state.clients

    def send(i: int, due: float, sent: float) -> None:
        payload = int(order[i])
        job = submitter.submit("curve", {"demands": state.payloads[payload]})
        submitted.put((payload, due, sent, job))

    generator = threading.Thread(target=open_loop, args=(offsets, send), daemon=True)
    generator.start()
    replies = []
    for _ in range(offsets.size):
        payload, due, sent, job = submitted.get(timeout=START_TIMEOUT_S)
        record = collector.result(job["id"])
        replies.append((payload, due, sent, time.perf_counter(), _compact(record)))
    generator.join(timeout=START_TIMEOUT_S)
    return replies


def measure(state: State, seconds: float, traced: bool) -> Measurement:
    rng = np.random.default_rng(sub_seed(state.seed, "service", state.rounds))
    state.rounds += 1
    n_closed = max(OUTSTANDING, round(CLOSED_RATE * CLOSED_SHARE * seconds))
    n_open = max(1, round(OPEN_RATE * seconds))
    closed_order = rng.integers(0, PAYLOADS, n_closed)
    offsets = poisson_offsets(np.random.default_rng(SCHEDULE_SEED), n_open, OPEN_RATE)
    open_order = rng.integers(0, PAYLOADS, n_open)

    m = Measurement()
    speed = HostSpeed()
    closed, closed_s = [], 0.0
    for first in range(0, n_closed, CLOSED_SEGMENT):
        replies, wall = _closed_loop(state, closed_order[first : first + CLOSED_SEGMENT])
        closed += replies
        closed_s += wall / speed.mark()
    opened = []
    window = (offsets // OPEN_WINDOW_S).astype(int)
    for w in np.unique(window):
        picked = np.flatnonzero(window == w)
        # the schedule is in reference time: on a slower host requests come
        # slower, so the daemon runs at the same utilization
        schedule = (offsets[picked] - w * OPEN_WINDOW_S) * speed.current()
        replies = _open_window(state, schedule, open_order[picked])
        factor = speed.mark()
        opened += replies
        m.latencies_s += [(receipt - due) / factor for _, due, _, receipt, _ in replies]
    m.speed_factors = speed.factors

    m.outputs = [(payload, record) for payload, record in closed]
    m.outputs += [(payload, record) for payload, _, _, _, record in opened]
    m.ops = len(m.outputs)
    m.errors = sum(record["state"] != "done" for _, record in m.outputs)
    m.throughput = sum(record["state"] == "done" for _, record in closed) / closed_s
    m.layer = _layer_metrics(m, opened)
    if traced:
        m.trace = _spans(opened)
    return m


def _daemon_times(record: dict) -> tuple[float, float, float]:
    started = record["started_at"] or record["finished_at"]
    return record["submitted_at"], started, record["finished_at"]


def _layer_metrics(m: Measurement, opened: list) -> dict[str, float]:
    queue_s, exec_s, transport_s, late_s, latency_s = [], [], [], [], []
    for _, due, sent, receipt, record in opened:
        submitted, started, finished = _daemon_times(record)
        queue_s.append(started - submitted)
        exec_s.append(finished - started)
        transport_s.append((receipt - sent) - (finished - submitted))
        late_s.append(sent - due)
        latency_s.append(receipt - due)
    states = [record["state"] for _, record in m.outputs]
    return {
        "service.queue_p50_ms": quantile(queue_s, 0.5) * 1e3,
        "service.exec_p50_ms": quantile(exec_s, 0.5) * 1e3,
        "service.transport_p50_ms": quantile(transport_s, 0.5) * 1e3,
        "service.latency_p99_ms": quantile(latency_s, 0.99) * 1e3,
        "service.generator_late_p99_ms": quantile(late_s, 0.99) * 1e3,
        "service.rejected": states.count("rejected"),
        "service.shed": states.count("shed"),
    }


def _spans(opened: list):
    """Open-loop requests as spans in a tracer: the client's view, with
    the daemon's queue and execution intervals as children."""
    tracer = new_tracer()
    start = time.perf_counter() - tracer.now()
    wall_offset = time.time() - time.perf_counter()
    thread = threading.get_ident()
    records: list[dict] = []

    def add(name: str, begin: float, end: float, parent: int | None, **attrs) -> int:
        records.append(
            {
                "name": name,
                "id": len(records),
                "parent": parent,
                "ts": begin - start,
                "dur": max(0.0, end - begin),
                "thread": thread,
                "attrs": attrs,
            }
        )
        return len(records) - 1

    for payload, due, sent, receipt, record in opened:
        request = add("service.request", due, receipt, None, job=record["id"], payload=payload)
        submitted, started, finished = (t - wall_offset for t in _daemon_times(record))
        add("service.queue", submitted, started, request)
        add("service.exec", started, finished, request)
    tracer.ingest(records)
    return tracer


def _window_sums(demands: np.ndarray, k: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(demands, k).sum(axis=1)


def check(state: State, m: Measurement, expected: dict) -> list[tuple[int, str]]:
    """Each payload's first response matches an independent numpy
    window-sum at sampled k; every repeat is byte-identical to it (its
    scalars' text and its curves' float64 bytes)."""
    failures = []
    verified: dict[int, bytes] = {}
    for index, (payload, record) in enumerate(m.outputs):
        if record["state"] != "done":
            outcome = f"{record['state']} {record.get('error', '')}"
            failures.append((index, f"job {record['id']}: {outcome}"))
            continue
        result = record["result"]
        body = repr([result[key] for key in ("events", "wcet", "bcet")]).encode()
        body += b"".join(result[key].tobytes() for key in _CURVE)
        if payload in verified:
            if body != verified[payload]:
                failures.append((index, f"payload {payload}: differs from the verified response"))
            continue
        problem = _verify_curve(np.asarray(state.payloads[payload], float), result)
        if problem:
            failures.append((index, f"payload {payload}: {problem}"))
        else:
            verified[payload] = body
    return failures


def _verify_curve(demands: np.ndarray, result: dict) -> str | None:
    ks = result["k"]
    if result["events"] != demands.size or ks[-1] != demands.size:
        return f"{result['events']} events, k up to {ks[-1]}"
    picks = np.unique(np.linspace(0, len(ks) - 1, SAMPLED_K).round().astype(int))
    for j in picks:
        sums = _window_sums(demands, ks[j])
        got, want = (result["gamma_u"][j], result["gamma_l"][j]), (sums.max(), sums.min())
        if got != want:
            return f"k={ks[j]}: {got} != {want}"
    return None


def teardown(state: State) -> None:
    """Shut the daemon down, then make sure nothing it started survives."""
    daemon = state.daemon
    # close the second connection first: the daemon cancels the sessions
    # still open when it stops
    for client in reversed(state.clients):
        try:
            if client is state.clients[0]:
                client.shutdown(drain=True)
        except (OSError, RuntimeError):
            pass
        client.close()
    try:
        daemon.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(daemon.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    daemon.wait()
    daemon.stdout.close()
    Path(state.socket).unlink(missing_ok=True)
