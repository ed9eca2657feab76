"""design_sweep: frequency/backlog design-space sweeps over the runner.

Set-up builds the case-study context and warms the frequency evaluator,
as the first point of any ``repro sweep`` does, with ``repro sweep``'s
defaults (72 frames, dense limit 4096, growth 1.015).  Each round is
then one ``repro.runner.sweep`` of ``frequency_backlog_point`` over a
192-point grid with two forked workers, which inherit the warm context:
b in {405, 810, ..., 2430} x ``bisect`` in {False, True} x 16
``sim_seed`` values; a 10-second run is seven rounds, 1344 points.  One
operation is one sweep point, and its latency is the time it took in its
worker.

At b = 1620 the points reproduce E5: F^γ = 364.2 MHz and
F^w = 758.7 MHz.  Larger b lower F^γ towards the case study's long-run
demand rate, 324.7 MHz, and the 4096-item validation traces scatter
around that rate: at b = 3240 (F^γ = 345.5 MHz) 1 trace in 3000 demands
more than F^γ supplies, so its eq. (7) bound is unbounded and the point
fails its check, which would fail about one run in twelve.  b = 2430
keeps F^γ 9 % above the long-run rate.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

from bench.layers import registry_counts, registry_metrics
from bench.spans import active_tracer, epoch
from bench.stats import HostSpeed
from bench.workloads import Measurement, sub_seed, units, wrapped

WRAPPED = True

WORKERS = 2
BUFFERS = tuple(405 * i for i in range(1, 7))
SEEDS_PER_ROUND = 16
POINT = {"sim_validate": True, "sim_items": 4096}

#: Seconds one round takes at the reference host speed.
ROUND_S = 1.5


@dataclass
class State:
    seed: int
    rounds: int = 0


def setup(seed: int) -> State:
    from repro.experiments.common import sweep_frequency_evaluator

    sweep_frequency_evaluator()
    return State(seed)


def traced_point(**params):
    """Sweep task used by traced runs: the point, the spans its worker
    recorded and the worker tracer's epoch, for the parent to merge."""
    from repro.runner.tasks import frequency_backlog_point

    tracer = active_tracer()
    # a forked worker inherits the parent's open sweep span and every span
    # recorded before the fork; the task is a root of a fresh trace here
    tracer.forget_thread()
    tracer.reset()
    with tracer.span("runner.task", buffer_size=params["buffer_size"]):
        result = frequency_backlog_point(**params)
    return result, tracer.records(), epoch(tracer)


def _join_new_children(old: set) -> None:
    """Wait for the round's pool workers, which exit after the sweep
    returns, so the host-speed probe does not run beside them."""
    for process in multiprocessing.active_children():
        if process not in old:
            process.join(timeout=30.0)


def measure(state: State, seconds: float, traced: bool) -> Measurement:
    from repro.runner import sweep
    from repro.runner.tasks import frequency_backlog_point

    m = Measurement()
    task_s = fan_out_s = 0.0
    before = registry_counts()
    # the two workers keep both vCPUs busy, so the probe does too
    with wrapped(traced) as tracer, HostSpeed(processes=WORKERS) as speed:
        helpers = set(multiprocessing.active_children())
        for _ in range(units(seconds, ROUND_S)):
            grid = {
                "buffer_size": list(BUFFERS),
                "bisect": [False, True],
                "sim_seed": [
                    sub_seed(state.seed, "design_sweep", state.rounds, i)
                    for i in range(SEEDS_PER_ROUND)
                ],
            }
            state.rounds += 1
            t0 = time.perf_counter()
            if tracer is None:
                result = sweep(frequency_backlog_point, grid, fixed=POINT, max_workers=WORKERS)
            else:
                with tracer.span("runner.sweep", points=len(BUFFERS) * 2 * SEEDS_PER_ROUND):
                    parent = tracer.current_span_id()
                    result = sweep(traced_point, grid, fixed=POINT, max_workers=WORKERS)
            wall = time.perf_counter() - t0
            fan_out_s += wall
            _join_new_children(helpers)
            factor = speed.mark()
            m.elapsed_s += wall / factor
            for point, task in zip(result.points, result.results):
                m.ops += 1
                task_s += task.duration_s
                m.latencies_s.append(task.duration_s / factor)
                if not task.ok:
                    m.errors += 1
                    m.outputs.append(f"{task.error_type}: {task.error}")
                    continue
                value = task.value
                if tracer is not None:
                    value, spans, worker_epoch = value
                    tracer.ingest(
                        spans,
                        ts_offset=worker_epoch - epoch(tracer),
                        parent_id=parent,
                        extra_attrs={"worker": task.worker},
                    )
                m.outputs.append({**value.data, "bisect": point["bisect"]})
        m.trace = tracer
    m.throughput = (m.ops - m.errors) / m.elapsed_s
    m.speed_factors = speed.factors
    m.layer = {
        **registry_metrics(before, registry_counts(), m.ops),
        "runner.tasks": m.ops,
        "runner.failed": m.errors,
        "runner.task_s": task_s / max(m.ops, 1),
        "runner.utilization": task_s / (WORKERS * fan_out_s),
        "runner.overhead_s": (WORKERS * fan_out_s - task_s) / max(m.ops, 1),
    }
    return m


def check(state: State, m: Measurement, expected: dict) -> list[tuple[int, str]]:
    """Every point's eq. (7) bound holds on its simulated trace, and the
    b = 1620 points reproduce the pinned frequency bounds."""
    failures = []
    for index, data in enumerate(m.outputs):
        if isinstance(data, str):
            failures.append((index, data))
            continue
        bound, observed = data["sim_bound_events"], data["sim_observed_backlog"]
        if bound is None or not bound >= observed:
            b = data["buffer_size"]
            failures.append((index, f"b={b}: bound {bound} < observed {observed}"))
        if data["buffer_size"] == 1620:
            got = (round(data["f_gamma_hz"] / 1e6, 1), round(data["f_wcet_hz"] / 1e6, 1))
            want = (expected["f_gamma_mhz"], expected["f_wcet_mhz"])
            if got != want:
                failures.append((index, f"b=1620: (F_gamma, F_wcet) = {got} MHz, expected {want}"))
    return failures


def teardown(state: State) -> None:
    pass
