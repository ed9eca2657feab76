"""open_system: open-system scenario grids through the simulation engine.

One operation is one ``repro.runner.tasks.open_system_point`` scenario,
run serially: a generated open-system trace, replayed through the
N-stage chain, with the per-stage eq. (7) backlog bound extracted from
the same trace.  A pass is the 24-scenario grid below, each pass drawn
from a fresh base seed derived from ``--seed``; a 10-second run is two
passes.

This workload bypasses the case study entirely (no clip generation, no
curve maximum, no context), so a context-build optimization must show no
change here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from bench.layers import registry_counts, registry_metrics
from bench.stats import HostSpeed
from bench.workloads import Measurement, op_span, sub_seed, units, wrapped

WRAPPED = True

#: Items per scenario: mid-size arrival and workload extraction.
ITEMS = 16_384

#: Seconds one pass of the grid takes at the reference host speed.
PASS_S = 4.5

#: 2 x 2 x 3 x 2 = 24 scenarios per pass.
AXES = {
    "model": ["poisson", "uniform"],
    "long_task_fraction": [0.0, 0.05],
    "demand_spread": [0.0, 0.3, 0.6],
    "stage_scales": [(1.0, 0.5, 2.0), (1.0, 1.0, 1.0, 1.0)],
}


@dataclass
class State:
    seed: int
    passes: int = 0


def setup(seed: int) -> State:
    # the imports are this workload's whole set-up
    import repro.runner.tasks  # noqa: F401
    import repro.simulation  # noqa: F401

    return State(seed)


def measure(state: State, seconds: float, traced: bool) -> Measurement:
    from repro.runner.tasks import open_system_point
    from repro.simulation.workloads import WorkloadSpec, scenario_grid

    m = Measurement()
    before = registry_counts()
    speed = HostSpeed()
    with wrapped(traced) as tracer:
        for _ in range(units(seconds, PASS_S)):
            grid = scenario_grid(
                WorkloadSpec(items=ITEMS),
                AXES,
                base_seed=sub_seed(state.seed, "open_system", state.passes),
            )
            state.passes += 1
            for spec, seed in grid:
                t0 = time.perf_counter()
                try:
                    with op_span(tracer, "open_system.scenario", model=spec.model):
                        result = open_system_point(
                            model=spec.model,
                            items=spec.items,
                            demand_spread=spec.demand_spread,
                            long_task_fraction=spec.long_task_fraction,
                            stage_scales=spec.stage_scales,
                            seed=seed,
                        )
                    m.outputs.append(result.data["stages"])
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    m.errors += 1
                    m.outputs.append(f"{type(exc).__name__}: {exc}")
                latency = (time.perf_counter() - t0) / speed.mark()
                m.latencies_s.append(latency)
                m.elapsed_s += latency
                m.ops += 1
        m.trace = tracer
    m.throughput = (m.ops - m.errors) / m.elapsed_s
    m.speed_factors = speed.factors
    m.layer = registry_metrics(before, registry_counts(), m.ops)
    return m


def check(state: State, m: Measurement, expected: dict) -> list[tuple[int, str]]:
    """Every stage has a finite eq. (7) bound at least its observed backlog."""
    failures = []
    for index, stages in enumerate(m.outputs):
        if isinstance(stages, str):
            failures.append((index, stages))
            continue
        for stage in stages:
            bound, observed = stage["bound_events"], stage["observed_backlog"]
            if bound is None or not bound >= observed:
                failures.append(
                    (index, f"stage {stage['stage']}: bound {bound} < observed {observed}")
                )
    return failures


def teardown(state: State) -> None:
    pass
