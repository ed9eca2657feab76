"""paper_repro: the paper's whole reproduction, as ``python -m repro all`` runs it.

One operation is one pass: all 14 experiments of ``ALL_EXPERIMENTS``, at
their defaults (72 frames), in registry order, in a fresh interpreter, so
every pass builds the case-study context and fills the kernel memo from
cold.  The pass's latency is the sum of its experiments' times, each
scaled to the reference host speed; the interpreter start and imports
are the set-up.

Inputs are the paper's fixed clip set, so ``--seed`` does not change
them.  Run this module as a script to execute one pass and print its
outcome as JSON (``1`` as the argument traces it).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass

from bench.layers import EXPERIMENT_IDS, registry_counts, registry_metrics
from bench.spans import epoch, new_tracer, self_times
from bench.stats import HostSpeed
from bench.workloads import Measurement, op_span, units, wrapped

WRAPPED = True

#: Seconds one pass takes at the reference host speed.
PASS_S = 30.0

#: Experiments whose result data is returned for the correctness check.
CHECKED_DATA = {
    "E1": ("gamma_b_3_4", "gamma_w_3_4"),
    "E5": ("f_gamma_hz", "f_wcet_hz", "constraint_ok"),
}


@dataclass
class State:
    seed: int


def setup(seed: int) -> State:
    import repro.experiments  # noqa: F401 - the import is the set-up

    return State(seed)


def run_pass(traced: bool) -> dict:
    """Run every experiment once in this process; returns the outcome.

    ``wall_s`` is the pass's time at the reference host speed, each
    experiment scaled by the probes around it; ``seconds`` per experiment
    are raw.
    """
    from repro.experiments import ALL_EXPERIMENTS

    experiments = []
    wall = 0.0
    before = registry_counts()
    speed = HostSpeed()
    with wrapped(traced) as tracer:
        for eid, run in ALL_EXPERIMENTS.items():
            entry: dict = {"id": eid}
            t0 = time.perf_counter()
            try:
                with op_span(tracer, f"experiments.{eid}"):
                    result = run()
                entry["digest"] = result.manifest["data_digest"]
                if eid in CHECKED_DATA:
                    entry["data"] = {k: result.data[k] for k in CHECKED_DATA[eid]}
            except Exception as exc:  # noqa: BLE001 - reported as a failed pass
                entry["error"] = f"{type(exc).__name__}: {exc}"
            entry["seconds"] = time.perf_counter() - t0
            wall += entry["seconds"] / speed.mark()
            experiments.append(entry)
        spans = tracer.records() if tracer is not None else []
        epoch_s = epoch(tracer) if tracer is not None else 0.0
    return {
        "wall_s": wall,
        "speed_factors": speed.factors,
        "experiments": experiments,
        "layer": registry_metrics(before, registry_counts(), 1),
        "spans": spans,
        "epoch": epoch_s,
    }


def _spawn_pass(traced: bool) -> dict:
    # a pass that hangs is killed with the rest of the run (bench.cli)
    proc = subprocess.run(
        [sys.executable, "-m", "bench.workloads.paper_repro", "1" if traced else "0"],
        stdout=subprocess.PIPE,
        check=True,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def measure(state: State, seconds: float, traced: bool) -> Measurement:
    m = Measurement()
    # each pass's ids start at 0; ingesting gives every pass its own block
    trace = new_tracer() if traced else None
    layer: dict[str, float] = {}
    for _ in range(units(seconds, PASS_S)):
        t0 = time.perf_counter()
        m.ops += 1
        try:
            outcome = _spawn_pass(traced)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            m.errors += 1
            m.latencies_s.append(time.perf_counter() - t0)
            m.outputs.append(f"pass failed: {type(exc).__name__}: {exc}")
            continue
        m.latencies_s.append(outcome["wall_s"])
        m.speed_factors += outcome["speed_factors"]
        m.outputs.append(outcome["experiments"])
        if trace is not None:
            trace.ingest(outcome["spans"], ts_offset=outcome["epoch"] - epoch(trace))
        for name, value in outcome["layer"].items():
            layer[name] = layer.get(name, 0.0) + value
        for entry in outcome["experiments"]:
            name = f"experiments.{entry['id']}_s"
            layer[name] = layer.get(name, 0.0) + entry["seconds"]
    m.elapsed_s = sum(m.latencies_s)
    m.throughput = (m.ops - m.errors) / m.elapsed_s
    m.layer = {name: value / m.ops for name, value in layer.items()}
    if trace is not None:
        m.trace = trace
        m.layer["experiments.unattributed_s"] = _unattributed(trace.records()) / m.ops
    return m


def _unattributed(spans: list[dict]) -> float:
    """Experiment time not covered by any layer span."""
    selfs = self_times(spans)
    experiments = {f"experiments.{eid}" for eid in EXPERIMENT_IDS}
    return sum(selfs[r["id"]] for r in spans if r["name"] in experiments)


def check(state: State, m: Measurement, expected: dict) -> list[tuple[int, str]]:
    """Every experiment returns, E1 and E5 reproduce the paper's numbers.

    A data digest that differs from ``expected["digests"]`` is counted
    as ``experiments.digest_drift``, not as a failure, so a change of a
    float in its last bit does not fail the run.
    """
    failures = []
    drift = 0
    for index, experiments in enumerate(m.outputs):
        if isinstance(experiments, str):
            failures.append((index, experiments))
            continue
        by_id = {e["id"]: e for e in experiments}
        if sorted(by_id) != sorted(EXPERIMENT_IDS):
            failures.append((index, f"experiments run: {sorted(by_id)}"))
        for eid, entry in by_id.items():
            if "error" in entry:
                failures.append((index, f"{eid}: {entry['error']}"))
            elif entry["digest"] != expected["digests"].get(eid):
                drift += 1
        e1 = by_id.get("E1", {}).get("data")
        want_e1 = expected["E1"]
        if e1 is not None and e1 != want_e1:
            failures.append((index, f"E1: {e1}, expected {want_e1}"))
        e5 = by_id.get("E5", {}).get("data")
        if e5 is not None:
            got = {
                "f_gamma_mhz": round(e5["f_gamma_hz"] / 1e6, 1),
                "f_wcet_mhz": round(e5["f_wcet_hz"] / 1e6, 1),
                "constraint_ok": e5["constraint_ok"],
            }
            if got != expected["E5"]:
                failures.append((index, f"E5: {got}, expected {expected['E5']}"))
    m.layer["experiments.digest_drift"] = drift
    return failures


def teardown(state: State) -> None:
    pass


if __name__ == "__main__":
    print(json.dumps(run_pass(sys.argv[1:] == ["1"])))
