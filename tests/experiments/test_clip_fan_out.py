"""A2 and A6: one task per clip, the same bits on any CPU count.

Both run their clips through ``repro.experiments.common.fan_out``, the
case-study build's policy: one worker per CPU of the affinity mask, and
in-process on one CPU, inside a pool worker and off the main thread.  A2
generates each clip once for all its stall levels; A6 ships each clip's
description and type codes.  These tests run both at the reduced sizes
of their pins in ``test_data_digests.py``, and check that a pool run and
a one-CPU run agree to the bit, that A2 generates one clip body per
clip, and that inside a pool worker neither starts a pool of its own.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import case_study_context
from repro.mpeg.bitstream import SyntheticClip
from repro.mpeg.clips import CLIP_PROFILES
from repro.obs.tracing import tracer
from repro.runner import run_many

PARAMS = {
    "A2": {"frames": 12, "stall_levels": (0.0, 1.4), "n_clips": 3},
    "A6": {"frames": 12},
}

ONE_CPU_RUNS = """
import json, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tests.experiments.test_clip_fan_out import traced_runs
print(json.dumps(traced_runs()))
"""


def _descendants(records: list[dict], root: int) -> list[dict]:
    children: dict[int, list[dict]] = {}
    for r in records:
        children.setdefault(r["parent"], []).append(r)
    out, stack = [], list(children.get(root, ()))
    while stack:
        r = stack.pop()
        out.append(r)
        stack.extend(children.get(r["id"], ()))
    return out


def traced_runs() -> dict:
    """Run A2 and A6 under tracing (A6's context built beforehand);
    returns per experiment its data digest, the mode and workers of its
    own fan-out, its task spans under that fan-out and the processes it
    left running."""
    case_study_context(frames=PARAMS["A6"]["frames"])
    out = {}
    for eid, params in PARAMS.items():
        tracer.enable()
        tracer.reset()
        try:
            result = ALL_EXPERIMENTS[eid](**params)
            records = tracer.records()
        finally:
            tracer.disable()
        (experiment,) = [r for r in records if r["name"] == f"experiment:{eid}"]
        (runner,) = [
            r
            for r in records
            if r["name"] == "runner.run_many" and r["parent"] == experiment["id"]
        ]
        out[eid] = {
            "digest": result.manifest["data_digest"],
            "mode": runner["attrs"]["mode"],
            "workers": runner["attrs"]["workers"],
            "tasks": sum(
                r["name"] == f"{eid}.clip" for r in _descendants(records, runner["id"])
            ),
            "children": len(multiprocessing.active_children()),
        }
    return out


@pytest.fixture(scope="module")
def pool_runs():
    """The runs in this process: over a pool when it may use 2+ CPUs."""
    return traced_runs()


@pytest.fixture(scope="module")
def one_cpu_runs():
    """The same runs in a fresh interpreter pinned to one CPU."""
    src = Path(repro.__file__).resolve().parents[1]
    path = os.pathsep.join(
        filter(None, (str(src), str(src.parent), os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", ONE_CPU_RUNS],
        capture_output=True,
        text=True,
        check=True,
        cwd=src.parent,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_one_task_per_clip_over_one_worker_per_cpu(pool_runs):
    cpus = len(os.sched_getaffinity(0))
    for eid, clips in (("A2", PARAMS["A2"]["n_clips"]), ("A6", 14)):
        run = pool_runs[eid]
        assert run["tasks"] == clips, eid
        assert run["workers"] == min(cpus, clips), eid
        assert run["mode"] == ("parallel" if cpus > 1 else "serial"), eid


def test_one_cpu_runs_in_process(one_cpu_runs):
    for eid in PARAMS:
        run = one_cpu_runs[eid]
        assert (run["mode"], run["workers"], run["children"]) == ("serial", 1, 0), eid
    assert one_cpu_runs["A2"]["tasks"] == PARAMS["A2"]["n_clips"]
    assert one_cpu_runs["A6"]["tasks"] == 14


def test_pool_and_one_cpu_runs_are_bit_identical(pool_runs, one_cpu_runs):
    for eid in PARAMS:
        assert pool_runs[eid]["digest"] == one_cpu_runs[eid]["digest"], eid


def test_a2_generates_one_clip_body_per_clip(monkeypatch):
    # every clip body is generated here, generate() included
    generated = []
    generate = SyntheticClip.generate_pe2_variants

    def counting(self, models):
        generated.append(self.profile.name)
        return generate(self, models)

    monkeypatch.setattr(SyntheticClip, "generate_pe2_variants", counting)
    # off the main thread the fan-out runs in-process, where the calls show
    with ThreadPoolExecutor(max_workers=1) as thread:
        result = thread.submit(ALL_EXPERIMENTS["A2"], **PARAMS["A2"]).result()
    assert len(result.data["rows"]) == len(PARAMS["A2"]["stall_levels"])
    busiest = CLIP_PROFILES[-PARAMS["A2"]["n_clips"] :]
    assert generated == [profile.name for profile in busiest]


def nested_run(experiment_id: str) -> tuple[str, int]:
    """A pool task that runs an experiment: returns its data digest and
    the processes the run left running.  It runs unharnessed, so the
    worker's metrics merged into this process gain no manifest gauges."""
    result = ALL_EXPERIMENTS[experiment_id].__wrapped__(**PARAMS[experiment_id])
    return obs.digest_json(result.data), len(multiprocessing.active_children())


def test_a2_and_a6_inside_a_pool_worker_stay_in_process(pool_runs):
    tracer.enable()
    tracer.reset()
    try:
        with tracer.span("test-root"):
            results = run_many(nested_run, list(PARAMS), max_workers=2)
        records = tracer.records()
    finally:
        tracer.disable()
    assert [r.unwrap() for r in results] == [
        (pool_runs[eid]["digest"], 0) for eid in PARAMS
    ]
    (outer,) = [
        r for r in records if r["name"] == "runner.run_many" and r["attrs"]["tasks"] == 2
    ]
    nested = [r for r in _descendants(records, outer["id"]) if r["name"] == "runner.run_many"]
    assert len(nested) == len(PARAMS)
    assert all(r["attrs"]["mode"] == "serial" for r in nested)
    assert all(r["attrs"]["workers"] == 1 for r in nested)
