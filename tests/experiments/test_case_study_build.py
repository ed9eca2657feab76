"""The case-study build: one clip per task, the same context on any CPU count.

``case_study_context`` hands each clip's generation and curve extraction
to ``repro.runner.run_many``, over one worker per CPU of the process's
affinity mask; the parent combines the curves in clip order.  These
tests build a 12-frame context (as ``small_context`` does) under a
buffer size no other test uses, so each build runs from cold, and check
that a pool build and a one-CPU build agree to the bit, that the context
keeps one small read-only record per clip and no clip's generated data,
that the experiments reading the clips never generate one again, that
the work counters and the phase spans still account for the build, that
a build inside a pool worker stays in-process, and that a failed clip
fails the build.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.common import ClipRecord, case_study_context
from repro.mpeg.bitstream import SyntheticClip
from repro.mpeg.clips import standard_clips
from repro.obs.metrics import registry
from repro.obs.tracing import tracer
from repro.perf.cache import digest_of
from repro.runner import RunnerError, run_many

#: Build parameters of ``small_context``, under buffer sizes of their own.
PARAMS = {"frames": 12, "dense_limit": 512, "growth": 1.05}
BUFFER = 997
NESTED_BUFFER = 998
FAILING_BUFFER = 999

#: Counters whose totals account for the build's work.
WORK_COUNTERS = ("staircase.window_lengths", "mpeg.front_end.items")
PHASES = ("case_study.clip", "case_study.generate", "case_study.workload", "case_study.arrival")

#: What a clip record may hold per macroblock: two float64 traces, two int8 codes.
RECORD_BYTES_PER_EVENT = 18

ONE_CPU_BUILD = """
import json, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tests.experiments.test_case_study_build import traced_build
print(json.dumps(traced_build()))
"""


def _counter_total(name: str) -> float:
    return sum(e["value"] for e in registry.snapshot()["counters"] if e["name"] == name)


def _array_bytes(root) -> int:
    """Bytes of the numpy arrays reachable from *root* through containers
    and instance attributes (not through classes, modules or functions),
    each buffer counted once."""
    owners: dict[int, int] = {}
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType, str, bytes, int, float)
        ):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                stack.extend(
                    getattr(obj, name)
                    for name in getattr(cls, "__slots__", ())
                    if hasattr(obj, name)
                )
    return sum(owners.values())


def _record_arrays(record: ClipRecord) -> list[np.ndarray]:
    return [getattr(record, f.name) for f in fields(record)]


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


def traced_build() -> dict:
    """Build the ``BUFFER`` context under tracing; returns the bit patterns
    of what the context holds, the shape of its clip records and the
    bytes it holds, the work counters' growth, the build's runner mode
    and the phase spans under ``case_study.build``."""
    before = {name: _counter_total(name) for name in WORK_COUNTERS}
    tracer.enable()
    tracer.reset()
    try:
        ctx = case_study_context(buffer_size=BUFFER, **PARAMS)
        records = tracer.records()
    finally:
        tracer.disable()
    (build,) = [r for r in records if r["name"] == "case_study.build"]
    below = _descendants(records, build["id"])
    (runner,) = [r for r in below if r["name"] == "runner.run_many"]
    return {
        "gamma_u": digest_of(ctx.gamma_u.k_values, ctx.gamma_u.values).hex(),
        "gamma_l": digest_of(ctx.gamma_l.k_values, ctx.gamma_l.values).hex(),
        "alpha": digest_of(
            ctx.alpha.breakpoints, ctx.alpha.values_at_breakpoints, ctx.alpha.slopes
        ).hex(),
        "bounds": [
            ctx.wcet.hex(),
            ctx.bcet.hex(),
            *(b.frequency.hex() for b in (ctx.f_gamma, ctx.f_wcet)),
            *(b.critical_delta.hex() for b in (ctx.f_gamma, ctx.f_wcet)),
        ],
        "input_digest": ctx.input_digest,
        "records": digest_of(
            *(a for record in ctx.records for a in _record_arrays(record))
        ).hex(),
        "record_shape": {
            "count": len(ctx.records),
            "events": sorted(
                {a.size for record in ctx.records for a in _record_arrays(record)}
            ),
            "mb_per_frame": sorted({clip.mb_per_frame for clip in ctx.clips}),
            "dtypes": [str(a.dtype) for a in _record_arrays(ctx.records[0])],
            "writeable": sum(
                a.flags.writeable for record in ctx.records for a in _record_arrays(record)
            ),
        },
        "clips_with_data": sum(clip._data is not None for clip in ctx.clips),
        "bytes": {
            "context": _array_bytes(ctx),
            "curves": _array_bytes(
                (ctx.gamma_u, ctx.gamma_l, ctx.alpha, ctx.f_gamma, ctx.f_wcet)
            ),
            "clip_descriptions": _array_bytes(standard_clips(frames=PARAMS["frames"])),
            "macroblocks": sum(record.pe2_cycles.size for record in ctx.records),
        },
        "work": {name: _counter_total(name) - before[name] for name in WORK_COUNTERS},
        "mode": runner["attrs"]["mode"],
        "workers": runner["attrs"]["workers"],
        "phases": {name: sum(r["name"] == name for r in below) for name in PHASES},
        "children": len(multiprocessing.active_children()),
    }


@pytest.fixture(scope="module")
def pool_build():
    """The build in this process: over a pool when it may use 2+ CPUs."""
    return traced_build()


@pytest.fixture(scope="module")
def one_cpu_build():
    """The same build in a fresh interpreter pinned to one CPU."""
    src = Path(repro.__file__).resolve().parents[1]
    path = os.pathsep.join(
        filter(None, (str(src), str(src.parent), os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", ONE_CPU_BUILD],
        capture_output=True,
        text=True,
        check=True,
        cwd=src.parent,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_build_uses_one_worker_per_cpu(pool_build):
    cpus = min(len(os.sched_getaffinity(0)), 14)
    assert pool_build["workers"] == cpus
    assert pool_build["mode"] == ("parallel" if cpus > 1 else "serial")


def test_one_cpu_build_runs_in_process(one_cpu_build):
    assert one_cpu_build["mode"] == "serial"
    assert one_cpu_build["workers"] == 1
    assert one_cpu_build["children"] == 0


def test_pool_and_one_cpu_builds_are_bit_identical(pool_build, one_cpu_build):
    for field in ("gamma_u", "gamma_l", "alpha", "bounds", "input_digest", "records"):
        assert pool_build[field] == one_cpu_build[field], field


def test_work_counters_account_for_the_build(pool_build, one_cpu_build):
    assert pool_build["work"] == one_cpu_build["work"]
    assert all(count > 0 for count in pool_build["work"].values())


def test_phase_spans_sit_under_the_build(pool_build, one_cpu_build):
    for build in (pool_build, one_cpu_build):
        assert build["phases"] == dict.fromkeys(PHASES, 14)


def test_context_keeps_one_read_only_record_per_clip(pool_build, one_cpu_build):
    for build in (pool_build, one_cpu_build):
        shape = build["record_shape"]
        assert shape["count"] == 14
        (mb_per_frame,) = shape["mb_per_frame"]
        assert shape["events"] == [PARAMS["frames"] * mb_per_frame]
        assert shape["dtypes"] == ["float64", "float64", "int8", "int8"]
        assert shape["writeable"] == 0
        assert build["clips_with_data"] == 0


def test_context_holds_18_bytes_per_macroblock_besides_its_curves(pool_build, one_cpu_build):
    for build in (pool_build, one_cpu_build):
        held = build["bytes"]
        assert held["context"] <= (
            RECORD_BYTES_PER_EVENT * held["macroblocks"]
            + held["curves"]
            + held["clip_descriptions"]
        )


def test_clip_readers_never_generate_a_clip(monkeypatch):
    ctx = case_study_context(frames=PARAMS["frames"])

    def regenerate(self):
        raise AssertionError(f"clip {self.profile.name} generated again")

    monkeypatch.setattr(SyntheticClip, "_generate", regenerate)
    e6 = ALL_EXPERIMENTS["E6"](frames=PARAMS["frames"])
    e7 = ALL_EXPERIMENTS["E7"](frames=PARAMS["frames"])
    a6 = ALL_EXPERIMENTS["A6"](frames=PARAMS["frames"])
    assert e6.data["clips"] == ctx.clip_names
    assert not e6.data["any_overflow"]
    assert 0 < e7.data["sim_max"] <= e7.data["bound_curves"]
    assert len(a6.data["rows"]) == 3
    for result in (e6, e7, a6):
        assert result.manifest["inputs"]["case_study_context"] == ctx.input_digest


def test_a_record_stays_read_only_across_processes():
    record = ClipRecord(np.arange(3.0), np.ones(3), np.zeros(3, np.int8), np.ones(3, np.int8))
    (shipped,) = [r.unwrap() for r in run_many(_identity, [record], max_workers=2)]
    assert all(not a.flags.writeable for a in _record_arrays(shipped))
    assert all(np.array_equal(a, b) for a, b in zip(_record_arrays(shipped), _record_arrays(record)))


def _identity(item):
    return item


def nested_build(buffer_size: int) -> tuple[str, int]:
    """A pool task that builds a context: returns its digest and the
    processes the build left running."""
    ctx = case_study_context(buffer_size=buffer_size, **PARAMS)
    return ctx.input_digest, len(multiprocessing.active_children())


def test_build_inside_a_pool_worker_stays_in_process():
    tracer.enable()
    tracer.reset()
    try:
        with tracer.span("test-root"):
            results = run_many(nested_build, [NESTED_BUFFER] * 2, max_workers=2)
        records = tracer.records()
    finally:
        tracer.disable()
    assert [r.unwrap()[1] for r in results] == [0, 0]
    digests = {r.unwrap()[0] for r in results}
    assert digests == {case_study_context(buffer_size=NESTED_BUFFER, **PARAMS).input_digest}
    (outer,) = [
        r for r in records if r["name"] == "runner.run_many" and r["attrs"]["tasks"] == 2
    ]
    nested = [r for r in _descendants(records, outer["id"]) if r["name"] == "runner.run_many"]
    assert nested
    assert all(r["attrs"]["mode"] == "serial" for r in nested)
    assert all(r["attrs"]["workers"] == 1 for r in nested)


def test_a_failed_clip_fails_the_build(monkeypatch):
    generate = SyntheticClip._generate

    def failing(self):
        if self.profile.name == "football":
            raise RuntimeError("injected clip failure")
        return generate(self)

    monkeypatch.setattr(SyntheticClip, "_generate", failing)
    with pytest.raises(RunnerError, match="injected clip failure"):
        case_study_context(buffer_size=FAILING_BUFFER, **PARAMS)
