"""Acceptance gates for the observability layer (profiler + trajectory).

Load-bearing properties gated in CI:

* **profiler overhead < 5 %** on the BENCH_minplus general-pair case:
  tracing + metrics must stay cheap enough to leave on for any run worth
  profiling — the whole premise of the continuous observatory is that
  observation does not distort what it observes;
* **trajectory round-trip**: two consecutive benchmark "runs" append two
  records to a store and the rolling-baseline gate passes on them, while
  a synthetic 2x regression fails it (exit-status semantics of
  ``scripts/check_trajectory.py`` are covered in
  ``tests/obs/test_trajectory.py``).

Both gates merge their measurements into ``benchmarks/BENCH_obs.json``.
"""

import json
import time
from pathlib import Path

import numpy as np

import repro.perf as perf
from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import convolve_generic
from repro.obs import registry, trajectory, tracer

BENCH_PATH = Path(__file__).parent / "BENCH_obs.json"

#: General-pair size of the overhead gate: the same regime as the
#: BENCH_minplus general-pair case but sized so one call is ~1 s, not
#: ~24 s — three timed pairs keep the gate's wall clock reasonable while
#: the per-call work is still far above tracing granularity.
SEGMENTS = 80


def _merge_report(section: str, payload: dict) -> None:
    report = {}
    if BENCH_PATH.exists():
        report = json.loads(BENCH_PATH.read_text())
    report[section] = payload
    BENCH_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _random_general(rng: np.random.Generator, n: int) -> PiecewiseLinearCurve:
    gaps = rng.uniform(0.5, 2.0, n - 1)
    xs = np.concatenate(([0.0], np.cumsum(gaps)))
    ss = rng.uniform(0.1, 10.0, n)
    ys = np.cumsum(np.concatenate(([0.0], np.diff(xs) * ss[:-1])))
    return PiecewiseLinearCurve(xs, ys, ss)


def _time_generic_pair(f, g, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        convolve_generic(f, g)
        best = min(best, time.perf_counter() - t0)
    return best


def test_profiler_overhead_gate():
    """Full observation (tracing enabled + metrics) must cost < 5 % on
    the general-pair generic kernel — the observatory must not distort
    the workload it characterizes."""
    rng = np.random.default_rng(424242)
    f = _random_general(rng, SEGMENTS)
    g = _random_general(rng, SEGMENTS)
    assert not (f.is_convex or f.is_concave)

    perf.configure(enabled=False)  # time the kernel, not the memo cache
    was_enabled = tracer.enabled
    try:
        tracer.disable()
        _time_generic_pair(f, g, repeats=1)  # warm numpy/allocator
        off_seconds = _time_generic_pair(f, g)

        tracer.enable()
        tracer.reset()
        on_seconds = _time_generic_pair(f, g)
        span_count = len(tracer.records())
        tracer.disable()
        tracer.reset()
    finally:
        if was_enabled:
            tracer.enable()
        perf.configure(enabled=True)

    assert span_count > 0, "tracing was on but the kernel recorded no spans"
    overhead = on_seconds / off_seconds - 1.0
    _merge_report(
        "profiler_overhead",
        {
            "segments": SEGMENTS,
            "untraced_seconds": off_seconds,
            "traced_seconds": on_seconds,
            "overhead_fraction": overhead,
            "spans_per_call": span_count // 3 or span_count,
        },
    )
    assert overhead < 0.05, (
        f"tracing overhead {overhead:.1%} breaches the 5% gate "
        f"({off_seconds:.3f}s -> {on_seconds:.3f}s)"
    )


def test_trajectory_two_runs_gate(tmp_path):
    """Two consecutive runs append two records and the rolling gate
    passes; a synthetic 2x regression on a gated ratio fails it."""
    store = tmp_path / "TRAJECTORY.jsonl"
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "BENCH_demo.json").write_text(
        json.dumps({"pair": {"backend": "soa", "speedup": 8.0, "seconds": 1.0}})
    )

    for run in ("one", "two"):
        record = trajectory.build_record(bench_dir, run_id=run)
        trajectory.append_record(record, store)
    records = trajectory.read_records(store)
    assert len(records) == 2
    assert [r["run_id"] for r in records] == ["one", "two"]
    assert records[-1]["backends"] == {"demo.pair": "soa"}
    verdict = trajectory.check_records(records)
    # every record also carries the gated package size, code.src_lines
    assert verdict["ok"] and verdict["checked"] == 2
    assert set(verdict["baselines"]) == {"demo.pair.speedup", "code.src_lines"}

    regressed = json.loads(json.dumps(records[-1]))
    regressed["metrics"]["demo.pair.speedup"] /= 2.0  # the 2x regression
    verdict = trajectory.check_records(records + [regressed])
    assert not verdict["ok"]
    assert verdict["violations"][0]["metric"] == "demo.pair.speedup"

    _merge_report(
        "trajectory_roundtrip",
        {
            "records": len(records),
            "gated_metrics": 2,
            "regression_detected": True,
        },
    )


def test_report_generation_fast():
    """Building a profile report over a 10k-span trace stays sub-second —
    ``obs report`` must be usable in the inner dev loop."""
    from repro.obs import profile_report

    rng = np.random.default_rng(7)
    records = []
    for i in range(10_000):
        records.append(
            {
                "name": f"kernel.{i % 7}",
                "ts": float(i) * 1e-4,
                "dur": float(rng.uniform(1e-5, 1e-3)),
                "id": i,
                "parent": None if i % 5 == 0 else i - 1,
                "thread": 1,
                "attrs": {"backend": ("numpy", "soa")[i % 2]},
            }
        )
    snapshot = registry.snapshot()
    t0 = time.perf_counter()
    report = profile_report(records, snapshot)
    seconds = time.perf_counter() - t0
    assert report["trace"]["span_count"] == 10_000
    _merge_report(
        "report_generation",
        {"spans": 10_000, "seconds": seconds},
    )
    assert seconds < 1.0, f"profile_report took {seconds:.2f}s on 10k spans"
