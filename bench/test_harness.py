"""Tests of the benchmark harness: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

from bench import child, cli
from bench.compare import verdict
from bench.layers import LAYER_METRICS, TARGETS, span_metrics
from bench import stats
from bench.spans import Target, install, self_times
from bench.stats import MIN_BEYOND, latency_summary, tail_percentile
from bench.workloads import design_sweep, open_system, paper_repro, service

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(records, name, span_id, parent, ts, dur):
    records.append(
        {"name": name, "id": span_id, "parent": parent, "ts": ts, "dur": dur, "thread": 0, "attrs": {}}
    )


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    records = []
    _span(records, "root", 0, None, 0.0, 10.0)
    _span(records, "a", 1, 0, 1.0, 3.0)
    _span(records, "b", 2, 1, 1.5, 1.0)
    _span(records, "c", 3, 0, 5.0, 2.0)
    selfs = self_times(records)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})


def test_self_time_counts_overlapping_children_once():
    # two workers' tasks overlap under one sweep span
    records = []
    _span(records, "sweep", 0, None, 0.0, 10.0)
    _span(records, "task", 1, 0, 1.0, 4.0)
    _span(records, "task", 2, 0, 3.0, 4.0)
    _span(records, "task", 3, 0, 9.0, 5.0)  # runs past the parent's end
    assert self_times(records)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_span_metrics_are_per_op_self_times():
    records = []
    _span(records, "curves.maximum", 0, None, 0.0, 4.0)
    _span(records, "staircase.oneshot", 1, 0, 0.0, 1.0)
    records[1]["attrs"]["work"] = 100
    metrics = span_metrics(records, ops=2)
    assert metrics["curves.maximum_s"] == pytest.approx(1.5)
    assert metrics["curves.maximum_calls"] == 0.5
    assert metrics["staircase.oneshot_window_sums"] == 50


# -- percentiles ----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 2500, 7))
def test_tail_percentile_keeps_ten_samples_beyond(n):
    p = tail_percentile(n)
    if p is None:
        assert n * 0.5 < MIN_BEYOND
        return
    assert n * (100 - p) / 100 >= MIN_BEYOND
    higher = [q for q in (50, 75, 90, 95, 99) if q > p]
    assert all(n * (100 - q) / 100 < MIN_BEYOND for q in higher)


def test_latency_summary_labels_its_tail():
    assert tail_percentile(1000) == 99
    assert tail_percentile(140) == 90
    summary = latency_summary([0.001 * i for i in range(1, 201)])
    assert summary["tail"] == "p95" and summary["n"] == 200
    one = latency_summary([0.25])
    assert one["tail"] == "max" and one["tail_ms"] == one["p50_ms"] == 250.0


# -- open loop ------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_open_loop_sends_on_schedule_and_reports_lateness():
    clock = FakeClock()
    sent = []

    def send(i, due, at):
        sent.append((i, due, at))
        clock.now += 0.3 if i == 1 else 0.01  # request 1 stalls the generator

    times = service.open_loop([0.0, 0.1, 0.2, 1.0], send, clock=clock, sleep=clock.sleep)
    lateness = [round(at - due, 9) for due, at in times]
    # the stall makes request 2 late; request 3 is back on schedule
    assert lateness == [0.0, 0.0, round(0.1 + 0.3 - 0.2, 9), 0.0]
    assert [due for _, due, _ in sent] == pytest.approx([100.0, 100.1, 100.2, 101.0])


def test_poisson_offsets_have_stratified_exponential_gaps():
    import numpy as np

    offsets = service.poisson_offsets(np.random.default_rng(4), 1000, 15.0)
    gaps = np.diff(offsets, prepend=0.0)
    assert (gaps > 0).all() and offsets[-1] / 1000 == pytest.approx(1 / 15.0, rel=0.02)
    # one gap in each 1/n-quantile band of the exponential distribution
    bands = np.floor(-np.expm1(-15.0 * gaps) * 1000).astype(int)
    assert sorted(bands) == list(range(1000))
    again = service.poisson_offsets(np.random.default_rng(4), 1000, 15.0)
    assert np.array_equal(offsets, again)


# -- wrappers -------------------------------------------------------------------


@pytest.fixture
def fake_modules():
    defs = types.ModuleType("repro._bench_fake_defs")

    def work(x):
        return x + 1

    class Shape:
        def grow(self, x):
            return x * 2

        @classmethod
        def build(cls, x):
            return x

    work.__module__ = Shape.__module__ = defs.__name__
    defs.work, defs.Shape = work, Shape
    user = types.ModuleType("repro._bench_fake_user")
    user.work = work  # ``from repro._bench_fake_defs import work``
    sys.modules[defs.__name__] = defs
    sys.modules[user.__name__] = user
    yield defs, user
    del sys.modules[defs.__name__], sys.modules[user.__name__]


def test_wrappers_catch_aliases_and_uninstall_restores_identical_objects(fake_modules):
    defs, user = fake_modules
    work = defs.work
    grow = vars(defs.Shape)["grow"]
    build = vars(defs.Shape)["build"]
    targets = [
        Target("fake.work", defs.__name__, "work"),
        Target("fake.grow", defs.__name__, "Shape.grow"),
        Target("fake.build", defs.__name__, "Shape.build"),
    ]
    installed = install(targets)
    assert user.work is defs.work is not work
    late = types.ModuleType("repro._bench_fake_late")
    late.work = defs.work  # an alias taken while the wrappers are installed
    sys.modules[late.__name__] = late
    try:
        assert user.work(1) == 2 and defs.Shape().grow(3) == 6 and defs.Shape.build(5) == 5
        names = [r["name"] for r in installed.tracer.records()]
        assert names == ["fake.work", "fake.grow", "fake.build"]
        installed.uninstall()
        assert user.work is work and defs.work is work and late.work is work
        assert vars(defs.Shape)["grow"] is grow and vars(defs.Shape)["build"] is build
    finally:
        del sys.modules[late.__name__]


def test_real_targets_resolve_and_catch_program_aliases():
    import repro.curves.arrival as arrival
    import repro.experiments.common as common

    original = arrival.from_trace_upper
    installed = install(TARGETS)
    try:
        assert common.from_trace_upper is arrival.from_trace_upper is not original
    finally:
        installed.uninstall()
    assert common.from_trace_upper is arrival.from_trace_upper is original


# -- benchmark contract ---------------------------------------------------------


def test_layer_metric_table_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_METRICS
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(cli.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_results_carry_every_benchmark_metric_with_its_unit(trace, tmp_path):
    record = cli.run_workload("open_system", 7, 0.1, trace)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert record["correct"] and record["failed"] == 0 and record["attempted"] == 24
    results = tmp_path / "results.json"
    cli.append_results([record], results)
    cli.append_results([record], results)
    assert len(json.loads(results.read_text())["runs"]) == 2
    line = cli.summary([record])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_timed_out_child_is_killed_with_every_process_below_it():
    import subprocess

    # the grandchild runs in a session of its own, as the service daemon does
    script = (
        "import subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],"
        " start_new_session=True)\n"
        "time.sleep(60)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE)
    deadline = time.monotonic() + 10.0
    while not cli._descendants(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    below = cli._descendants(proc.pid)
    assert len(below) == 1
    cli._kill_tree(proc)
    assert proc.returncode is not None and not cli._running(below[0])


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "improved"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "worse"
    assert verdict(base, [100.2, 99.8, 100.1, 100.0, 99.9], "lower", 0.1)[0] == "no worse"
    noisy = [50.0, 150.0, 90.0, 120.0, 70.0]
    assert verdict(base, noisy, "higher", 0.1)[0] == "unresolved"


def test_host_speed_scales_each_segment_by_the_probes_around_it(monkeypatch):
    readings = iter([0.02, 0.04, 0.02])
    monkeypatch.setattr(stats, "probe_s", lambda: next(readings))
    speed = stats.HostSpeed()
    ref = stats.REFERENCE_PROBE_S
    assert [speed.mark(), speed.mark()] == pytest.approx([0.03 / ref, 0.03 / ref])


def test_host_speed_probes_with_helper_processes_and_stops_them():
    import multiprocessing

    with stats.HostSpeed(processes=2) as speed:
        assert speed.mark() > 0 and len(speed.readings) == 2
    assert not multiprocessing.active_children()


# -- workloads ------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_round():
    state = design_sweep.setup(11)
    return state, design_sweep.measure(state, 0.01, traced=True)


def test_design_sweep_round_runs_checks_and_traces_workers(sweep_round):
    state, m = sweep_round
    assert m.ops == 192 and m.errors == 0 and len(m.latencies_s) == 192
    assert design_sweep.check(state, m, {"f_gamma_mhz": 364.2, "f_wcet_mhz": 758.7}) == []
    spans = m.trace.records()
    assert len({r["id"] for r in spans}) == len(spans)
    tasks = {r["id"] for r in spans if r["name"] == "runner.task"}
    assert len(tasks) == m.ops
    (sweep,) = [r for r in spans if r["name"] == "runner.sweep"]
    assert {r["parent"] for r in spans if r["id"] in tasks} == {sweep["id"]}
    # the workers' spans land inside the sweep on the parent's clock
    for r in spans:
        if r["id"] in tasks:
            assert sweep["ts"] <= r["ts"] and r["ts"] + r["dur"] <= sweep["ts"] + sweep["dur"]
    assert m.layer["runner.tasks"] == 192 and 0 < m.layer["runner.utilization"] <= 1


def test_wrong_expected_value_drives_error_rate_above_zero(sweep_round, tmp_path, monkeypatch):
    state, m = sweep_round
    failures = design_sweep.check(state, m, {"f_gamma_mhz": 300.0, "f_wcet_mhz": 758.7})
    assert len({i for i, _ in failures}) == 32  # the b = 1620 points
    expected = json.loads(child.EXPECTED.read_text())
    expected["open_system"] = {}
    expected["design_sweep"]["f_wcet_mhz"] = 1.0
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    monkeypatch.setattr(child, "EXPECTED", wrong)
    out = child.measure("design_sweep", design_sweep, state, 0.01, trace=False)
    assert out["failed"] / out["attempted"] > 0


def test_open_system_pass_is_correct():
    state = open_system.setup(3)
    m = open_system.measure(state, 0.01, traced=False)
    assert m.ops == 24 and len(m.latencies_s) == 24 and m.throughput > 0
    assert open_system.check(state, m, {}) == []


def test_service_phases_check_against_numpy():
    state = service.setup(5)
    try:
        m = service.measure(state, 0.5, traced=True)
    finally:
        service.teardown(state)
    assert state.daemon.returncode is not None
    n_open = round(service.OPEN_RATE * 0.5)
    assert len(m.latencies_s) == n_open and m.ops > n_open and m.errors == 0
    assert service.check(state, m, {}) == []
    names = {r["name"] for r in m.trace.records()}
    assert names == {"service.request", "service.queue", "service.exec"}
    # a corrupted response fails the check
    _, record = m.outputs[0]
    record["result"]["gamma_u"] = record["result"]["gamma_u"] + 1.0
    assert service.check(state, m, {})[0][0] == 0


def test_paper_pass_reports_experiments_and_spans(monkeypatch):
    import repro.experiments

    subset = {eid: repro.experiments.ALL_EXPERIMENTS[eid] for eid in ("E1", "E2", "E3")}
    monkeypatch.setattr(repro.experiments, "ALL_EXPERIMENTS", subset)
    outcome = paper_repro.run_pass(traced=True)
    assert [e["id"] for e in outcome["experiments"]] == ["E1", "E2", "E3"]
    assert outcome["experiments"][0]["data"] == {"gamma_b_3_4": 5.0, "gamma_w_3_4": 13.0}
    assert {"experiments.E1", "scheduling.rms"} <= {r["name"] for r in outcome["spans"]}
    json.dumps(outcome)  # the pass reports through a pipe


def test_paper_passes_merge_into_one_trace_with_distinct_ids(monkeypatch):
    # two passes whose spans carry the same ids, as each pass's tracer
    # numbers from 0: an experiment with one layer span below it
    def outcome(wall):
        spans = [
            {"name": "curves.maximum", "id": 0, "parent": 1, "ts": 0.5, "dur": wall - 1.0,
             "thread": 1, "attrs": {}},
            {"name": "experiments.E1", "id": 1, "parent": None, "ts": 0.0, "dur": wall,
             "thread": 1, "attrs": {}},
        ]
        experiments = [{"id": "E1", "seconds": wall, "digest": "x"}]
        return {"wall_s": wall, "speed_factors": [1.0], "experiments": experiments,
                "layer": {}, "spans": spans, "epoch": 0.0}

    passes = iter([outcome(4.0), outcome(6.0)])
    monkeypatch.setattr(paper_repro, "_spawn_pass", lambda traced: next(passes))
    m = paper_repro.measure(paper_repro.State(1), 2 * paper_repro.PASS_S, traced=True)
    spans = m.trace.records()
    assert m.ops == 2 and len({r["id"] for r in spans}) == 4
    by_id = {r["id"]: r for r in spans}
    for r in spans:
        if r["name"] == "curves.maximum":
            assert by_id[r["parent"]]["name"] == "experiments.E1"
            assert by_id[r["parent"]]["dur"] == r["dur"] + 1.0
    # each experiment leaves 1 s to no layer: 1 s per pass
    assert m.layer["experiments.unattributed_s"] == pytest.approx(1.0)
    assert span_metrics(spans, m.ops)["curves.maximum_s"] == pytest.approx(4.0)
