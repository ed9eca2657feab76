"""Tests for the command-line entry point (python -m repro)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.curves.curve import PiecewiseLinearCurve
from repro.experiments import ALL_EXPERIMENTS
from repro.obs.tracing import tracer

#: Curves with an interior jump and non-monotone slopes: no closed-form
#: min-plus path applies, so a convolution dispatches the generic kernel.
GENERAL = PiecewiseLinearCurve([0.0, 1.0, 2.0], [0.0, 4.0, 5.0], [3.0, 0.25, 1.0])
GENERAL_SHIFTED = PiecewiseLinearCurve([0.0, 1.5, 2.5], [0.0, 5.5, 6.5], [3.0, 0.25, 1.0])


class TestCli:
    def test_default_runs_light_set(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "[E1]" in out and "[E2]" in out and "[E3]" in out
        assert "gamma_b(3, 4) = 5" in out

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(ALL_EXPERIMENTS)

    def test_help_mentions_every_experiment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for exp_id in ALL_EXPERIMENTS:
            assert exp_id in out

    def test_specific_experiment(self, capsys):
        assert main(["E2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_fan_out_options_belong_to_sweep(self, capsys):
        for option in (["--parallel", "2"], ["--seed", "7"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["all", *option])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["E99"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "unknown experiment ids: E99" in err

    def test_trace_writes_wellformed_jsonl(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["E1", "--trace", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        for r in records:
            assert set(r) == {"name", "ts", "dur", "id", "parent", "thread", "attrs"}
        names = {r["name"] for r in records}
        assert "cli" in names and "experiment:E1" in names
        assert tracer.enabled is False  # the CLI restores the disabled state

    def test_trace_chrome_format(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["E1", "--trace", str(path), "--trace-format", "chrome"]) == 0
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]
        assert all(e["ph"] == "X" for e in trace["traceEvents"])

    def test_metrics_out_writes_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["E1", "--metrics-out", str(path)]) == 0
        snap = json.loads(path.read_text())
        assert snap["schema"] == "repro.metrics/1"
        assert snap["counters"]

    def test_out_dir_writes_report_and_manifest(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["E2", "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "E2.txt").read_text().startswith("[E2]")
        manifest = json.loads((out_dir / "E2.manifest.json").read_text())
        assert manifest["schema"] == "repro.run-manifest/1"
        assert manifest["experiment_id"] == "E2"

    def test_case_study_with_reduced_frames(self, capsys, small_context):
        # small_context pre-warms the 12-frame cache... the CLI uses its own
        # frames argument; run the cheapest heavy experiment at 12 frames
        assert main(["E5", "--frames", "12"]) == 0
        out = capsys.readouterr().out
        assert "Minimum PE2 clock frequency" in out


class TestParallelCli:
    def test_parallel_trace_and_metrics(self, capsys, tmp_path, small_context):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        args = ["sweep", "--buffers", "810,1620", "--frames", "12",
                "--dense-limit", "512", "--growth", "1.05", "--parallel", "2",
                "--trace", str(trace)]
        assert main(args + ["--metrics-out", str(metrics)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = [r["name"] for r in records]
        assert "runner.run_many" in names and "experiment:SWEEP-b810" in names
        ids = {r["id"] for r in records}
        assert all(r["parent"] is None or r["parent"] in ids for r in records)
        snap = json.loads(metrics.read_text())
        worker_series = [
            c for c in snap["counters"] if c["labels"].get("origin") == "worker"
        ]
        assert worker_series, "worker metrics must be merged into the snapshot"

    def test_parallel_sweep_builds_the_context_once(self, capsys, tmp_path):
        # a growth no other test uses: the build runs from cold, in the
        # CLI's process, before the sweep forks its workers
        args = ["sweep", "--buffers", "810,1620", "--frames", "12",
                "--dense-limit", "512", "--growth", "1.07"]
        trace = tmp_path / "trace.jsonl"
        outputs = {}
        for parallel in ("2", "1"):
            out_dir = tmp_path / f"out-{parallel}"
            extra = ["--trace", str(trace)] if parallel == "2" else []
            assert main(args + ["--parallel", parallel, "--out-dir", str(out_dir)] + extra) == 0
            table = capsys.readouterr().out.split("\n\n")[0]
            digests = [
                json.loads((out_dir / f"SWEEP-b{b}.manifest.json").read_text())["data_digest"]
                for b in (810, 1620)
            ]
            outputs[parallel] = (table.replace("workers=2", "workers=1"), digests)
        names = [json.loads(line)["name"] for line in trace.read_text().splitlines()]
        assert names.count("case_study.build") == 1
        assert names.count("case_study.clip") == 14
        assert outputs["2"] == outputs["1"]

    def test_parallel_failure_exits_nonzero(self, capsys, tmp_path):
        # an impossible frames value makes the case-study build fail; the
        # CLI must surface it, run the other ids and exit 1 without a
        # traceback
        assert main(["E5", "E1", "--frames", "-3"]) == 1
        captured = capsys.readouterr()
        assert "error: E5: frames must be >= 12, got -3" in captured.err
        assert "Traceback" not in captured.err
        assert "[E1]" in captured.out

    def test_fan_out_input_error_exits_nonzero(self, capsys):
        # A2's clips fail in its fan-out tasks: the input error must still
        # reach the CLI as one, so the other ids run and no traceback shows
        assert main(["A2", "E1", "--frames", "0"]) == 1
        captured = capsys.readouterr()
        assert "error: A2: frames must be >= 1, got 0" in captured.err
        assert "[E1]" in captured.out

    def test_cached_sweep_keeps_the_warm_up_store(self, tmp_path):
        # fresh processes, so no memo of this one hides the disk: the cold
        # sweep's warm-up writes through the store the CLI attached, which
        # the sweep keeps with its counters; the warm sweep serves the
        # warm-up, the clip tasks and the points from disk
        src = Path(repro.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        cmd = [sys.executable, "-m", "repro", "sweep", "--buffers", "810,1620",
               "--frames", "12", "--dense-limit", "512", "--growth", "1.08",
               "--parallel", "2", "--cache-dir", str(tmp_path / "kernels")]
        disk = {}
        for run in ("cold", "warm"):
            metrics = tmp_path / f"{run}.json"
            subprocess.run(
                cmd + ["--metrics-out", str(metrics)],
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONPATH": path},
            )
            disk[run] = {
                (c["name"], c["labels"].get("origin", "cli")): c["value"]
                for c in json.loads(metrics.read_text())["counters"]
                if c["name"].startswith("diskcache.")
            }
        cold, warm = disk["cold"], disk["warm"]
        assert cold[("diskcache.writes", "cli")] > 0
        assert warm[("diskcache.hits", "cli")] == cold[("diskcache.writes", "cli")]
        assert warm[("diskcache.hits", "worker")] == cold[("diskcache.writes", "worker")] > 0
        assert warm.get(("diskcache.misses", "cli"), 0) == 0
        assert warm.get(("diskcache.misses", "worker"), 0) == 0

    def test_cache_dir_serial_populates_disk(self, capsys, tmp_path):
        cache_dir = tmp_path / "kernels"
        import repro.perf as perf

        perf.clear_cache()  # force compute misses so results write through
        try:
            assert main(["E1", "--cache-dir", str(cache_dir)]) == 0
        finally:
            perf.configure(disk_dir=False)
        assert list(cache_dir.rglob("*.pkl")), "disk cache must be populated"


class TestSweepCli:
    def test_sweep_renders_table_and_manifests(self, capsys, tmp_path, small_context):
        out_dir = tmp_path / "sweep-out"
        args = [
            "sweep",
            "--buffers",
            "810,1620",
            "--frames",
            "12",
            "--dense-limit",
            "512",
            "--growth",
            "1.05",
            "--out-dir",
            str(out_dir),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Frequency/backlog sweep" in out
        assert "2/2 points" in out
        combined = json.loads((out_dir / "SWEEP.manifest.json").read_text())
        assert combined["experiment_id"] == "SWEEP"
        assert len(combined["children"]) == 2
        assert (out_dir / "SWEEP-b810.txt").exists()

    def test_sweep_reports_an_invalid_context_per_point(self, capsys):
        assert main(["sweep", "--buffers", "810", "--frames", "5"]) == 1
        captured = capsys.readouterr()
        assert "0/1 points" in captured.out
        assert "error: b=810: frames must be >= 12, got 5" in captured.err

    def test_sweep_reports_an_invalid_grid_per_point(self, capsys):
        # the CLI's warm-up build fails in its clip tasks first
        assert main(["sweep", "--buffers", "810", "--frames", "12", "--growth", "1.0"]) == 1
        captured = capsys.readouterr()
        assert "0/1 points" in captured.out
        assert "error: b=810: growth must be > 1, got 1.0" in captured.err

    def test_sweep_rejects_bad_buffers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--buffers", "810,nope"])
        assert excinfo.value.code != 0
        assert "--buffers" in capsys.readouterr().err


class TestObsCli:
    @pytest.fixture
    def run_artifacts(self, tmp_path, capsys):
        """A trace + metrics pair from a real E1 run."""
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main(["E1", "--trace", str(trace), "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()  # drop the experiment output
        return trace, metrics

    def test_report_renders_all_sections(self, capsys, run_artifacts):
        trace, metrics = run_artifacts
        assert main(["obs", "report", "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "Hottest spans by self time" in out
        assert "Kernel dispatch regimes" in out
        assert "Cache tiers" in out
        assert "consistency:" in out and "!=" not in out

    def test_report_json_export_is_valid_profile(self, capsys, run_artifacts, tmp_path):
        trace, metrics = run_artifacts
        out_path = tmp_path / "profile.json"
        assert main(["obs", "report", "--trace", str(trace),
                     "--metrics", str(metrics), "--json", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.profile/1"
        assert report["trace"]["span_count"] > 0
        cache = report["cache"]
        assert cache["memory"] + cache["disk"] + cache["miss"] == cache["lookups"]

    def test_report_prometheus_export(self, capsys, run_artifacts, tmp_path):
        _, metrics = run_artifacts
        prom = tmp_path / "metrics.prom"
        assert main(["obs", "report", "--metrics", str(metrics),
                     "--prometheus", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE" in text
        assert "_total" in text  # counters carry the Prometheus suffix

    def test_report_requires_an_input(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "report"])
        assert excinfo.value.code != 0
        assert "--trace and/or --metrics" in capsys.readouterr().err

    def test_report_window_line(self, capsys, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        for path, count in (("anchor", 25), ("pruned", 370), ("fallback", 5)):
            reg.counter("staircase.window_lengths", op="min_window", path=path).inc(count)
        metrics = tmp_path / "window.json"
        metrics.write_text(json.dumps(reg.snapshot()))
        assert main(["obs", "report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert (
            "window lengths 400: anchors 25, pruned 370, fallbacks 5 (92.5% pruned)"
            in out
        )

    def test_report_window_line_per_op(self, capsys, tmp_path):
        """A ramp's maxima sit at its end and its minima at its start: the
        max side alone prunes 74 of 200 lengths, the pair, whose
        candidates are the union of both sides', 11."""
        import numpy as np

        import repro.perf as perf
        from repro.core.workload import WorkloadCurvePair
        from repro.obs.metrics import registry
        from repro.util.staircase import cumulative_envelope_max

        registry.reset("staircase.window_lengths")
        ramp = np.linspace(1.0, 2.0, 200) + np.random.default_rng(4).uniform(0.0, 0.01, 200)
        perf.configure(enabled=False)  # count the kernel's lengths, not a memo hit
        try:
            cumulative_envelope_max(ramp, np.arange(1, 201))
            WorkloadCurvePair.from_demand_array(ramp)
        finally:
            perf.configure(enabled=True)
        metrics = tmp_path / "window.json"
        metrics.write_text(json.dumps(registry.snapshot()))
        assert main(["obs", "report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert (
            "window lengths 400: anchors 315, pruned 85, fallbacks 0 (21.2% pruned)\n"
            "  envelope_max 200: anchors 126, pruned 74, fallbacks 0\n"
            "  envelope_minmax 200: anchors 189, pruned 11, fallbacks 0\n"
        ) in out

    def test_report_stream_fold_line(self, capsys, tmp_path):
        """40 demands streamed in chunks of 16 over the lengths 1..24, 32
        and 40: each chunk folds the open part of 1..24 as one block (16,
        then 24 and 24 lengths) and 32 and 40 alone once open (1, then 2)."""
        import numpy as np

        from repro.core.workload import WorkloadCurvePair
        from repro.obs.metrics import registry

        registry.reset("staircase.stream_lengths")
        demands = np.random.default_rng(4).uniform(1.0, 9.0, 40)
        WorkloadCurvePair.from_demand_stream(
            (demands[start : start + 16] for start in range(0, 40, 16)),
            k_values=[*range(1, 25), 32, 40],
        )
        metrics = tmp_path / "stream.json"
        metrics.write_text(json.dumps(registry.snapshot()))
        assert main(["obs", "report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert (
            "stream fold lengths 67: blocked 64, single 3, re-passes 0 (95.5% blocked)"
            in out
        )

    def test_report_front_end_line(self, capsys, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("mpeg.front_end.items", path="vectorized").inc(2_566_000)
        reg.counter("mpeg.front_end.items", path="loop").inc(80)
        metrics = tmp_path / "front_end.json"
        metrics.write_text(json.dumps(reg.snapshot()))
        assert main(["obs", "report", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert (
            "front-end recursion items 2566080: vectorized 2566000, loop 80 (0.0% loop)"
            in out
        )
        assert "Simulation engine" not in out  # no chain or workload rows

    @staticmethod
    def _report_after(run, tmp_path, capsys) -> str:
        """``obs report`` of the metrics that *run* leaves behind in a freshly
        reset memo cache (whose ``cache.*`` series the snapshot publishes
        afresh) and min-plus registry series."""
        import repro.perf as perf
        from repro.obs.metrics import registry

        perf.reset()
        registry.reset("minplus.")
        run()
        metrics = tmp_path / "isolated.json"
        metrics.write_text(json.dumps(registry.snapshot()))
        perf.reset()
        assert main(["obs", "report", "--metrics", str(metrics)]) == 0
        return capsys.readouterr().out

    def test_report_counts_bypassed_dispatches(self, capsys, tmp_path):
        """A generic convolution with the memo disabled dispatches once and
        counts a bypass, not a miss: the consistency line still holds, and
        the per-op table shows the bypass."""
        import repro.perf as perf
        from repro.curves.minplus import convolve

        def run():
            perf.configure(enabled=False)
            try:
                convolve(GENERAL, GENERAL_SHIFTED)
            finally:
                perf.configure(enabled=True)

        out = self._report_after(run, tmp_path, capsys)
        assert (
            "minplus dispatches = 1 == 0 minplus memo misses + 1 bypasses" in out
        )
        assert "!=" not in out
        assert "Cache traffic per op" in out
        row = next(line for line in out.splitlines() if line.startswith("minplus.convolve "))
        assert [cell.strip() for cell in row.split("|")] == ["minplus.convolve", "0", "0", "1"]

    def test_report_fixpoint_keeps_the_dispatch_identity(self, capsys, tmp_path):
        """A sub-additive fixpoint misses the memo once for itself and once
        per inner convolution, but dispatches only the convolutions."""
        from repro.curves.minplus import self_convolution_fixpoint

        out = self._report_after(
            lambda: self_convolution_fixpoint(GENERAL, iterations=2), tmp_path, capsys
        )
        assert "minplus.self_fixpoint" in out  # in the per-op table
        assert "consistency:" in out and "!=" not in out

    def test_report_rejects_wrong_schema(self, capsys, tmp_path):
        bad = tmp_path / "not_metrics.json"
        bad.write_text('{"schema": "something/else"}')
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "report", "--metrics", str(bad)])
        assert excinfo.value.code != 0
        assert "not a repro.metrics/1 snapshot" in capsys.readouterr().err

    def test_diff_two_snapshots(self, capsys, run_artifacts, tmp_path):
        _, metrics = run_artifacts
        doctored = json.loads(metrics.read_text())
        for counter in doctored["counters"]:
            counter["value"] *= 2
        other = tmp_path / "metrics2.json"
        other.write_text(json.dumps(doctored))
        assert main(["obs", "diff", str(metrics), str(other)]) == 0
        out = capsys.readouterr().out
        assert "obs diff:" in out
        assert "2.000x" in out

    def test_diff_identical_runs_report_no_differences(self, capsys, run_artifacts):
        _, metrics = run_artifacts
        assert main(["obs", "diff", str(metrics), str(metrics)]) == 0
        assert "(no differing metrics)" in capsys.readouterr().out

    def test_flame_stdout_and_file(self, capsys, run_artifacts, tmp_path):
        trace, _ = run_artifacts
        assert main(["obs", "flame", str(trace)]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert lines
        for line in lines:
            stack, _, micros = line.rpartition(" ")
            assert stack and int(micros) > 0
        dest = tmp_path / "stacks.txt"
        assert main(["obs", "flame", str(trace), "-o", str(dest)]) == 0
        assert dest.read_text().splitlines()

    def test_obs_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["obs"])
        assert excinfo.value.code != 0
