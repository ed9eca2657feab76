"""Tests for repro.obs.trajectory and scripts/check_trajectory.py."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.trajectory import (
    TRAJECTORY_SCHEMA,
    append_record,
    build_record,
    check_records,
    env_fingerprint,
    flatten_bench,
    metric_direction,
    read_records,
    source_lines,
)

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_trajectory.py"


def _record(metrics, run_id=None):
    return {
        "schema": TRAJECTORY_SCHEMA,
        "run_id": run_id,
        "timestamp": None,
        "metrics": metrics,
        "backends": {},
        "env": env_fingerprint(),
    }


class TestFlatten:
    def test_numeric_leaves_become_dotted_metrics(self):
        metrics, backends = flatten_bench(
            "minplus",
            {"pair": {"speedup": 7.5, "segments": 200, "backend": "soa"}},
        )
        assert metrics == {
            "minplus.pair.speedup": 7.5,
            "minplus.pair.segments": 200.0,
        }
        assert backends == {"minplus.pair": "soa"}

    def test_booleans_and_strings_excluded(self):
        metrics, backends = flatten_bench(
            "x", {"s": {"ok": True, "note": "fast", "v": 1}}
        )
        assert metrics == {"x.s.v": 1.0}
        assert backends == {}

    def test_non_dict_sections_skipped(self):
        metrics, _ = flatten_bench("x", {"schema": "v1", "s": {"v": 2}})
        assert metrics == {"x.s.v": 2.0}


class TestBuildAppendRead:
    def test_roundtrip(self, tmp_path):
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "BENCH_a.json").write_text(
            json.dumps({"s": {"speedup": 3.0, "backend": "soa"}})
        )
        (bench / "not_a_bench.json").write_text("{}")
        store = tmp_path / "T.jsonl"
        record = build_record(bench, run_id="r1", timestamp="2026-08-08T00:00:00Z")
        append_record(record, store)
        append_record(build_record(bench, run_id="r2"), store)
        records = read_records(store)
        assert [r["run_id"] for r in records] == ["r1", "r2"]
        assert records[0]["schema"] == TRAJECTORY_SCHEMA
        assert records[0]["metrics"] == {
            "a.s.speedup": 3.0,
            "code.src_lines": float(source_lines()),
        }
        assert records[0]["backends"] == {"a.s": "soa"}
        assert records[0]["timestamp"] == "2026-08-08T00:00:00Z"

    def test_missing_store_is_empty_history(self, tmp_path):
        assert read_records(tmp_path / "absent.jsonl") == []

    def test_malformed_line_raises_with_location(self, tmp_path):
        store = tmp_path / "T.jsonl"
        store.write_text('{"schema": "repro.trajectory/1"}\n{broken\n')
        with pytest.raises(ValueError, match=r"T\.jsonl:2"):
            read_records(store)

    def test_env_fingerprint_fields(self):
        env = env_fingerprint()
        assert env["python"]
        assert env["numpy"]  # numpy is a hard dependency of the repo
        assert env["cpu_count"] >= 1
        assert "git_sha" in env

    def test_every_record_counts_package_source_lines(self, tmp_path):
        package = Path(repro.__file__).parent
        expected = sum(
            1
            for path in package.rglob("*.py")
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        )
        record = build_record(tmp_path)  # no BENCH files at all
        assert record["metrics"] == {"code.src_lines": float(expected)}
        assert expected > 1000
        assert metric_direction("code.src_lines") == "lower"
        grown = [_record({"code.src_lines": 10_000.0}) for _ in range(3)]
        grown.append(_record({"code.src_lines": 15_000.0}))
        (violation,) = check_records(grown)["violations"]
        assert violation["metric"] == "code.src_lines"
        assert violation["direction"] == "lower"


class TestDirections:
    def test_gated_patterns(self):
        assert metric_direction("minplus.general_backend.speedup") == "higher"
        assert metric_direction("compact.bisection_vs_dense.eval_ratio") == "higher"
        assert metric_direction("minplus.streaming_extraction.peak_bytes") == "lower"

    def test_seconds_not_gated(self):
        assert metric_direction("minplus.general_backend.backend_seconds") is None
        assert metric_direction("obs.report_generation.seconds") is None


class TestCheckRecords:
    def test_empty_and_single_record_pass(self):
        assert check_records([])["ok"] is True
        verdict = check_records([_record({"a.b.speedup": 5.0})])
        assert verdict["ok"] is True
        assert verdict["new"] == ["a.b.speedup"]
        assert verdict["checked"] == 0

    def test_stable_history_passes(self):
        records = [_record({"a.b.speedup": 5.0 + 0.1 * i}) for i in range(6)]
        verdict = check_records(records)
        assert verdict["ok"] is True
        assert verdict["checked"] == 1

    def test_2x_regression_fails(self):
        records = [_record({"a.b.speedup": 8.0}) for _ in range(3)]
        records.append(_record({"a.b.speedup": 4.0}))
        verdict = check_records(records)
        assert verdict["ok"] is False
        (violation,) = verdict["violations"]
        assert violation["metric"] == "a.b.speedup"
        assert violation["baseline"] == pytest.approx(8.0)
        assert violation["ratio"] == pytest.approx(0.5)
        assert violation["direction"] == "higher"

    def test_noise_within_threshold_passes(self):
        records = [_record({"a.b.speedup": 8.0}) for _ in range(3)]
        records.append(_record({"a.b.speedup": 8.0 * 0.75}))  # -25% < 40%
        assert check_records(records)["ok"] is True

    def test_lower_better_regression(self):
        records = [_record({"x.peak_bytes": 1000.0}) for _ in range(3)]
        records.append(_record({"x.peak_bytes": 2000.0}))
        verdict = check_records(records)
        assert verdict["ok"] is False
        assert verdict["violations"][0]["direction"] == "lower"

    def test_improvement_never_fails(self):
        records = [_record({"a.b.speedup": 8.0}) for _ in range(3)]
        records.append(_record({"a.b.speedup": 80.0}))
        assert check_records(records)["ok"] is True

    def test_window_limits_baseline(self):
        # old slow records age out of the window: median tracks the recent 5
        records = [_record({"a.b.speedup": 2.0}) for _ in range(5)]
        records += [_record({"a.b.speedup": 8.0}) for _ in range(4)]
        records.append(_record({"a.b.speedup": 4.5}))
        assert check_records(records, window=5)["ok"] is False
        assert check_records(records, window=9)["ok"] is True

    def test_ungated_metrics_ignored(self):
        records = [_record({"a.b.seconds": 1.0}) for _ in range(3)]
        records.append(_record({"a.b.seconds": 100.0}))
        verdict = check_records(records)
        assert verdict["ok"] is True
        assert verdict["checked"] == 0

    def test_metric_missing_from_history_is_new(self):
        records = [_record({"a.b.speedup": 8.0})]
        records.append(_record({"c.d.speedup": 3.0}))
        verdict = check_records(records)
        assert verdict["ok"] is True
        assert verdict["new"] == ["c.d.speedup"]


class TestCheckTrajectoryScript:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, str(SCRIPT), *args],
            capture_output=True,
            text=True,
            cwd=SCRIPT.parent.parent,
        )

    def _store(self, tmp_path, metrics_list):
        store = tmp_path / "T.jsonl"
        for metrics in metrics_list:
            append_record(_record(metrics), store)
        return store

    def test_two_good_runs_pass(self, tmp_path):
        store = self._store(
            tmp_path, [{"a.b.speedup": 8.0}, {"a.b.speedup": 7.9}]
        )
        proc = self._run("--path", str(store))
        assert proc.returncode == 0, proc.stderr
        assert "trajectory gate passed" in proc.stdout

    def test_synthetic_2x_regression_fails(self, tmp_path):
        store = self._store(
            tmp_path,
            [{"a.b.speedup": 8.0}, {"a.b.speedup": 8.1}, {"a.b.speedup": 4.0}],
        )
        proc = self._run("--path", str(store))
        assert proc.returncode == 1
        assert "REGRESSION: a.b.speedup" in proc.stderr

    def test_empty_store_passes(self, tmp_path):
        proc = self._run("--path", str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 0
        assert "nothing to gate" in proc.stdout

    def test_malformed_store_exits_2(self, tmp_path):
        store = tmp_path / "T.jsonl"
        store.write_text("{broken\n")
        proc = self._run("--path", str(store))
        assert proc.returncode == 2

    def test_threshold_flag(self, tmp_path):
        store = self._store(
            tmp_path, [{"a.b.speedup": 8.0}, {"a.b.speedup": 7.0}]
        )
        proc = self._run("--path", str(store), "--threshold", "0.05")
        assert proc.returncode == 1

    def test_committed_store_passes(self):
        proc = self._run()
        assert proc.returncode == 0, proc.stdout + proc.stderr
