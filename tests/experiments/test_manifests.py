"""Golden-manifest tests: same parameters + seed → identical stable view."""

import json

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.acceptance_table import run as run_a5
from repro.experiments.conversion_demo import run as run_e8
from repro.experiments.fig2_polling import run as run_e2
from repro.obs.manifest import TIMING_FIELDS, stable_view


class TestManifestAttachment:
    def test_every_harnessed_run_attaches_a_manifest(self):
        result = run_e2(k_max=6)
        manifest = result.manifest
        assert manifest is not None
        assert manifest["schema"] == "repro.run-manifest/1"
        assert manifest["experiment_id"] == result.experiment_id == "E2"
        assert manifest["parameters"] == {"k_max": 6}
        assert manifest["wall_time_s"] >= 0
        assert manifest["metrics"]["schema"] == "repro.metrics/1"
        json.dumps(manifest, default=str)

    def test_parameters_capture_defaults(self):
        manifest = run_e2().manifest
        assert manifest["parameters"] == {"k_max": 20}

    def test_seed_surfaced_from_parameters(self):
        result = run_a5(utilizations=(0.6,), sets_per_point=2, seed=11)
        assert result.manifest["seed"] == 11
        assert result.manifest["parameters"]["seed"] == 11

    def test_case_study_inputs_are_digested(self):
        from repro.experiments import case_study_context

        result = run_e8(frames=12)
        inputs = result.manifest["inputs"]
        assert "case_study_context" in inputs
        # E8 consumed the default-parameter 12-frame context; the digest in
        # the manifest must match the one stamped on that context
        ctx = case_study_context(frames=12)
        assert inputs["case_study_context"] == ctx.input_digest
        assert len(inputs["case_study_context"]) == 32  # blake2b-16 hex

    def test_metrics_carry_the_peak_rss_in_bytes(self):
        peaks = []
        for _ in range(2):
            gauges = run_e2(k_max=4).manifest["metrics"]["gauges"]
            (peak,) = [g["value"] for g in gauges if g["name"] == "process.peak_rss_bytes"]
            peaks.append(peak)
        # an interpreter with numpy loaded holds well over 10 MB: bytes, not kB
        assert 10 * 2**20 < peaks[0] <= peaks[1]

    def test_write_emits_report_and_manifest(self, tmp_path):
        result = run_e2(k_max=4)
        report_path, manifest_path = result.write(tmp_path)
        assert report_path.read_text().startswith("[E2]")
        assert json.loads(manifest_path.read_text())["experiment_id"] == "E2"


class TestGoldenManifests:
    def assert_stable(self, first, second):
        assert stable_view(first.manifest) == stable_view(second.manifest)
        # the dropped fields are exactly the timing ones
        assert set(first.manifest) - set(stable_view(first.manifest)) == set(
            TIMING_FIELDS
        )

    def test_same_seed_runs_agree_up_to_timing(self):
        kwargs = dict(utilizations=(0.6, 1.0), sets_per_point=3, seed=2004)
        self.assert_stable(run_a5(**kwargs), run_a5(**kwargs))

    def test_case_study_experiment_is_stable(self, small_context):
        self.assert_stable(run_e8(frames=12), run_e8(frames=12))

    def test_data_digest_tracks_content(self):
        a = run_e2(k_max=4)
        b = run_e2(k_max=6)
        assert a.manifest["data_digest"] != b.manifest["data_digest"]

    def test_all_light_experiments_produce_valid_manifests(self):
        for exp_id in ("E1", "E2", "E3"):
            manifest = ALL_EXPERIMENTS[exp_id]().manifest
            assert manifest["experiment_id"] == exp_id
            assert manifest["version"]
            assert manifest["data_digest"]
