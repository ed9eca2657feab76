"""Tests for the random task-set generator, plus population-level property
tests validating the analytic tests against simulation on random sets."""

import numpy as np
import pytest

from repro.core.analytical import two_mode_curves
from repro.scheduling.generator import (
    random_task_set,
    random_variable_task_set,
    uunifast,
)
from repro.scheduling.rms import rms_test_classic, rms_test_curves
from repro.scheduling.simulator import simulate
from repro.util.validation import ValidationError


class TestUUniFast:
    def test_sums_to_target(self):
        rng = np.random.default_rng(0)
        for n, u in [(1, 0.5), (3, 0.9), (10, 2.0)]:
            utils = uunifast(n, u, rng)
            assert utils.sum() == pytest.approx(u)
            assert np.all(utils >= 0)

    def test_single_task(self):
        rng = np.random.default_rng(1)
        assert uunifast(1, 0.7, rng)[0] == pytest.approx(0.7)

    def test_distribution_not_degenerate(self):
        rng = np.random.default_rng(2)
        draws = np.array([uunifast(3, 1.0, rng) for _ in range(300)])
        # all components vary and have comparable means (unbiasedness)
        assert np.all(draws.std(axis=0) > 0.05)
        assert np.allclose(draws.mean(axis=0), 1 / 3, atol=0.05)


class TestRandomTaskSet:
    def test_utilization_matches(self):
        rng = np.random.default_rng(3)
        ts = random_task_set(5, 0.8, rng)
        assert ts.total_utilization == pytest.approx(0.8, abs=1e-6)

    def test_periods_in_range(self):
        rng = np.random.default_rng(4)
        ts = random_task_set(8, 0.5, rng, period_range=(2.0, 50.0))
        for t in ts:
            assert 2.0 <= t.period <= 50.0

    def test_bad_period_range(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValidationError):
            random_task_set(3, 0.5, rng, period_range=(5.0, 5.0))


class TestRandomVariableTaskSet:
    def test_curves_attached(self):
        rng = np.random.default_rng(6)
        ts = random_variable_task_set(4, 0.9, rng)
        for t in ts:
            assert t.curves is not None
            assert t.long_run_utilization < t.utilization

    def test_metadata(self):
        rng = np.random.default_rng(7)
        ts, meta = random_variable_task_set(4, 0.9, rng, with_metadata=True)
        assert set(meta) == {t.name for t in ts}
        for name, (m, e_light) in meta.items():
            task = ts.by_name(name)
            assert 2 <= m <= 6
            assert 0 < e_light < task.wcet

    @pytest.mark.parametrize("k_max", [1, 7, 256])
    def test_count_arrays_match_lambda_construction(self, k_max):
        """The tabulated count bounds give the curves of the callable
        construction through ``two_mode_curves``, bit for bit."""
        ts = random_variable_task_set(6, 0.9, np.random.default_rng(12), k_max=k_max)
        rng = np.random.default_rng(12)
        base = random_task_set(6, 0.9, rng)
        assert len(ts) == len(base)
        for task, ref_task in zip(ts, base):
            ratio = rng.uniform(2.0, 8.0)
            m = int(rng.integers(2, 7))
            ref = two_mode_curves(
                lambda k: min(k, 1 + (k - 1) // m),
                lambda k: k // m,
                ref_task.wcet,
                ref_task.wcet / ratio,
                k_max=k_max,
            )
            for got, want in ((task.curves.upper, ref.upper), (task.curves.lower, ref.lower)):
                assert got.k_values.tobytes() == want.k_values.tobytes()
                assert got.values.tobytes() == want.values.tobytes()


class TestPopulationProperties:
    """The analytic verdicts must be safe on random populations."""

    def test_classic_admission_implies_no_misses(self):
        rng = np.random.default_rng(8)
        admitted = 0
        for _ in range(20):
            ts = random_task_set(4, rng.uniform(0.4, 1.0), rng, period_range=(2.0, 40.0))
            if not rms_test_classic(ts).schedulable:
                continue
            admitted += 1
            sim = simulate(ts, 2000.0)
            assert sim.deadline_misses() == 0, f"misses in {ts!r}"
        assert admitted >= 5  # the population exercises the property

    def test_curve_admission_implies_no_misses_for_admissible_demands(self):
        rng = np.random.default_rng(9)
        admitted = 0
        for _ in range(15):
            ts, meta = random_variable_task_set(
                3, rng.uniform(0.8, 1.6), rng, period_range=(2.0, 30.0),
                with_metadata=True,
            )
            if not rms_test_curves(ts).schedulable:
                continue
            admitted += 1
            # worst admissible alignment: heavy every m-th job from job 0
            demands = {
                name: (lambda i, m=m, hw=ts.by_name(name).wcet, lw=e_light:
                       hw if i % m == 0 else lw)
                for name, (m, e_light) in meta.items()
            }
            sim = simulate(ts, 500.0, demands=demands)
            assert sim.deadline_misses() == 0
        assert admitted >= 3

    def test_curve_test_admits_more_sets(self):
        rng = np.random.default_rng(10)
        classic_ok = curve_ok = 0
        for _ in range(25):
            ts = random_variable_task_set(3, rng.uniform(0.9, 1.5), rng)
            classic_ok += rms_test_classic(ts).schedulable
            curve_ok += rms_test_curves(ts).schedulable
        assert curve_ok > classic_ok
