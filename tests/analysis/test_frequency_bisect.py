"""Bisection vs closed form: agreement, eval counts, warm-started sweeps.

The monotone feasibility bisection must land within its ``rel_tol`` of
the closed-form eq. (9) bound, spend strictly fewer eq. (8) evaluations
than the dense baseline (counted through the ``frequency.verify_calls``
obs counter — the same ledger the benchmark gate reads), and the
warm-started :class:`FrequencySweepEvaluator` must reproduce the one-shot
functions bit-identically when no compaction is requested.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.frequency import (
    VERIFY_CALLS_METRIC,
    FrequencySweepEvaluator,
    minimum_frequency_bisect,
    minimum_frequency_curves,
    minimum_frequency_dense,
    minimum_frequency_sweep,
    minimum_frequency_wcet,
)
from repro.core.workload import WorkloadCurve
from repro.curves.arrival import from_trace_upper, periodic_upper
from repro.obs.metrics import registry
from repro.util.validation import ValidationError


@pytest.fixture
def gamma():
    return WorkloadCurve.from_demand_array([5.0, 3.0, 2.0, 6.0] * 16, "upper")


def _verify_calls() -> int:
    return registry.counter(VERIFY_CALLS_METRIC).value


@st.composite
def traces(draw):
    """Random event traces -> staircase arrival curves with real bursts."""
    n = draw(st.integers(min_value=6, max_value=40))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=2.0), min_size=n - 1, max_size=n - 1
        )
    )
    return np.concatenate(([0.0], np.cumsum(gaps)))


@st.composite
def demands(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    cyc = draw(
        st.lists(st.floats(min_value=0.5, max_value=9.0), min_size=n, max_size=n)
    )
    return WorkloadCurve.from_demand_array(cyc, "upper")


class TestAgreement:
    @given(traces(), demands(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_bisect_matches_closed_form(self, trace, gamma_u, b):
        alpha = from_trace_upper(trace)
        exact = minimum_frequency_curves(alpha, gamma_u, b)
        found = minimum_frequency_bisect(alpha, gamma_u, b, rel_tol=1e-6)
        if exact.frequency == 0.0:
            assert found.frequency == 0.0
        else:
            # the bisection returns a zero-slack feasible point within
            # rel_tol above F_min, never below it by more than rounding
            assert found.frequency == pytest.approx(exact.frequency, rel=1e-4)
            assert found.frequency >= exact.frequency - 4 * np.spacing(exact.frequency)
        assert found.method == "bisection"

    def test_bisect_matches_sweep_on_many_buffers(self, gamma):
        alpha = periodic_upper(1.0, jitter=2.0, horizon_periods=64)
        buffers = [1, 2, 4, 8, 16]
        swept = minimum_frequency_sweep(alpha, gamma, 5.0, buffers)
        ev = FrequencySweepEvaluator(alpha, gamma, wcet=5.0)
        for b, (fg, fw) in zip(buffers, swept):
            found = ev.bisect(b, rel_tol=1e-6)
            assert found.frequency == pytest.approx(fg.frequency, rel=1e-4)
            assert ev.bound_wcet(b).frequency == fw.frequency

    @given(traces(), demands(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_evaluator_reproduces_one_shots_bit_identically(self, trace, gamma_u, b):
        alpha = from_trace_upper(trace)
        ev = FrequencySweepEvaluator(alpha, gamma_u, wcet=3.0)
        fg = minimum_frequency_curves(alpha, gamma_u, b)
        fw = minimum_frequency_wcet(alpha, 3.0, b)
        assert ev.bound_curves(b) == fg
        assert ev.bound_wcet(b) == fw


class TestEvalCounts:
    def test_bisect_beats_dense_by_5x(self, gamma):
        alpha = periodic_upper(1.0, jitter=2.0, horizon_periods=64)
        ev = FrequencySweepEvaluator(alpha, gamma)
        before = _verify_calls()
        found = ev.bisect(4, rel_tol=1e-4)
        bisect_calls = _verify_calls() - before
        before = _verify_calls()
        dense = ev.dense(4, n_grid=512)
        dense_calls = _verify_calls() - before
        assert dense_calls >= 5 * bisect_calls
        # the dense grid point can only sit above the true minimum
        assert dense.frequency >= found.frequency * (1.0 - 1e-3)

    def test_verify_counts_every_call(self, gamma):
        alpha = periodic_upper(1.0, horizon_periods=16)
        ev = FrequencySweepEvaluator(alpha, gamma)
        before = _verify_calls()
        ev.verify(4, 100.0)
        ev.verify(4, 200.0)
        assert _verify_calls() - before == 2


class TestCompactedEvaluator:
    @given(traces(), demands(), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_compaction_only_raises_the_bound(self, trace, gamma_u, b):
        alpha = from_trace_upper(trace)
        exact = minimum_frequency_curves(alpha, gamma_u, b)
        ev = FrequencySweepEvaluator(alpha, gamma_u, max_segments=8)
        assert ev.compaction is not None
        assert ev.compaction.direction == "upper"
        budgeted = ev.bound_curves(b)
        assert budgeted.frequency >= exact.frequency * (1.0 - 1e-12)

    def test_unbudgeted_evaluator_reports_no_compaction(self, gamma):
        ev = FrequencySweepEvaluator(periodic_upper(1.0), gamma)
        assert ev.compaction is None


class TestValidation:
    def test_dense_needs_sane_bracket(self, gamma):
        ev = FrequencySweepEvaluator(
            periodic_upper(1.0, horizon_periods=16), gamma
        )
        with pytest.raises(ValidationError):
            ev.dense(2, f_lo=10.0, f_hi=5.0)

    def test_bound_wcet_needs_wcet(self, gamma):
        ev = FrequencySweepEvaluator(periodic_upper(1.0), gamma)
        with pytest.raises(ValidationError):
            ev.bound_wcet(4)

    def test_lower_workload_rejected(self):
        lower = WorkloadCurve.from_demand_array([1.0, 2.0], "lower")
        with pytest.raises(ValidationError):
            FrequencySweepEvaluator(periodic_upper(1.0), lower)
