"""Unit tests for repro.curves.arrival."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.arrival import (
    from_trace_lower,
    from_trace_upper,
    leaky_bucket,
    maximal_window_lengths,
    minimal_window_lengths,
    periodic_lower,
    periodic_upper,
)
from repro.reference import trace_staircase_brute
from repro.util.validation import ValidationError


class TestLeakyBucket:
    def test_shape(self):
        a = leaky_bucket(5.0, 2.0)
        assert a(0.0) == 5.0
        assert a(3.0) == 11.0
        assert a.final_slope == 2.0

    def test_zero_burst_allowed(self):
        assert leaky_bucket(0.0, 1.0)(0.0) == 0.0


class TestPeriodic:
    def test_upper_closed_window_convention(self):
        # floor((d + j)/p) + 1 within the horizon
        a = periodic_upper(2.0, jitter=0.5, horizon_periods=16)
        for d in [0.0, 0.5, 1.4, 1.5, 3.4, 3.5, 10.0]:
            expected = math.floor((d + 0.5) / 2.0) + 1
            assert a(d) == pytest.approx(expected), d

    def test_upper_tail_sound(self):
        a = periodic_upper(2.0, jitter=0.5, horizon_periods=4)
        for d in np.linspace(8, 40, 30):
            true = math.floor((d + 0.5) / 2.0) + 1
            assert a(d) >= true - 1e-9

    def test_lower_exact_within_horizon(self):
        a = periodic_lower(2.0, jitter=0.5, horizon_periods=16)
        for d in [0.0, 2.4, 2.5, 4.5, 6.4, 10.0]:
            expected = max(0, math.floor((d - 0.5) / 2.0))
            assert a(d) == pytest.approx(expected), d

    def test_lower_tail_sound(self):
        a = periodic_lower(2.0, jitter=0.5, horizon_periods=4)
        for d in np.linspace(8, 60, 40):
            true = max(0, math.floor((d - 0.5) / 2.0))
            assert a(d) <= true + 1e-9

    def test_lower_below_upper(self):
        up = periodic_upper(1.5, jitter=0.3)
        lo = periodic_lower(1.5, jitter=0.3)
        ds = np.linspace(0, 50, 101)
        assert np.all(lo(ds) <= up(ds) + 1e-9)

    def test_zero_jitter(self):
        a = periodic_upper(1.0)
        assert a(0.0) == 1.0
        assert a(0.999) == pytest.approx(1.0)
        assert a(1.0) == pytest.approx(2.0)


class TestWindowLengths:
    def test_minimal_windows(self):
        ts = [0.0, 1.0, 3.0, 3.5, 7.0]
        ns, d = minimal_window_lengths(ts)
        assert list(ns) == [1, 2, 3, 4, 5]
        assert d[0] == 0.0
        assert d[1] == 0.5   # events 3.0, 3.5
        assert d[2] == 2.5   # events 1.0..3.5
        assert d[4] == 7.0

    def test_maximal_windows(self):
        ts = [0.0, 1.0, 3.0, 3.5, 7.0]
        ns, d = maximal_window_lengths(ts)
        assert d[1] == 3.5   # events 3.5 -> 7.0
        assert d[4] == 7.0

    def test_subsampled_n(self):
        ts = np.linspace(0, 10, 11)
        ns, d = minimal_window_lengths(ts, n_values=[1, 5, 11])
        assert list(ns) == [1, 5, 11]
        assert list(d) == [0.0, 4.0, 10.0]

    def test_invalid_n_rejected(self):
        with pytest.raises(ValidationError):
            minimal_window_lengths([0.0, 1.0], n_values=[2, 1])

    def test_unsorted_timestamps_rejected(self):
        with pytest.raises(ValidationError):
            minimal_window_lengths([1.0, 0.5])


class TestFromTrace:
    def test_upper_staircase_values(self):
        ts = [0.0, 1.0, 2.0, 3.0]  # strictly periodic
        a = from_trace_upper(ts)
        assert a(0.0) == 1.0
        assert a(1.0) == 2.0
        assert a(2.5) == 3.0
        assert a(3.0) == 4.0

    def test_upper_bounds_every_window(self):
        rng = np.random.default_rng(5)
        ts = np.cumsum(rng.exponential(1.0, 120))
        a = from_trace_upper(ts)
        for _ in range(200):
            width = rng.uniform(0.0, 30.0)
            start = rng.uniform(ts[0], ts[-1] - width)
            count = np.sum((ts >= start) & (ts <= start + width))
            assert count <= a(width) + 1e-9

    def test_subsampled_upper_still_sound(self):
        rng = np.random.default_rng(6)
        ts = np.cumsum(rng.exponential(1.0, 150))
        dense = from_trace_upper(ts)
        sparse = from_trace_upper(ts, n_values=np.array([1, 2, 5, 20, 60, 150]))
        ds = np.linspace(0, float(ts[-1] - ts[0]), 60)
        assert np.all(sparse(ds) >= dense(ds) - 1e-9)

    def test_final_rate_default_long_run(self):
        ts = np.arange(0.0, 50.0)  # 1 event/s
        a = from_trace_upper(ts)
        assert a.final_slope == pytest.approx(50 / 49, rel=1e-6)

    def test_final_rate_zero(self):
        ts = np.arange(0.0, 10.0)
        a = from_trace_upper(ts, final_rate=0.0)
        assert a.final_slope == 0.0

    def test_lower_below_actual_counts(self):
        rng = np.random.default_rng(7)
        ts = np.cumsum(rng.uniform(0.5, 1.5, 100))
        lo = from_trace_lower(ts)
        for _ in range(200):
            width = rng.uniform(0.0, 30.0)
            start = rng.uniform(ts[0], ts[-1] - width)
            if start <= ts[0] or start + width >= ts[-1]:
                continue  # guarantee applies to interior windows
            count = np.sum((ts >= start) & (ts <= start + width))
            assert count >= lo(width) - 1e-9

    def test_lower_trivial_for_tiny_trace(self):
        lo = from_trace_lower([0.0, 1.0])
        assert lo(100.0) == 0.0


@st.composite
def _traces(draw):
    """Timestamped traces with their ``n_values`` grid and ``final_rate``:
    exponential, tied-integer or all-equal gaps, opened by a run of up to
    four simultaneous events, either shifted by 1e6 or starting at zero,
    where the opening zeros may carry either sign."""
    n = draw(st.integers(min_value=1, max_value=160))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    family = draw(st.sampled_from(["exponential", "tied", "equal"]))
    if family == "exponential":
        gaps = rng.exponential(1.0, n)
    elif family == "tied":
        gaps = rng.integers(0, 3, n).astype(float)
    else:
        gaps = np.zeros(n)
    gaps[: draw(st.integers(min_value=1, max_value=4))] = 0.0
    ts = np.cumsum(gaps)
    if draw(st.booleans()):
        ts += 1e6
    elif draw(st.booleans()):
        zeros = np.flatnonzero(ts == 0.0)
        ts[zeros] = np.where(rng.random(zeros.size) < 0.5, -0.0, 0.0)
    n_values = None
    if draw(st.booleans()):
        size = draw(st.integers(min_value=1, max_value=n))
        n_values = np.sort(rng.choice(np.arange(1, n + 1), size=size, replace=False))
    return ts, n_values, draw(st.sampled_from([None, 0.0, 2.5]))


class TestStaircaseOracle:
    @settings(max_examples=300)
    @given(_traces())
    def test_upper_equals_the_per_element_loop_bitwise(self, case):
        ts, n_values, final_rate = case
        curve = from_trace_upper(ts, n_values=n_values, final_rate=final_rate)
        ns, d = minimal_window_lengths(ts, n_values)
        xs, ys, slopes = trace_staircase_brute(ns, d, final_rate)
        assert curve.breakpoints.tobytes() == np.array(xs).tobytes()
        assert curve.values_at_breakpoints.tobytes() == np.array(ys).tobytes()
        assert curve.slopes.tobytes() == np.array(slopes).tobytes()

    @pytest.mark.parametrize(
        "n_values, first_sign", [([2, 3, 4], True), (None, False)]
    )
    def test_a_step_sits_at_its_runs_first_window(self, n_values, first_sign):
        """t[1] - t[0] = -0.0 - 0.0 = -0.0.  Sampled from n = 2, the first
        window is -0.0 and stays so; sampled from n = 1, the run of zero
        windows opens with +0.0 and the step sits there."""
        ts = np.array([0.0, -0.0, 1.0, 2.5])
        ns, d = minimal_window_lengths(ts, n_values)
        curve = from_trace_upper(ts, n_values=n_values)
        assert bool(np.signbit(curve.breakpoints[0])) is first_sign
        xs, ys, _ = trace_staircase_brute(ns, d)
        assert curve.breakpoints.tobytes() == np.array(xs).tobytes()
        assert curve.values_at_breakpoints.tobytes() == np.array(ys).tobytes()

