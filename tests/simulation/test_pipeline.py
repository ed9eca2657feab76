"""Tests for the two-PE pipeline, the one-stage case of the chain.

The chain suite covers the replay and its oracle in general; these keep
the pipeline adaptors honest: stage-0 unpacking, the simulate-vs-replay
cross-checks (including a real clip, which the chain suite lacks), the
overflow semantics and the metrics a pipeline call publishes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.pipeline import replay_pipeline, simulate_pipeline
from repro.util.validation import ValidationError


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            replay_pipeline(np.array([0.0]), np.array([1.0, 2.0]), 1.0)

    def test_decreasing_arrivals(self):
        with pytest.raises(ValidationError):
            replay_pipeline(np.array([1.0, 0.5]), np.array([1.0, 1.0]), 1.0)

    def test_nonpositive_demand(self):
        with pytest.raises(ValidationError):
            replay_pipeline(np.array([0.0]), np.array([0.0]), 1.0)

    def test_empty(self):
        with pytest.raises(ValidationError):
            replay_pipeline(np.array([]), np.array([]), 1.0)


class TestKnownScenarios:
    def test_single_item(self):
        r = replay_pipeline(np.array([1.0]), np.array([4.0]), 2.0)
        assert r.completion_times[0] == pytest.approx(3.0)
        assert r.max_backlog == 1

    def test_burst_builds_backlog(self):
        arrivals = np.zeros(5)
        demands = np.ones(5)
        r = replay_pipeline(arrivals, demands, 1.0, capacity=3)
        assert r.max_backlog == 5
        assert r.overflowed

    def test_slow_stream_no_backlog(self):
        arrivals = np.arange(0.0, 10.0)
        demands = np.full(10, 0.5)
        r = replay_pipeline(arrivals, demands, 1.0)
        assert r.max_backlog == 1
        assert np.allclose(r.completion_times, arrivals + 0.5)

    def test_normalized_backlog(self):
        r = replay_pipeline(np.zeros(4), np.ones(4), 1.0)
        assert r.normalized_backlog(8) == pytest.approx(0.5)

    def test_utilization(self):
        arrivals = np.array([0.0, 10.0])
        demands = np.array([1.0, 1.0])
        r = replay_pipeline(arrivals, demands, 1.0)
        assert r.consumer_utilization == pytest.approx(2.0 / 11.0)


class TestCrossValidation:
    """The event-driven kernel simulation and the closed-form replay are
    independent implementations and must agree exactly."""

    @given(
        st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=60),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_agreement_random(self, gaps, data):
        arrivals = np.cumsum(np.array(gaps))
        demands = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.05, max_value=3.0),
                    min_size=len(gaps),
                    max_size=len(gaps),
                )
            )
        )
        freq = data.draw(st.floats(min_value=0.5, max_value=5.0))
        a = simulate_pipeline(arrivals, demands, freq, capacity=5)
        b = replay_pipeline(arrivals, demands, freq, capacity=5)
        assert a.max_backlog == b.max_backlog
        assert np.allclose(a.completion_times, b.completion_times, rtol=1e-9)
        assert a.overflowed == b.overflowed

    def test_agreement_on_clip(self, small_clip):
        data = small_clip.generate()
        n = 3000
        f = 3e8
        a = simulate_pipeline(data.pe1_output[:n], data.pe2_cycles[:n], f, capacity=500)
        b = replay_pipeline(data.pe1_output[:n], data.pe2_cycles[:n], f, capacity=500)
        assert a.max_backlog == b.max_backlog
        assert np.allclose(a.completion_times, b.completion_times)


class TestOverflowSemantics:
    """Both implementations must report overflow with identical semantics:
    an overflow is an *arrival* that finds the buffer already at capacity,
    so a run that exactly fills the buffer is not an overflow."""

    def test_exactly_at_capacity_is_not_an_overflow(self):
        # 5 simultaneous arrivals into a capacity-5 buffer: full, legal
        arrivals = np.zeros(5)
        demands = np.ones(5)
        for run in (simulate_pipeline, replay_pipeline):
            r = run(arrivals, demands, 1.0, capacity=5)
            assert r.max_backlog == 5
            assert not r.overflowed
            assert r.overflow_count == 0

    def test_one_past_capacity_overflows_in_both(self):
        arrivals = np.zeros(6)
        demands = np.ones(6)
        a = simulate_pipeline(arrivals, demands, 1.0, capacity=5)
        b = replay_pipeline(arrivals, demands, 1.0, capacity=5)
        assert a.overflowed and b.overflowed
        assert a.overflow_count == b.overflow_count == 1
        assert a.max_backlog == b.max_backlog == 6

    def test_overflow_counts_agree_on_random_traces(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            arrivals = np.cumsum(rng.integers(0, 3, n) / 4.0)
            demands = rng.integers(1, 32, n) / 16.0
            cap = int(rng.integers(1, 6))
            a = simulate_pipeline(arrivals, demands, 2.0, capacity=cap)
            b = replay_pipeline(arrivals, demands, 2.0, capacity=cap)
            assert a.overflow_count == b.overflow_count
            assert a.overflowed == b.overflowed
            assert a.overflowed == (a.max_backlog > cap)

    def test_unbounded_never_overflows(self):
        r = replay_pipeline(np.zeros(8), np.ones(8), 1.0)
        assert not r.overflowed
        assert r.overflow_count == 0


class TestWorkConservation:
    def test_completion_times_work_conserving(self):
        rng = np.random.default_rng(2)
        arrivals = np.cumsum(rng.exponential(1.0, 50))
        demands = rng.uniform(0.5, 2.0, 50)
        r = replay_pipeline(arrivals, demands, 1.5)
        # each completion >= arrival + own service
        assert np.all(r.completion_times >= arrivals + demands / 1.5 - 1e-12)
        # completions ordered
        assert np.all(np.diff(r.completion_times) > 0)
        # busy period identity: completion <= arrival of first item of busy
        # period + cumulative service (checked via total)
        assert r.completion_times[-1] >= arrivals[0] + demands.sum() / 1.5 - 1e-9


class TestPublishedMetrics:
    """A pipeline run is a one-stage chain: its FIFO and PE quantities
    appear as the ``sim.chain.*`` stage-0 series, and no ``sim.fifo.*``
    or ``sim.pe.*`` series exists."""

    def _series_value(self, name, **labels):
        from repro.obs.metrics import registry

        for series in registry.series(name):
            if series.labels == labels:
                return series.value
        return None

    def _assert_no_pipeline_family(self):
        from repro.obs.metrics import registry

        names = {
            entry["name"]
            for kind in ("counters", "gauges")
            for entry in registry.snapshot()[kind]
        }
        assert not {n for n in names if n.startswith(("sim.fifo.", "sim.pe."))}

    def test_event_driven_run_publishes_fifo_and_pe_series(self):
        from repro.obs.metrics import registry

        registry.reset(prefix="sim.")
        arrivals = np.zeros(5)
        demands = np.ones(5)
        r = simulate_pipeline(arrivals, demands, 1.0, capacity=3)
        assert self._series_value("sim.chain.runs", impl="event-driven") == 1
        assert self._series_value("sim.chain.items", impl="event-driven") == 5
        assert self._series_value("sim.chain.high_water", stage=0) == r.max_backlog == 5
        assert self._series_value("sim.chain.overflows", stage=0) == r.overflow_count == 2
        assert self._series_value("sim.chain.busy_seconds", stage=0) == pytest.approx(5.0)
        self._assert_no_pipeline_family()
        registry.reset(prefix="sim.")

    def test_replay_publishes_equivalent_series(self):
        from repro.obs.metrics import registry

        registry.reset(prefix="sim.")
        arrivals = np.arange(4, dtype=float)
        demands = np.full(4, 2.0)
        r = replay_pipeline(arrivals, demands, 1.0)
        assert self._series_value("sim.chain.runs", impl="replay") == 1
        assert self._series_value("sim.chain.items", impl="replay") == 4
        assert self._series_value("sim.chain.high_water", stage=0) == r.max_backlog
        assert self._series_value("sim.chain.overflows", stage=0) == 0
        assert self._series_value("sim.chain.busy_seconds", stage=0) == pytest.approx(8.0)
        self._assert_no_pipeline_family()
        registry.reset(prefix="sim.")
