"""Sweep validation (`frequency_backlog_point(sim_validate=True)`).

Each validation trace is characterized once per process: the kernel-cache
op ``sim.validate.trace`` holds its arrivals, demands and a
:class:`~repro.analysis.frequency.FrequencySweepEvaluator` over its own
curves, keyed by the scalars that fix the trace.  A point whose trace an
earlier point drew evaluates only the frequency-dependent part of eq. (7)
and the replay, and its data must not change.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf as perf
from repro.analysis.backlog import backlog_bound_events
from repro.analysis.frequency import FrequencySweepEvaluator
from repro.core.workload import WorkloadCurve
from repro.curves.arrival import from_trace_upper
from repro.curves.minplus import UnboundedCurveError
from repro.curves.service import rate_latency
from repro.perf.cache import kernel_cache
from repro.runner.tasks import _validate_against_simulation, frequency_backlog_point
from repro.simulation import WorkloadSpec
from repro.util.staircase import make_k_grid

TRACE_OP = "sim.validate.trace"


def _point(buffer_size: int, *, sim_items: int = 1024, sim_seed: int = 3) -> dict:
    return frequency_backlog_point(
        buffer_size=buffer_size,
        frames=12,
        dense_limit=512,
        growth=1.05,
        sim_validate=True,
        sim_items=sim_items,
        sim_seed=sim_seed,
    ).data


class TestValidationTraceMemo:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, small_context):
        _point(810)  # warm the worker's evaluator; its lookups are not counted
        perf.reset()
        perf.configure(enabled=True)
        yield
        perf.reset()
        perf.configure(enabled=True)

    def test_same_seed_points_characterize_the_trace_once(self):
        _point(810, sim_seed=5)
        _point(1620, sim_seed=5)
        stats = perf.cache_stats()
        assert stats["per_op"][TRACE_OP] == {"hits": 1, "misses": 1}
        for op in ("curves.min_window", "curves.max_window"):
            assert op not in stats["per_op"]
            assert op not in stats["per_op_bypasses"]

    def test_point_data_equal_with_the_memo_off(self):
        memo_on = [_point(b, sim_seed=6) for b in (810, 1620)]
        perf.configure(enabled=False)
        memo_off = [_point(b, sim_seed=6) for b in (810, 1620)]
        assert memo_on == memo_off
        assert perf.cache_stats()["per_op_bypasses"][TRACE_OP] == 2

    def test_cached_arrays_are_read_only(self):
        trace = dict(items=512, arrival_rate=2.0, demand_mean=3.0, seed=1)
        _validate_against_simulation(frequency=12.0, **trace)
        key = (TRACE_OP, *trace.values())
        arrivals, demands, evaluator = kernel_cache.get_or_compute(
            key, lambda: pytest.fail("the trace is not cached under its scalars")
        )
        for array in (arrivals, demands, *evaluator.backlog_grid()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = -1.0
        assert perf.cache_stats()["per_op"][TRACE_OP] == {"hits": 1, "misses": 1}

    def test_another_trace_misses(self):
        _point(810, sim_seed=7)
        _point(810, sim_seed=8)
        _point(810, sim_seed=7, sim_items=512)
        assert perf.cache_stats()["per_op"][TRACE_OP] == {"hits": 0, "misses": 3}


def _bits(value: float | None) -> str | None:
    """A float's exact identity, the sign of a zero included (``None``
    stands for an unbounded backlog)."""
    return None if value is None else float(value).hex()


def _from_scratch(alpha, gamma_u, frequency: float) -> float | None:
    try:
        return backlog_bound_events(alpha, rate_latency(frequency, 0.0), gamma_u)
    except UnboundedCurveError:
        return None


@settings(max_examples=40, deadline=None)
@given(
    items=st.integers(8, 400),
    seed=st.integers(0, 2**31 - 1),
    arrival_rate=st.floats(0.1, 100.0),
    demand_mean=st.floats(0.1, 1000.0),
    loads=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=4),
)
def test_hoisted_eq7_is_bitwise_the_from_scratch_bound(
    items, seed, arrival_rate, demand_mean, loads
):
    """``FrequencySweepEvaluator.backlog_events`` and the sweep validation's
    bound are :func:`backlog_bound_events` computed from scratch, bit for
    bit, and unbounded in the same cases."""
    workload = WorkloadSpec(
        model="poisson",
        items=items,
        mean_interarrival=1.0 / arrival_rate,
        demand_mean=demand_mean,
    ).generate(seed)
    grid = make_k_grid(workload.items)
    alpha = from_trace_upper(workload.arrivals, n_values=grid)
    gamma_u = WorkloadCurve.from_demand_array(
        workload.stage_demands(0), "upper", k_values=grid
    )
    evaluator = FrequencySweepEvaluator(alpha, gamma_u)
    rate = alpha.final_slope * gamma_u.long_run_rate
    # the loads straddle the trace's own demand rate, so unbounded cases occur
    for load in loads:
        frequency = rate / load
        expected = _from_scratch(alpha, gamma_u, frequency)
        try:
            hoisted: float | None = evaluator.backlog_events(frequency)
        except UnboundedCurveError:
            hoisted = None
        validated = _validate_against_simulation(
            frequency=frequency,
            arrival_rate=arrival_rate,
            demand_mean=demand_mean,
            items=items,
            seed=seed,
        )["sim_bound_events"]
        assert _bits(hoisted) == _bits(validated) == _bits(expected)

