"""Seeded regressions pinning bisection results below the eq. (9) bound.

The eq. (8) feasibility check ``F·Δ >= γ^u(ᾱ(Δ) − b)`` accepts a
relative slack of 1e-6 when asked whether a clock suffices.  The
bisection used to search with that slack, so it returned the lowest clock
the slack let through, up to 1e-6 below the closed-form ``F^γ_min`` of
eq. (9) — a clock at which the trace that was characterized overflows
its buffer.  The search now runs with zero slack.

Each case is a trace characterized from itself, in the style of the
open-system scenarios: ``from_trace_upper`` of its arrivals and the
upper workload curve of its demands on ``make_k_grid(n)``, at b = 2.
The seeds are the ones on which the slack-tolerant bisection returned
1.0773153, 1.1084101 and 1.1961906 against eq. (9)'s 1.0773161,
1.1084106 and 1.1961912, and the replay held 3 items.
"""

import pytest

from repro.analysis.frequency import minimum_frequency_bisect, minimum_frequency_curves
from repro.core.workload import WorkloadCurve
from repro.curves.arrival import from_trace_upper
from repro.simulation.chain import replay_chain
from repro.simulation.workloads import WorkloadSpec
from repro.util.staircase import make_k_grid

BUFFER = 2


@pytest.mark.parametrize(
    "seed, eq9",
    [(46, 1.0773160810179028), (148, 1.1084105652099236), (165, 1.1961911567800558)],
)
def test_bisection_never_below_closed_form(seed, eq9):
    trace = WorkloadSpec(model="constant", items=64, demand_spread=0.5).generate(seed)
    alpha = from_trace_upper(trace.arrivals)
    gamma_u = WorkloadCurve.from_demand_array(
        trace.stage_demands(0), "upper", k_values=make_k_grid(trace.items)
    )
    exact = minimum_frequency_curves(alpha, gamma_u, BUFFER).frequency
    assert exact == eq9
    found = minimum_frequency_bisect(alpha, gamma_u, BUFFER).frequency
    assert exact <= found <= exact * (1.0 + 1e-4)
    for frequency in (exact, found):
        replay = replay_chain(trace.arrivals, trace.demands, [frequency])
        assert replay.stage_stats[0].max_backlog <= BUFFER
