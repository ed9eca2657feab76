"""Property-based tests (hypothesis) for workload-curve invariants.

These encode the paper's §2.1 claims as universally-quantified properties
over random traces:

* curves are strictly increasing, start at 0;
* every window of the source trace is bounded by the curves;
* trace-derived upper curves are sub-additive, lower super-additive (the
  basis of the additive horizon extension);
* the pseudo-inverses satisfy the Galois relations;
* ``γ^u(k) <= k·WCET`` and ``γ^l(k) >= k·BCET``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import EventTrace
from repro.core.workload import WorkloadCurve, WorkloadCurvePair

demands_lists = st.lists(
    st.floats(min_value=0.5, max_value=50.0, allow_nan=False), min_size=1, max_size=60
)


@given(demands_lists)
def test_curves_strictly_increasing(demands):
    pair = WorkloadCurvePair.from_demand_array(demands)
    ks = np.arange(0, len(demands) + 1)
    assert np.all(np.diff(pair.upper(ks)) > 0)
    assert np.all(np.diff(pair.lower(ks)) > 0)


@given(demands_lists)
def test_curves_bound_every_window(demands):
    pair = WorkloadCurvePair.from_demand_array(demands)
    arr = np.asarray(demands)
    csum = np.concatenate(([0.0], np.cumsum(arr)))
    for k in range(1, len(demands) + 1):
        windows = csum[k:] - csum[:-k]
        assert windows.max() <= pair.upper(k) + 1e-9
        assert windows.min() >= pair.lower(k) - 1e-9


@given(demands_lists)
def test_upper_subadditive_lower_superadditive(demands):
    pair = WorkloadCurvePair.from_demand_array(demands)
    n = len(demands)
    ks = np.arange(0, n + 1)
    up, lo = pair.upper(ks), pair.lower(ks)
    # every (a, b) with a, b >= 1 and a + b <= n, each curve evaluated once
    a, b = np.meshgrid(ks[1:], ks[1:], indexing="ij")
    pairs = a + b <= n
    a, b = a[pairs], b[pairs]
    assert np.all(up[a + b] <= up[a] + up[b] + 1e-9)
    assert np.all(lo[a + b] >= lo[a] + lo[b] - 1e-9)


@given(demands_lists, st.floats(min_value=0.0, max_value=1e4))
def test_pseudo_inverse_galois_upper(demands, e):
    up = WorkloadCurve.from_demand_array(demands, "upper")
    k = up.pseudo_inverse(e)
    # definition: largest k with γ^u(k) <= e
    assert up(k) <= e + 1e-9
    assert up(k + 1) > e - 1e-9


@given(demands_lists, st.floats(min_value=1e-3, max_value=1e4))
def test_pseudo_inverse_galois_lower(demands, e):
    lo = WorkloadCurve.from_demand_array(demands, "lower")
    k = lo.pseudo_inverse(e)
    assert lo(k) >= e - 1e-9
    if k > 0:
        assert lo(k - 1) < e + 1e-9


@given(demands_lists)
def test_roundtrip_identity(demands):
    pair = WorkloadCurvePair.from_demand_array(demands)
    ks = np.arange(1, min(len(demands), 20) + 1)
    assert np.all(pair.upper.pseudo_inverse(pair.upper(ks)) == ks)
    assert np.all(pair.lower.pseudo_inverse(pair.lower(ks)) == ks)


@given(demands_lists)
def test_wcet_bcet_lines_bound_curves(demands):
    pair = WorkloadCurvePair.from_demand_array(demands)
    ks = np.arange(1, len(demands) + 1)
    assert np.all(pair.upper(ks) <= ks * pair.wcet + 1e-9)
    assert np.all(pair.lower(ks) >= ks * pair.bcet - 1e-9)


@given(demands_lists)
def test_lower_never_exceeds_upper_even_extended(demands):
    pair = WorkloadCurvePair.from_demand_array(demands)
    ks = np.arange(0, 3 * len(demands) + 2)
    assert np.all(pair.lower(ks) <= pair.upper(ks) + 1e-9)


@given(demands_lists, st.integers(min_value=1, max_value=4))
def test_additive_extension_definition(demands, q):
    """Beyond the horizon the curve follows the additive decomposition
    ``γ(qK + r) = q·γ(K) + γ(r)`` exactly (and stays monotone)."""
    pair = WorkloadCurvePair.from_demand_array(demands)
    K = pair.upper.horizon
    for r in range(0, min(K, 7)):
        k = q * K + r
        assert pair.upper(k) == pytest.approx(q * pair.upper(K) + pair.upper(r))
        assert pair.lower(k) == pytest.approx(q * pair.lower(K) + pair.lower(r))
    ks = np.arange(0, 2 * K + 2)
    assert np.all(np.diff(pair.upper(ks)) >= -1e-9)
    assert np.all(np.diff(pair.lower(ks)) >= -1e-9)


@given(demands_lists, st.integers(min_value=1, max_value=3))
def test_repeated_trace_curve_bounds_repeated_windows(demands, reps):
    """A curve extracted from the repeated trace bounds every window of
    that repeated trace — and dominates the single-trace curve (repetition
    creates junction windows the single trace never exhibits; the paper's
    'guaranteed for this trace only' caveat)."""
    repeated = np.tile(np.asarray(demands), reps + 1)
    pair_rep = WorkloadCurvePair.from_demand_array(repeated)
    pair_one = WorkloadCurvePair.from_demand_array(demands)
    csum = np.concatenate(([0.0], np.cumsum(repeated)))
    for k in range(1, repeated.size + 1, max(1, repeated.size // 5)):
        windows = csum[k:] - csum[:-k]
        assert windows.max() <= pair_rep.upper(k) + 1e-9
    ks = np.arange(1, len(demands) + 1)
    assert np.all(pair_rep.upper(ks) >= pair_one.upper(ks) - 1e-9)


@given(demands_lists, st.floats(min_value=0.1, max_value=4.0))
def test_scaling_commutes(demands, factor):
    up = WorkloadCurve.from_demand_array(demands, "upper")
    scaled_curve = up.scale(factor)
    scaled_trace = WorkloadCurve.from_demand_array(np.asarray(demands) * factor, "upper")
    ks = np.arange(1, len(demands) + 1)
    assert np.allclose(scaled_curve(ks), scaled_trace(ks), rtol=1e-9)


@given(demands_lists, demands_lists)
def test_envelope_dominates_both(d1, d2):
    u1 = WorkloadCurve.from_demand_array(d1, "upper")
    u2 = WorkloadCurve.from_demand_array(d2, "upper")
    env = u1.max_with(u2)
    ks = np.arange(1, max(len(d1), len(d2)) + 1)
    assert np.all(env(ks) >= u1(ks) - 1e-9)
    assert np.all(env(ks) >= u2(ks) - 1e-9)
