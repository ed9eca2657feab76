"""Differential oracle: fast kernels vs definitional brute force.

Seeded randomized suite (≥200 cases per operator) comparing the memoized /
vectorized kernels against :mod:`repro.reference` — deliberately naive
O(n·k) / O(n²) implementations written straight from the definitions.
Every comparison runs with the kernel cache both enabled and disabled.

Degenerate inputs are covered explicitly: single-segment curves,
zero-burst curves, ``k = 1``, and grids with no tail beyond the dense
prefix.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf as perf
from repro.core.workload import WorkloadCurve
from repro.curves.arrival import leaky_bucket, periodic_upper
from repro.curves.curve import (
    PiecewiseLinearCurve,
    linear_curve,
    step_curve,
    zero_curve,
)
from repro.curves.minplus import convolve, convolve_at, deconvolve, deconvolve_at
from repro.curves.service import rate_latency
from repro.reference import (
    convolve_at_brute,
    deconvolve_at_brute,
    pseudo_inverse_brute,
    window_sums_brute,
    workload_eval_brute,
    workload_values_brute,
)
from repro.util.staircase import (
    cumulative_envelope_max,
    cumulative_envelope_min,
    make_k_grid,
)

N_CASES = 200
REL_TOL = 1e-9


@pytest.fixture(autouse=True, params=["cache-on", "cache-off"])
def cache_mode(request):
    """Run every oracle check twice: cache enabled and disabled."""
    perf.reset()
    perf.configure(enabled=request.param == "cache-on")
    yield request.param
    perf.reset()
    perf.configure(enabled=True)


# ---------------------------------------------------------------------------
# random input generators
# ---------------------------------------------------------------------------

def _random_curve(rng: np.random.Generator) -> PiecewiseLinearCurve:
    """A random small PWL curve spanning the representative families."""
    kind = rng.integers(0, 6)
    if kind == 0:
        return leaky_bucket(float(rng.uniform(0.0, 20.0)), float(rng.uniform(0.1, 5.0)))
    if kind == 1:
        return rate_latency(float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.0, 4.0)))
    if kind == 2:
        n = int(rng.integers(1, 7))
        positions = np.sort(rng.uniform(0.0, 8.0, n))
        heights = rng.uniform(0.5, 3.0, n)
        return step_curve(positions, heights)
    if kind == 3:  # general increasing PWL with mixed slopes and jumps
        n = int(rng.integers(1, 6))
        xs = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 10.0, n))))
        ss = rng.uniform(0.0, 4.0, n + 1)
        ys = np.empty(n + 1)
        ys[0] = rng.uniform(0.0, 5.0)
        for i in range(1, n + 1):
            left = ys[i - 1] + ss[i - 1] * (xs[i] - xs[i - 1])
            ys[i] = left + rng.uniform(0.0, 2.0)  # upward jump (possibly ~0)
        return PiecewiseLinearCurve(xs, ys, ss)
    if kind == 4:
        return periodic_upper(float(rng.uniform(0.5, 3.0)), horizon_periods=int(rng.integers(2, 6)))
    # degenerate families: zero curve, pure linear (single segment, zero burst)
    if rng.integers(0, 2):
        return zero_curve()
    return linear_curve(float(rng.uniform(0.1, 5.0)))


@pytest.fixture(scope="module")
def brute():
    """``brute(oracle, f, g, delta)``: ``oracle(f, g, delta)``, computed
    once per distinct argument.  Both cache params of a test draw the same
    cases, so they share each brute-force value."""
    values: dict[tuple, float] = {}

    def value(oracle, f: PiecewiseLinearCurve, g: PiecewiseLinearCurve, delta: float) -> float:
        key = (oracle.__name__, f.content_digest(), g.content_digest(), delta)
        if key not in values:
            values[key] = oracle(f, g, delta)
        return values[key]

    return value


def _random_deltas(rng: np.random.Generator, curves) -> list[float]:
    """Probe deltas: random, plus breakpoints and near-breakpoint offsets."""
    bps = np.concatenate([c.breakpoints for c in curves])
    out = [0.0, float(rng.uniform(0.0, 15.0))]
    if bps.size:
        bp = float(rng.choice(bps))
        out.extend([bp, bp + 0.3])
    return out


# ---------------------------------------------------------------------------
# min-plus convolution / deconvolution
# ---------------------------------------------------------------------------

class TestConvolutionOracle:
    def test_randomized_convolve_matches_brute(self, brute):
        rng = np.random.default_rng(2026_08_06)
        for case in range(N_CASES):
            f = _random_curve(rng)
            g = _random_curve(rng)
            fast = convolve(f, g)
            for delta in _random_deltas(rng, (f, g)):
                expected = brute(convolve_at_brute, f, g, delta)
                got_curve = fast(delta)
                got_point = convolve_at(f, g, delta)
                tol = REL_TOL * max(1.0, abs(expected))
                # the point operator approximates left limits with epsilon
                # probes (~1e-9 offsets), so it can sit ~eps·slope off the
                # exact limit the oracle computes
                assert abs(got_point - expected) <= 1e-7 * max(1.0, abs(expected)), (case, delta)
                if delta == 0.0:
                    # the curve stores the right limit at 0 (the combined
                    # burst); the conventional value (f⊗g)(0) = 0 is what
                    # the point operator returns
                    right = brute(convolve_at_brute, f, g, 1e-9)
                    assert got_curve == pytest.approx(right, rel=1e-6, abs=1e-6)
                    continue
                # the constructed curve may sit below the right limit only
                # within the epsilon probe band around a jump
                assert got_curve <= expected + tol, (case, delta)
                assert got_curve >= fast.left_limit(delta) - tol, (case, delta)

    def test_degenerate_convolve(self):
        cases = [
            (zero_curve(), zero_curve()),
            (linear_curve(2.0), zero_curve()),
            (linear_curve(2.0), linear_curve(3.0)),  # single segments
            (leaky_bucket(0.0, 1.0), rate_latency(1.0, 0.0)),  # zero burst
            (step_curve([1.0]), step_curve([1.0])),
        ]
        for f, g in cases:
            fast = convolve(f, g)
            for delta in (0.0, 0.5, 1.0, 2.0, 7.5):
                expected = convolve_at_brute(f, g, delta)
                assert fast(delta) == pytest.approx(expected, rel=REL_TOL, abs=1e-9)

    def test_randomized_deconvolve_matches_brute(self, brute):
        rng = np.random.default_rng(1896)
        checked = 0
        while checked < N_CASES:
            f = _random_curve(rng)
            # service with enough long-run rate to keep f ⊘ g bounded
            g = rate_latency(
                float(f.final_slope + rng.uniform(0.2, 4.0)),
                float(rng.uniform(0.0, 3.0)),
            )
            fast = deconvolve(f, g)
            for delta in _random_deltas(rng, (f, g)):
                expected = brute(deconvolve_at_brute, f, g, delta)
                got_point = deconvolve_at(f, g, delta)
                tol = REL_TOL * max(1.0, abs(expected))
                assert abs(got_point - expected) <= 1e-7 * max(1.0, abs(expected))
                assert fast(delta) >= expected - tol
                # the sup curve may exceed the pointwise brute value only by
                # the epsilon-probe band at jumps: compare against the next
                # probe to the right as well
                probe = brute(deconvolve_at_brute, f, g, delta + 1e-9 * max(1.0, delta))
                assert fast(delta) <= max(expected, probe) + 1e-6 * max(1.0, abs(expected))
            checked += 1

    def test_degenerate_deconvolve(self):
        cases = [
            (zero_curve(), zero_curve()),
            (linear_curve(1.0), linear_curve(1.0)),
            (leaky_bucket(0.0, 1.0), rate_latency(2.0, 1.0)),
            (step_curve([1.0]), linear_curve(1.0)),
        ]
        for f, g in cases:
            fast = deconvolve(f, g)
            for delta in (0.0, 0.5, 1.0, 3.0):
                expected = deconvolve_at_brute(f, g, delta)
                assert fast(delta) == pytest.approx(expected, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# workload-curve extraction (from_trace envelope kernel)
# ---------------------------------------------------------------------------

def _random_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    mode = rng.integers(0, 4)
    if mode == 0:
        return np.arange(1, n + 1, dtype=np.int64)  # dense, no tail
    if mode == 1:
        return np.array([1], dtype=np.int64)  # k = 1 only
    if mode == 2:
        size = int(rng.integers(1, min(n, 6) + 1))
        ks = np.sort(rng.choice(np.arange(1, n + 1), size=size, replace=False))
        return ks.astype(np.int64)
    return make_k_grid(n, dense_limit=max(1, n // 2), growth=1.3)


class TestEnvelopeOracle:
    def test_randomized_extraction_matches_brute(self):
        rng = np.random.default_rng(404)
        for case in range(N_CASES):
            n = int(rng.integers(1, 40))
            demands = rng.uniform(0.5, 10.0, n)
            ks = _random_grid(rng, n)
            hi = cumulative_envelope_max(demands, ks)
            lo = cumulative_envelope_min(demands, ks)
            hi_brute = workload_values_brute(demands, ks, "upper")
            lo_brute = workload_values_brute(demands, ks, "lower")
            assert np.allclose(hi, hi_brute, rtol=REL_TOL, atol=1e-9), case
            assert np.allclose(lo, lo_brute, rtol=REL_TOL, atol=1e-9), case

    def test_degenerate_extraction(self):
        # single event, k = 1: the envelope is the event itself
        assert cumulative_envelope_max([4.2], [1])[0] == pytest.approx(4.2)
        assert cumulative_envelope_min([4.2], [1])[0] == pytest.approx(4.2)
        # constant demands: window sum is exactly k·w for every k
        ks = np.arange(1, 11)
        hi = cumulative_envelope_max(np.full(10, 2.5), ks)
        assert np.allclose(hi, 2.5 * ks)
        assert window_sums_brute(np.full(10, 2.5), 10, "upper") == pytest.approx(25.0)

    def test_workload_curve_eval_and_inverse_match_brute(self):
        rng = np.random.default_rng(777)
        for case in range(N_CASES):
            n = int(rng.integers(2, 30))
            demands = rng.uniform(0.5, 10.0, n)
            kind = "upper" if rng.integers(0, 2) else "lower"
            ks = _random_grid(rng, n)
            curve = WorkloadCurve.from_demand_array(demands, kind, k_values=ks)
            gk, gv = curve.k_values, curve.values
            # evaluation: on-grid, off-grid, beyond-horizon (additive ext.)
            probes = {1, int(ks[-1]), int(ks[-1]) + 1, int(ks[-1]) * 3 + 2,
                      int(rng.integers(0, 2 * ks[-1] + 2))}
            for k in probes:
                expected = workload_eval_brute(gk, gv, kind, k)
                assert curve(k) == pytest.approx(expected, rel=REL_TOL), (case, k)
            # pseudo-inverse: budgets at, between, and beyond curve values
            budgets = [0.0, float(gv[0]) / 2, float(gv[-1]),
                       float(gv[-1]) * 2.5, float(rng.uniform(0, 3 * gv[-1]))]
            for e in budgets:
                expected = pseudo_inverse_brute(gk, gv, kind, e)
                assert curve.pseudo_inverse(e) == expected, (case, e, kind)
