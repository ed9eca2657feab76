"""Unit and property tests for repro.util.staircase."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.curves.arrival import maximal_window_lengths, minimal_window_lengths
from repro.obs.metrics import registry
from repro.reference import streaming_envelope_brute
from repro.util import staircase
from repro.util.staircase import (
    cumulative_envelope_max,
    cumulative_envelope_min,
    cumulative_envelope_minmax,
    is_non_decreasing,
    is_strictly_increasing,
    make_k_grid,
    sliding_window_max_sum,
    sliding_window_min_sum,
    streaming_envelope_minmax,
)
from repro.util.validation import ValidationError

DEMANDS = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]


class TestSlidingWindows:
    def test_max_sum_k1_is_max(self):
        assert sliding_window_max_sum(DEMANDS, 1) == 9.0

    def test_min_sum_k1_is_min(self):
        assert sliding_window_min_sum(DEMANDS, 1) == 1.0

    def test_full_window_is_total(self):
        assert sliding_window_max_sum(DEMANDS, len(DEMANDS)) == sum(DEMANDS)
        assert sliding_window_min_sum(DEMANDS, len(DEMANDS)) == sum(DEMANDS)

    def test_known_window(self):
        # windows of 2: max is 5+9=14, min is 1+4... no: 3+1=4, 1+4=5, 4+1=5,
        # 1+5=6, 5+9=14, 9+2=11, 2+6=8 -> min 4
        assert sliding_window_max_sum(DEMANDS, 2) == 14.0
        assert sliding_window_min_sum(DEMANDS, 2) == 4.0

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            sliding_window_max_sum(DEMANDS, 0)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValidationError, match="exceeds"):
            sliding_window_min_sum(DEMANDS, len(DEMANDS) + 1)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=40),
        st.data(),
    )
    def test_matches_bruteforce(self, values, data):
        k = data.draw(st.integers(min_value=1, max_value=len(values)))
        brute_max = max(sum(values[j : j + k]) for j in range(len(values) - k + 1))
        brute_min = min(sum(values[j : j + k]) for j in range(len(values) - k + 1))
        assert sliding_window_max_sum(values, k) == pytest.approx(brute_max)
        assert sliding_window_min_sum(values, k) == pytest.approx(brute_min)


class TestEnvelopes:
    def test_envelope_matches_pointwise(self):
        ks = np.array([1, 2, 3, 8])
        env = cumulative_envelope_max(DEMANDS, ks)
        expected = [sliding_window_max_sum(DEMANDS, int(k)) for k in ks]
        assert np.allclose(env, expected)

    def test_min_envelope_matches_pointwise(self):
        ks = np.array([1, 4, 8])
        env = cumulative_envelope_min(DEMANDS, ks)
        expected = [sliding_window_min_sum(DEMANDS, int(k)) for k in ks]
        assert np.allclose(env, expected)

    def test_rejects_unsorted_k(self):
        with pytest.raises(ValidationError):
            cumulative_envelope_max(DEMANDS, [2, 1])

    def test_rejects_empty_k(self):
        with pytest.raises(ValidationError):
            cumulative_envelope_max(DEMANDS, [])

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=30))
    def test_max_envelope_non_decreasing(self, values):
        ks = np.arange(1, len(values) + 1)
        env = cumulative_envelope_max(values, ks)
        assert is_non_decreasing(env)

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=30))
    def test_min_envelope_below_max(self, values):
        ks = np.arange(1, len(values) + 1)
        assert np.all(
            cumulative_envelope_min(values, ks) <= cumulative_envelope_max(values, ks) + 1e-12
        )


class TestNonFiniteDemands:
    """The one-shot path rejects what the streaming fold rejects."""

    def test_envelope_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            cumulative_envelope_minmax([1.0, np.nan, 2.0], [1, 2])

    def test_single_window_rejects_inf(self):
        with pytest.raises(ValidationError, match="finite"):
            sliding_window_max_sum([1.0, np.inf, 2.0], 2)


def _plain_extrema(x, ks):
    """The per-length loop the window kernel replaced: one full pass of
    ``x[k:] - x[:x.size - k]`` per window length."""
    lo = np.empty(len(ks))
    hi = np.empty(len(ks))
    for i, k in enumerate(ks):
        d = x[k:] - x[: x.size - k]
        lo[i], hi[i] = d.min(), d.max()
    return lo, hi


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _fallbacks(op):
    return registry.counter("staircase.window_lengths", op=op, path="fallback").value


def _family(name, n, rng):
    if name == "uniform":
        return rng.uniform(0.0, 10.0, n)
    if name == "signed":
        return rng.normal(0.0, 5.0, n)
    if name == "constant":
        return np.full(n, 3.25)
    if name == "tied":
        return rng.integers(0, 4, n).astype(float)
    if name == "steps":
        return np.repeat(rng.uniform(0.0, 100.0, n // 8 + 1), 8)[:n]
    if name == "giant":
        return rng.uniform(0.0, 1e9, n)
    if name == "ramp":  # every extremum sits at a trace end
        return np.linspace(0.0, 1.0, n) + rng.uniform(0.0, 1e-3, n)
    return rng.choice([-0.0, 0.0, 1.0], n)  # signed zeros


_FAMILIES = ("uniform", "signed", "constant", "tied", "steps", "giant", "ramp", "zeros")


@st.composite
def _window_case(draw):
    """A demand trace of one family and a window grid over it."""
    n = draw(st.integers(min_value=1, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = _family(draw(st.sampled_from(_FAMILIES)), n, rng)
    grid = draw(st.sampled_from(("dense", "geometric", "subset")))
    if grid == "dense":
        ks = np.arange(1, n + 1)
    elif grid == "geometric":
        limit = draw(st.integers(min_value=1, max_value=64))
        ks = make_k_grid(n, dense_limit=limit, growth=draw(st.sampled_from((1.02, 1.1, 1.5))))
    else:
        ks = np.flatnonzero(rng.random(n) < 0.6) + 1
        ks = ks if ks.size else np.array([n])
    return values, ks.astype(np.int64), draw(st.sampled_from((0.0, 1e6)))


class TestWindowKernel:
    """The pruned kernel returns the floats of a full pass per length,
    bit for bit, on every input family."""

    @given(_window_case())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_plain_pass(self, case):
        values, ks, offset = case
        lo, hi = cumulative_envelope_minmax(values, ks)
        ref_lo, ref_hi = _plain_extrema(np.concatenate(([0.0], np.cumsum(values))), ks)
        assert _bits(lo) == _bits(ref_lo) and _bits(hi) == _bits(ref_hi)
        # the same draw as a timestamp trace: ties wherever a value is zero,
        # and window counts n cover k = n - 1 = 0 through the whole trace
        ts = offset + np.cumsum(np.abs(values))
        ns = np.unique(np.minimum(ks, ts.size))
        ref_min, ref_max = _plain_extrema(ts, ns - 1)
        assert _bits(minimal_window_lengths(ts, ns)[1]) == _bits(ref_min)
        assert _bits(maximal_window_lengths(ts, ns)[1]) == _bits(ref_max)

    def test_extremum_at_trace_end_prunes_exactly(self):
        rng = np.random.default_rng(11)
        values = np.linspace(1.0, 2.0, 600) + rng.uniform(0.0, 0.01, 600)
        ks = np.arange(1, 601)
        pruned = registry.counter(
            "staircase.window_lengths", op="envelope_minmax", path="pruned"
        )
        before = pruned.value
        lo, hi = cumulative_envelope_minmax(values, ks)
        ref_lo, ref_hi = _plain_extrema(np.concatenate(([0.0], np.cumsum(values))), ks)
        assert _bits(lo) == _bits(ref_lo) and _bits(hi) == _bits(ref_hi)
        assert pruned.value - before > ks.size // 2

    @pytest.mark.parametrize("zero, run", [(0.0, slice(150, 230)), (-0.0, slice(0, 40))])
    def test_zero_extremum_takes_the_fallback(self, zero, run):
        """A run of idle activations makes the minimum window sum zero for
        every length inside the run.  Opened by ``-0.0`` demands, the run
        holds windows summing to ``-0.0`` and to ``+0.0``, which compare
        equal; only the full pass fixes which one its reduction returns,
        so those lengths fall back."""
        rng = np.random.default_rng(5)
        values = rng.uniform(1.0, 2.0, 1000)
        values[run] = zero
        ks = np.arange(1, 1001)
        before = _fallbacks("envelope_minmax")
        lo, hi = cumulative_envelope_minmax(values, ks)
        ref_lo, ref_hi = _plain_extrema(np.concatenate(([0.0], np.cumsum(values))), ks)
        assert _bits(lo) == _bits(ref_lo) and _bits(hi) == _bits(ref_hi)
        assert _fallbacks("envelope_minmax") - before >= 1

    def test_simultaneous_arrivals_take_the_fallback(self):
        rng = np.random.default_rng(8)
        ts = 1e6 + np.cumsum(rng.exponential(1.0, 2000))
        for start in (300, 900, 1500):  # bursts of five simultaneous events
            ts[start : start + 5] = ts[start]
        before = _fallbacks("min_window")
        ns, d = minimal_window_lengths(ts)
        assert _bits(d) == _bits(_plain_extrema(ts, ns - 1)[0])
        assert _fallbacks("min_window") - before >= 1


@st.composite
def _one_sided_case(draw):
    """A demand trace of a family that stresses ties and signs, and a
    dense, sparse or geometric window grid over it."""
    n = draw(st.integers(min_value=1, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = _family(draw(st.sampled_from(("tied", "constant", "signed", "zeros", "giant"))), n, rng)
    grid = draw(st.sampled_from(("dense", "sparse", "geometric")))
    if grid == "dense":
        ks = np.arange(1, n + 1)
    elif grid == "sparse":
        ks = np.flatnonzero(rng.random(n) < 0.1) + 1
        ks = ks if ks.size else np.array([n])
    else:
        limit = draw(st.integers(min_value=1, max_value=64))
        ks = make_k_grid(n, dense_limit=limit, growth=draw(st.sampled_from((1.02, 1.1, 1.5))))
    return values, ks.astype(np.int64)


def _opened_by_negative_zeros():
    """1,000 demands whose first 40 are ``-0.0``: the minimum side alone
    has zero extrema that only the fallback's full pass signs right."""
    values = np.random.default_rng(5).uniform(1.0, 2.0, 1000)
    values[:40] = -0.0
    return values, np.arange(1, 1001, dtype=np.int64)


@given(_one_sided_case())
@settings(max_examples=150, deadline=None)
@example(case=_opened_by_negative_zeros())
def test_one_sided_envelopes_match_the_pair(case):
    """Each one-sided extraction returns its side of the two-sided one,
    byte for byte: the sign of a zero included."""
    values, ks = case
    lo, hi = cumulative_envelope_minmax(values, ks)
    assert _bits(cumulative_envelope_max(values, ks)) == _bits(hi)
    assert _bits(cumulative_envelope_min(values, ks)) == _bits(lo)


class TestMonotoneHelpers:
    def test_non_decreasing(self):
        assert is_non_decreasing([1, 1, 2])
        assert not is_non_decreasing([2, 1])

    def test_strictly_increasing(self):
        assert is_strictly_increasing([1, 2, 3])
        assert not is_strictly_increasing([1, 1])

    def test_short_sequences(self):
        assert is_non_decreasing([])
        assert is_strictly_increasing([5])


def _split(arr, cuts):
    """Split *arr* at the sorted cut indices (duplicates → empty chunks)."""
    pieces = []
    prev = 0
    for c in list(cuts) + [len(arr)]:
        pieces.append(arr[prev:c])
        prev = c
    return pieces


class TestStreaming:
    """The streaming fold must be *bit-identical* to the one-shot kernel:
    each chunk's cumsum is seeded with the running total, so every prefix
    sum is the same float the one-shot cumsum computes."""

    def test_matches_oneshot_simple(self):
        ks = np.array([1, 3, 8], dtype=np.int64)
        lo, hi = streaming_envelope_minmax(_split(DEMANDS, [3, 5]), ks)
        lo1, hi1 = cumulative_envelope_minmax(DEMANDS, ks)
        assert np.array_equal(lo, lo1) and np.array_equal(hi, hi1)

    def test_empty_chunks_skipped(self):
        ks = np.array([2, 4], dtype=np.int64)
        chunks = [[], DEMANDS[:4], [], [], DEMANDS[4:], []]
        lo, hi = streaming_envelope_minmax(chunks, ks)
        lo1, hi1 = cumulative_envelope_minmax(DEMANDS, ks)
        assert np.array_equal(lo, lo1) and np.array_equal(hi, hi1)

    @given(
        st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=120),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_under_random_chunking(self, values, data):
        arr = np.asarray(values)
        n = arr.size
        cuts = sorted(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=n), max_size=8)
            )
        )
        n_ks = data.draw(st.integers(min_value=1, max_value=min(n, 6)))
        ks = np.sort(
            np.asarray(
                data.draw(
                    st.lists(
                        st.integers(min_value=1, max_value=n),
                        min_size=n_ks,
                        max_size=n_ks,
                        unique=True,
                    )
                ),
                dtype=np.int64,
            )
        )
        lo, hi = streaming_envelope_minmax(_split(arr, cuts), ks, total=n)
        lo1, hi1 = cumulative_envelope_minmax(arr, ks)
        assert np.array_equal(lo, lo1)
        assert np.array_equal(hi, hi1)

    def test_leading_negative_zero_demands_keep_their_sign(self):
        """The first prefix sums are the demands' own -0.0, as in the
        one-shot cumsum (a fold seeded with 0.0 made them +0.0, and
        ``lo[38]``, ``lo[39]`` read +0.0 where the one-shot kernel reads
        -0.0)."""
        values = np.random.default_rng(0).uniform(1.0, 2.0, 2000)
        values[:40] = -0.0
        ks = np.arange(1, 1001, dtype=np.int64)
        chunks = _split(values, [1000])
        lo1, hi1 = cumulative_envelope_minmax(values, ks)
        assert np.signbit(lo1[[38, 39]]).all()
        for lo, hi in (
            streaming_envelope_minmax(chunks, ks),
            streaming_envelope_brute(chunks, ks),
        ):
            assert lo.tobytes() == lo1.tobytes()
            assert hi.tobytes() == hi1.tobytes()

    def test_window_spanning_many_chunks(self):
        # k_max wider than any single chunk: windows cross every boundary
        arr = np.arange(1.0, 41.0)
        ks = np.array([25, 40], dtype=np.int64)
        lo, hi = streaming_envelope_minmax(_split(arr, list(range(5, 40, 5))), ks)
        lo1, hi1 = cumulative_envelope_minmax(arr, ks)
        assert np.array_equal(lo, lo1) and np.array_equal(hi, hi1)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            streaming_envelope_minmax([], np.array([1]))
        with pytest.raises(ValidationError, match="empty"):
            streaming_envelope_minmax([[], []], np.array([1]))

    def test_total_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="expected"):
            streaming_envelope_minmax([DEMANDS], np.array([2]), total=5)

    def test_k_exceeding_stream_rejected(self):
        with pytest.raises(ValidationError, match="exceed"):
            streaming_envelope_minmax([DEMANDS], np.array([len(DEMANDS) + 1]))

    def test_k_exceeding_total_rejected_upfront(self):
        # with total declared, the oversized grid is rejected before any
        # chunk is consumed
        def exploding():
            raise AssertionError("stream must not be consumed")
            yield

        with pytest.raises(ValidationError, match="exceed"):
            streaming_envelope_minmax(exploding(), np.array([9]), total=8)

    def test_bad_k_values_rejected(self):
        with pytest.raises(ValidationError):
            streaming_envelope_minmax([DEMANDS], np.array([2, 1]))
        with pytest.raises(ValidationError):
            streaming_envelope_minmax([DEMANDS], np.array([], dtype=np.int64))
        with pytest.raises(ValidationError):
            streaming_envelope_minmax([DEMANDS], np.array([0, 1]))

    def test_non_finite_chunk_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            streaming_envelope_minmax([[1.0, np.inf]], np.array([1]))

    def test_two_dimensional_chunk_rejected(self):
        with pytest.raises(ValidationError, match="1-D"):
            streaming_envelope_minmax([np.ones((2, 2))], np.array([1]))


def _stream_family(name, n, rng):
    if name == "all_zeros":
        return rng.choice([-0.0, 0.0], n)
    if name == "opened":  # a run of -0.0 demands opens the trace
        values = rng.uniform(1.0, 2.0, n)
        values[: rng.integers(1, n + 1)] = -0.0
        return values
    return _family(name, n, rng)


_STREAM_FAMILIES = ("uniform", "tied", "constant", "signed", "giant", "all_zeros", "opened")
#: Oracle iterations, (chunks) x (window lengths), one drawn case may cost.
_ORACLE_BUDGET = 8_000


@st.composite
def _stream_case(draw):
    """A demand stream of one family, a window grid over it, its chunking
    and a block budget for the fold."""
    n = draw(st.integers(min_value=1, max_value=3_000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = _stream_family(draw(st.sampled_from(_STREAM_FAMILIES)), n, rng)
    grid = draw(st.sampled_from(("dense", "runs", "geometric", "sparse")))
    if grid == "dense":
        ks = np.arange(1, n + 1)
    elif grid == "runs":  # a few runs of consecutive lengths among sparse ones
        starts = rng.integers(1, n + 1, draw(st.integers(min_value=1, max_value=4)))
        runs = [np.arange(s, min(n, s + rng.integers(1, 200)) + 1) for s in starts]
        ks = np.unique(np.concatenate([*runs, rng.integers(1, n + 1, 8)]))
    elif grid == "geometric":
        limit = draw(st.integers(min_value=1, max_value=64))
        ks = make_k_grid(n, dense_limit=limit, growth=draw(st.sampled_from((1.02, 1.1, 1.5))))
    else:
        ks = np.flatnonzero(rng.random(n) < draw(st.sampled_from((0.1, 0.6)))) + 1
        ks = ks if ks.size else np.array([n])
    fewest = -(-n * ks.size // _ORACLE_BUDGET)  # smallest chunk within the budget
    size = draw(st.integers(min_value=max(1, fewest), max_value=n + 1))
    cuts = list(range(size, n, size))
    cuts += rng.choice(cuts or [0, n], draw(st.integers(min_value=0, max_value=3))).tolist()
    budget = draw(st.sampled_from((8, 64, staircase._BLOCK_ELEMENTS)))
    return values, ks.astype(np.int64), sorted(cuts), budget


def _stream_paths():
    return {
        path: registry.counter("staircase.stream_lengths", path=path).value
        for path in ("blocked", "single", "repass")
    }


class TestBlockedStreamingFold:
    """The blocked fold returns the floats of the per-length fold
    (:func:`repro.reference.streaming_envelope_brute`) bit for bit, the
    sign of zero included (byte equality compares the sign bits)."""

    @staticmethod
    def _assert_matches_oracle(values, ks, cuts):
        lo, hi = streaming_envelope_minmax(_split(values, cuts), ks, total=values.size)
        ref_lo, ref_hi = streaming_envelope_brute(_split(values, cuts), ks)
        assert _bits(lo) == _bits(ref_lo) and _bits(hi) == _bits(ref_hi)
        assert np.array_equal(np.signbit(lo), np.signbit(ref_lo))
        assert np.array_equal(np.signbit(hi), np.signbit(ref_hi))

    @given(_stream_case())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_per_length_fold(self, case):
        values, ks, cuts, budget = case
        with mock.patch.object(staircase, "_BLOCK_ELEMENTS", budget):
            self._assert_matches_oracle(values, ks, cuts)

    def test_zero_extremum_takes_the_repass(self):
        """80 idle activations in the second chunk make the minimum window
        sum of the lengths 1..80 zero there: those rows of the block are
        folded again per length."""
        values = np.random.default_rng(5).uniform(1.0, 2.0, 1000)
        values[350:430] = -0.0
        ks = np.arange(1, 1001)
        before = _stream_paths()
        self._assert_matches_oracle(values, ks, [300, 600])
        after = _stream_paths()
        assert after["repass"] - before["repass"] == 80
        assert after["blocked"] - before["blocked"] == 300 + 600 + 1000 - 80

    def test_block_straddling_the_first_window_ends(self):
        """In the second of three 20-event chunks one block holds lengths
        1..40, and the rows of lengths 22..40 have no window at the
        chunk's first ends.  Unfilled, those entries would be sums of
        fewer than k positive demands, below every window of length k."""
        values = np.random.default_rng(9).uniform(1.0, 2.0, 60)
        before = _stream_paths()
        self._assert_matches_oracle(values, np.arange(1, 61), [20, 40])
        after = _stream_paths()
        assert after["blocked"] - before["blocked"] == 20 + 40 + 60

    def test_overflowed_prefix_sums_fold_per_length(self):
        """Finite demands whose running sum overflows in the last chunk:
        its ``inf - inf`` windows are nan, which the per-length fold's
        running ``min``/``max`` pass over and a block reduction returns."""
        values = np.random.default_rng(2).uniform(1.0, 2.0, 200)
        values[150:152] = 1e308
        before = _stream_paths()
        with np.errstate(over="ignore", invalid="ignore"):
            self._assert_matches_oracle(values, np.arange(1, 201), [64, 128])
        after = _stream_paths()
        assert after["blocked"] - before["blocked"] == 64 + 128
        assert after["single"] - before["single"] == 200


class TestKGrid:
    def test_small_n_is_dense(self):
        assert list(make_k_grid(5)) == [1, 2, 3, 4, 5]

    def test_large_n_includes_endpoints(self):
        grid = make_k_grid(100_000, dense_limit=64, growth=1.1)
        assert grid[0] == 1
        assert grid[-1] == 100_000
        assert np.all(np.diff(grid) > 0)

    def test_dense_prefix_complete(self):
        grid = make_k_grid(10_000, dense_limit=32, growth=1.2)
        assert list(grid[:32]) == list(range(1, 33))

    def test_growth_must_exceed_one(self):
        with pytest.raises(ValidationError):
            make_k_grid(100, growth=1.0)
