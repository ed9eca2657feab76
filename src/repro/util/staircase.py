"""Integer-domain staircase and sliding-window helpers.

Workload curves (paper, Definition 1) are sequences indexed by the number of
consecutive task activations ``k``.  Extracting them from a trace requires,
for every window length ``k``, the maximum (or minimum) sum of per-event
demands over all length-``k`` windows.  The helpers here implement that with
cumulative sums: each window sum is one subtraction of two prefix sums,
:func:`_window_extrema` forms only the subtractions that can hold each
extremum (see its docstring), and :func:`streaming_envelope_minmax` forms
a chunk's subtractions for a block of consecutive window lengths at once
(see :class:`_StreamFold`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.obs.metrics import counter
from repro.perf.cache import digest_of, kernel_cache
from repro.perf.instrument import instrumented
from repro.util.validation import ValidationError, check_integer

__all__ = [
    "sliding_window_max_sum",
    "sliding_window_min_sum",
    "cumulative_envelope_max",
    "cumulative_envelope_min",
    "cumulative_envelope_minmax",
    "streaming_envelope_minmax",
    "is_non_decreasing",
    "is_strictly_increasing",
    "make_k_grid",
]


def sliding_window_max_sum(values: Sequence[float], k: int) -> float:
    """Maximum sum over all contiguous windows of length *k* in *values*.

    Implements ``max_j sum(values[j:j+k])`` — the inner maximization of the
    paper's upper workload curve (eq. (1)) for a single ``k``.  Routed
    through the memoized :func:`cumulative_envelope_max` under the key of
    ``(values, [k])``: repeating a probe is a cache hit, but a probe never
    hits the entry of the min probe or of a full-grid extraction of the
    same trace.

    Raises
    ------
    ValidationError
        If ``k < 1``, ``k`` exceeds the trace length, or a demand is not
        finite.
    """
    return _probe(values, k, cumulative_envelope_max)


def sliding_window_min_sum(values: Sequence[float], k: int) -> float:
    """Minimum sum over all contiguous windows of length *k* in *values*.

    Implements ``min_j sum(values[j:j+k])`` — the inner minimization of the
    paper's lower workload curve (eq. (2)) for a single ``k``.  Memoized
    like :func:`sliding_window_max_sum`, through
    :func:`cumulative_envelope_min`: the min and max probes of the same
    ``(values, k)`` are separate cache entries.
    """
    return _probe(values, k, cumulative_envelope_min)


def _probe(values: Sequence[float], k: int, envelope: Callable) -> float:
    arr = np.asarray(values, dtype=float)
    k = check_integer(k, "k", minimum=1)
    if k > arr.size:
        raise ValidationError(f"window length k={k} exceeds trace length {arr.size}")
    return float(envelope(arr, np.array([k], dtype=np.int64))[0])


def cumulative_envelope_max(values: Sequence[float], k_values: Sequence[int]) -> np.ndarray:
    """Vector of :func:`sliding_window_max_sum` evaluated at each ``k``.

    ``k_values`` must be sorted, positive, and bounded by ``len(values)``.
    Returns a float array of the same length as ``k_values``.  Only the
    maximum side is reduced, so the window kernel prunes against that side
    alone; each value is the float the matching side of
    :func:`cumulative_envelope_minmax` returns.  Memoized under
    ``staircase.envelope_max``.
    """
    (hi,) = _envelope(values, k_values, "envelope_max")
    return hi


def cumulative_envelope_min(values: Sequence[float], k_values: Sequence[int]) -> np.ndarray:
    """Vector of :func:`sliding_window_min_sum` evaluated at each ``k``:
    the minimum side alone, like :func:`cumulative_envelope_max`, memoized
    under ``staircase.envelope_min``."""
    (lo,) = _envelope(values, k_values, "envelope_min")
    return lo


def cumulative_envelope_minmax(
    values: Sequence[float], k_values: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Both envelopes, ``(min_sums, max_sums)``, in one pass over the windows.

    This is the per-``k`` extraction kernel behind
    :meth:`repro.core.workload.WorkloadCurvePair.from_demand_array`: the
    window-sum differences are computed once and reduced under ``min`` and
    ``max`` simultaneously, so extracting a pair costs one sweep instead of
    two.  Results are memoized by content digest of ``(values, k_values)``
    under ``staircase.envelope_minmax``; the one-sided extractions
    :func:`cumulative_envelope_max` and :func:`cumulative_envelope_min`
    have entries of their own and never hit this one.

    Raises
    ------
    ValidationError
        On malformed ``k_values`` or a demand that is not finite.
    """
    lo, hi = _envelope(values, k_values, "envelope_minmax")
    return lo, hi


def _envelope(values: Sequence[float], k_values: Sequence[int], op: str) -> list[np.ndarray]:
    """The memoized one-shot extraction of the sides *op* names."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("demands must be finite")
    ks = _check_k_values(k_values, arr.size)
    key = (f"staircase.{op}", digest_of(arr, ks))
    sides = kernel_cache.get_or_compute(key, lambda: _EXTRACT[op](arr, ks))
    return [side.copy() for side in sides]


def _kernel(op: str, *, minimum: bool = True, maximum: bool = True):
    """The one-shot extraction of *op*, timed as kernel ``staircase.<op>``."""

    @instrumented(f"staircase.{op}")
    def extract(arr: np.ndarray, ks: np.ndarray) -> list[np.ndarray]:
        csum = np.concatenate(([0.0], np.cumsum(arr)))
        return _window_extrema(csum, ks, op, minimum=minimum, maximum=maximum)

    return extract


_EXTRACT = {
    "envelope_minmax": _kernel("envelope_minmax"),
    "envelope_max": _kernel("envelope_max", minimum=False),
    "envelope_min": _kernel("envelope_min", maximum=False),
}


class _Side(NamedTuple):
    """One extremum of :func:`_window_extrema`, named for the maximum; the
    minimum mirrors each field."""

    best: np.ufunc  # its reduction, the one a full pass applies
    worst: np.ufunc  # the opposite reduction
    arg: Callable[..., int]  # position of the extremum
    holds: np.ufunc  # "at least as extreme as"
    sign: float  # the direction in which values grow more extreme


_MAX = _Side(np.maximum, np.minimum, np.argmax, np.greater_equal, 1.0)
_MIN = _Side(np.minimum, np.maximum, np.argmin, np.less_equal, -1.0)

#: Window lengths one anchor pass serves.
_SPAN = 16
#: An anchor prunes its span only while its candidates are at most this
#: share of the window starts.
_CANDIDATE_SHARE = 1 / 8


def _window_extrema(
    x: np.ndarray,
    ks: np.ndarray,
    op: str,
    *,
    minimum: bool = True,
    maximum: bool = True,
) -> list[np.ndarray]:
    """``min_j`` and/or ``max_j`` of ``x[j + k] - x[j]`` for each ``k`` of
    the strictly increasing grid *ks* (``0 <= k < x.size``), in that order.

    *x* is a prefix-sum array (window sums) or a timestamp array (window
    spans).  Every value returned is the float a full pass
    ``(x[k:] - x[:x.size - k]).max()`` produces: the kernel forms the same
    subtractions, only fewer of them.

    With ``S(j, k) = x[j + k] - x[j]``, real arithmetic gives
    ``S(j, k0 + m) = S(j, k0) + S(j + k0, m)``.  An *anchor* length ``k0``
    gets a full pass; for a following length ``k = k0 + m`` whose offset
    ``m`` is a length already computed, every start satisfies
    ``S(j + k0, m) <= E(m)``, the exact maximum at ``m``.  So a start whose
    anchor value lies below a threshold ``T`` has ``S(j, k) < T + E(m)``
    (up to rounding), and only the *candidates* at or above ``T`` need the
    subtraction at ``k``.  ``T`` is chosen from one valid start near the
    anchor's best, so that start beats the bound; the kernel then
    *checks*, per length, that the best candidate reaches the bound,
    which makes the result exact whatever ``T`` was.  A length that fails
    the check, or whose extremum is zero (the plain reduction alone fixes
    the sign of a zero), gets its own full pass.

    An anchor serves up to :data:`_SPAN` following lengths.  One whose
    candidates exceed :data:`_CANDIDATE_SHARE` of the starts prunes
    nothing, and the next attempt waits: 1, 3, 7, ... anchors after 1,
    2, 3, ... failed attempts in a row, until one prunes.  On inputs
    where no start stands out (constant or tied demands) nearly every
    length is then a plain full pass; a shorter span instead would cost
    more in candidate bookkeeping than it saves on short traces.  Counts
    each length under ``staircase.window_lengths{op, path}``, ``path``
    one of ``anchor`` (a full pass), ``pruned`` or ``fallback``.
    """
    sides = [side for side, on in ((_MIN, minimum), (_MAX, maximum)) if on]
    out = [np.empty(ks.size) for _ in sides]
    last = x.size - 1  # starts of length k are 0..last-k
    scale = float(np.max(np.abs(x)))
    # Rounding margin, with u = 2**-53 and s = scale: each difference of
    # two entries of x is exact up to one rounding of at most 2us, so an
    # excluded start's value at k = k0 + m is below T + E(m) + 6us (the
    # anchor subtraction, the one at m behind E(m), and its own).  Forming
    # the bound T + E(m) + margin rounds twice more on magnitudes below
    # 7s, at most 14us + u*margin.  margin = 64us covers both with room;
    # a bound no excluded start reaches makes ties with the best
    # impossible.
    margin = 32 * np.finfo(float).eps * scale
    # every bound below stays under 8 * scale in magnitude: prune only
    # while that cannot overflow
    span = _SPAN if np.isfinite(16 * scale) else 0
    idle = misses = 0  # anchors to pass before the next attempt; failed attempts in a row
    pruned = fallbacks = 0
    lengths = ks.tolist()
    index = {k: j for j, k in enumerate(lengths)}
    buf = np.empty(x.size)  # a full pass's window values, until the next one

    def full_pass(i: int) -> np.ndarray:
        k = lengths[i]
        d = np.subtract(x[k:], x[: x.size - k], out=buf[: x.size - k])
        for side, res in zip(sides, out):
            res[i] = side.best.reduce(d)
        return d

    i = 0
    while i < ks.size:
        d = full_pass(i)
        if idle:
            idle -= 1
            i += 1
            continue
        # the following lengths whose offset m is a length already computed
        pos = []
        for k in lengths[i + 1 : i + 1 + span]:
            j = index.get(k - lengths[i], i + 1)
            if j > i:
                break
            pos.append(j)
        n_group = len(pos)
        if n_group == 0:
            i += 1
            continue
        kk = ks[i + 1 : i + 1 + n_group]
        thresholds = []
        mask = np.zeros(d.size, dtype=bool)
        for side, res in zip(sides, out):
            ref = np.minimum(side.arg(d), last - kk)
            gap = side.worst.reduce(x[ref + kk] - x[ref] - res[pos])
            thresholds.append(gap - side.sign * 2 * margin)
            mask |= side.holds(d, thresholds[-1])
        cand = np.flatnonzero(mask)
        if cand.size > d.size * _CANDIDATE_SHARE:
            misses += 1
            idle = 2**misses - 1
            i += 1
            continue
        misses = 0
        ends = cand + kk[:, None]
        sums = x.take(ends, mode="clip")
        sums -= x[cand]
        valid = ends <= last  # a start past the last one of a length holds no window
        group = slice(i + 1, i + 1 + n_group)
        failed = np.zeros(n_group, dtype=bool)
        for side, res, threshold in zip(sides, out, thresholds):
            best = side.best.reduce(sums, axis=1, where=valid, initial=-side.sign * np.inf)
            res[group] = best
            bound = threshold + res[pos] + side.sign * margin
            failed |= ~side.holds(best, bound) | (best == 0.0)
        for f in np.flatnonzero(failed):
            full_pass(i + 1 + int(f))
        fallbacks += int(failed.sum())
        pruned += n_group - int(failed.sum())
        i += 1 + n_group
    anchors = ks.size - pruned - fallbacks
    for path, count in (("anchor", anchors), ("pruned", pruned), ("fallback", fallbacks)):
        if count:
            counter("staircase.window_lengths", op=op, path=path).inc(count)
    return out


def streaming_envelope_minmax(
    chunks: Iterable[Sequence[float]],
    k_values: Sequence[int],
    *,
    total: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Both envelopes of a chunked demand stream, bit-identical to
    :func:`cumulative_envelope_minmax` on the concatenated array.

    Folds the stream with bounded memory: the prefix-sum sequence is
    continued across chunk boundaries by seeding each chunk's ``cumsum``
    with the running total (so every prefix sum is the *same float* the
    one-shot kernel computes), and only the trailing ``k_max = k_values[-1]``
    prefix sums are retained to form the cross-boundary windows.  Each
    chunk's window sums are formed a block of consecutive window lengths
    at a time, one block at most :data:`_BLOCK_ELEMENTS` sums (see
    :class:`_StreamFold`).  Peak memory is
    ``O(chunk + k_max + len(k_values) + _BLOCK_ELEMENTS)`` regardless of
    the trace length — multi-million-event traces extract without ever
    materializing the full demand array.

    The stream is consumed once and cannot be content-addressed without
    materializing it, so unlike the one-shot kernel this path is *not*
    memoized.

    Parameters
    ----------
    chunks:
        Iterable of 1-D demand chunks (empty chunks are allowed).
    k_values:
        Strictly increasing positive window lengths.
    total:
        Optional expected event count; when given, the stream length is
        verified against it.

    Raises
    ------
    ValidationError
        On malformed ``k_values``, non-finite demands, a window length
        exceeding the stream, or a stream/total mismatch.
    """
    ks = np.asarray(k_values, dtype=np.int64)
    if ks.ndim != 1 or ks.size == 0:
        raise ValidationError("k_values must be a non-empty 1-D sequence")
    if np.any(ks < 1):
        raise ValidationError("k_values must be >= 1")
    if np.any(np.diff(ks) <= 0):
        raise ValidationError("k_values must be strictly increasing")
    if total is not None:
        total = check_integer(total, "total", minimum=1)
        if ks[-1] > total:
            raise ValidationError(f"k_values must not exceed trace length {total}")
    return _streaming_minmax(chunks, ks, total)


@instrumented(
    "staircase.streaming_minmax",
    attrs=lambda chunks, ks, total: {"grid": int(ks.size), "k_max": int(ks[-1])},
)
def _streaming_minmax(
    chunks: Iterable[Sequence[float]], ks: np.ndarray, total: int | None
) -> tuple[np.ndarray, np.ndarray]:
    k_max = int(ks[-1])
    fold = _StreamFold(ks)
    # trailing prefix sums csum[max(0, m - k_max) .. m]; csum[0] = 0.0
    tail = np.zeros(1)
    seen = 0
    for chunk in chunks:
        arr = np.asarray(chunk, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("stream chunks must be 1-D sequences")
        if arr.size == 0:
            continue
        if not np.all(np.isfinite(arr)):
            raise ValidationError("demands must be finite")
        prev, seen = seen, seen + arr.size
        # seeding with csum[prev] reproduces the one-shot cumsum's
        # sequential float additions exactly; the first chunk starts from
        # its first demand, as that cumsum does (0.0 + -0.0 is +0.0)
        if prev:
            new = np.cumsum(np.concatenate((tail[-1:], arr)))
        else:
            new = np.concatenate((tail, np.cumsum(arr)))
        # zeros in front, for the lengths longer than prev + 1 to read as
        # whole rows (see _StreamFold.block)
        pad = max(0, min(seen, k_max) - prev - 1)
        ext = np.concatenate((np.zeros(pad), tail[:-1], new))
        fold.add(_Chunk(ext, pad - (prev - (tail.size - 1)), prev, seen))
        tail = ext[max(pad, ext.size - (k_max + 1)) :]
    fold.publish()
    if seen == 0:
        raise ValidationError("demand stream is empty")
    if total is not None and seen != total:
        raise ValidationError(f"stream yielded {seen} events, expected {total}")
    if k_max > seen:
        raise ValidationError(f"k_values must not exceed trace length {seen}")
    return fold.lo, fold.hi


#: Window sums one block of the streaming fold forms at once (512 KiB of
#: float64): a block takes this many sums' worth of rows, so its
#: temporaries are bounded whatever the trace.
_BLOCK_ELEMENTS = 1 << 16


class _Chunk(NamedTuple):
    """One chunk of the streaming fold: its window ends are
    ``prev + 1 .. seen``, and ``ext[m + off]`` is the prefix sum
    ``csum[m]`` for every ``m`` those windows read."""

    ext: np.ndarray
    off: int
    prev: int
    seen: int


class _StreamFold:
    """State of :func:`_streaming_minmax`: the running extrema, the window
    grid in runs of consecutive lengths, one block buffer and the count of
    (chunk, length) evaluations per path, published as
    ``staircase.stream_lengths{path}``:

    * ``blocked`` — formed in a block of consecutive lengths
      (:meth:`block`);
    * ``single`` — folded alone (:meth:`length`): a block of one length,
      or any length of a chunk whose prefix sums are not all finite;
    * ``repass`` — formed in a block whose extremum was a zero, then
      folded alone.
    """

    def __init__(self, ks: np.ndarray) -> None:
        self.lo = np.full(ks.size, np.inf)
        self.hi = np.full(ks.size, -np.inf)
        self.lengths = ks.tolist()
        cuts = (np.flatnonzero(np.diff(ks) != 1) + 1).tolist()
        self.runs = list(zip([0, *cuts], [*cuts, ks.size]))
        self.buf = np.empty(_BLOCK_ELEMENTS)
        self.paths = dict.fromkeys(("blocked", "single", "repass"), 0)

    def add(self, c: _Chunk) -> None:
        """Fold the windows that end in chunk *c* into the extrema.

        Each run of consecutive lengths is cut into blocks of at most
        ``_BLOCK_ELEMENTS // row length`` lengths, a row being the ends
        its first length has in the chunk.  A chunk whose prefix sums are
        not all finite is folded one length at a time: ``inf - inf`` is
        nan, which a reduction returns but the per-length running
        ``min``/``max`` passes over.
        """
        lengths = self.lengths
        n_open = bisect_right(lengths, c.seen)  # the lengths with a window yet
        # a prefix sum that overflows stays infinite, so the last one is
        # finite only if all are
        if not np.isfinite(c.ext[-1]):
            for i in range(n_open):
                self.length(c, i)
            self.paths["single"] += n_open
            return
        view = sliding_window_view(c.ext, c.seen - c.prev)
        for start, stop in self.runs:
            if start >= n_open:
                break
            stop = min(stop, n_open)
            i = start
            while i < stop:
                first = max(lengths[i], c.prev + 1)  # the block's first window end
                j = min(stop, i + _BLOCK_ELEMENTS // (c.seen - first + 1))
                if j - i < 2:
                    self.length(c, i)
                    self.paths["single"] += 1
                    i += 1
                    continue
                zeros = self.block(c, view, i, j)
                for r in zeros:
                    self.length(c, i + r)
                self.paths["blocked"] += j - i - len(zeros)
                self.paths["repass"] += len(zeros)
                i = j

    def length(self, c: _Chunk, i: int) -> None:
        """Fold the windows of length ``lengths[i]`` that end in chunk *c*
        the per-length way: one subtraction, a reduction per side and a
        Python ``min``/``max`` with the running value."""
        k = self.lengths[i]
        first = max(k, c.prev + 1)
        ext, off = c.ext, c.off
        sums = ext[first + off : c.seen + 1 + off] - ext[first - k + off : c.seen + 1 - k + off]
        self.lo[i] = min(self.lo[i], float(sums.min()))
        self.hi[i] = max(self.hi[i], float(sums.max()))

    def block(self, c: _Chunk, view: np.ndarray, i: int, j: int) -> list[int]:
        """Fold the windows of the consecutive lengths ``lengths[i:j]``
        that end in chunk *c*, with one subtraction and one reduction per
        side; returns the rows left to the per-length fold.

        Row ``r`` holds the sums of length ``k = k0 + r`` at the ends
        ``first .. seen``, ``first = max(k0, prev + 1)``: its start prefix
        sums are row ``first - k + off`` of *view*, so a block's rows are
        consecutive rows of it, in reverse.  The block subtracts the prefix
        sums the per-length fold subtracts, and min/max are exact, so each
        row's extremum is that fold's float up to the sign of a zero.
        Where ``e < k`` (the first windows of the stream) a row reads the
        zero pad; those entries take the row's sum at end ``k1``, which
        every row holds, and a repeated value moves neither extremum.

        A row whose extremum on either side is zero is left unfolded:
        ``0.0 == -0.0``, and only the per-length order fixes which one the
        running value keeps.  (A zero sum is ``-0.0`` only as
        ``-0.0 - 0.0``: a window that starts at the stream's first
        demand, when the demands up to its end are all ``-0.0``, so their
        prefix sums are ``-0.0`` as in the one-shot kernel's cumsum.)
        """
        k0, k1 = self.lengths[i], self.lengths[j - 1]
        first = max(k0, c.prev + 1)
        width = c.seen - first + 1
        ext, off = c.ext, c.off
        starts = view[first - k1 + off : first - k0 + off + 1, :width][::-1]
        sums = np.subtract(
            ext[first + off : c.seen + 1 + off],
            starts,
            out=self.buf[: (j - i) * width].reshape(j - i, width),
        )
        ragged = k1 - first  # the columns before end k1
        if ragged > 0:
            # entry (r, col) is at end first + col, before the row's first
            # window where that is below k0 + r
            before = np.greater.outer(
                np.arange(j - i), np.arange(first - k0, first - k0 + ragged)
            )
            np.copyto(sums[:, :ragged], sums[:, ragged : ragged + 1], where=before)
        low = np.minimum.reduce(sums, axis=1)
        high = np.maximum.reduce(sums, axis=1)
        folded = (low != 0.0) & (high != 0.0)
        np.minimum(self.lo[i:j], low, out=self.lo[i:j], where=folded)
        np.maximum(self.hi[i:j], high, out=self.hi[i:j], where=folded)
        return np.flatnonzero(~folded).tolist()

    def publish(self) -> None:
        """Add the path counts to ``staircase.stream_lengths{path}``."""
        for path, count in self.paths.items():
            if count:
                counter("staircase.stream_lengths", path=path).inc(count)


def is_non_decreasing(values: Iterable[float]) -> bool:
    """True if the sequence never decreases."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    return bool(arr.size < 2 or np.all(np.diff(arr) >= 0))


def is_strictly_increasing(values: Iterable[float]) -> bool:
    """True if each element is strictly greater than its predecessor."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=float)
    return bool(arr.size < 2 or np.all(np.diff(arr) > 0))


def make_k_grid(n: int, *, dense_limit: int = 2048, growth: float = 1.05) -> np.ndarray:
    """Window lengths ``1..n``, dense up to *dense_limit* then geometric.

    Extracting a workload curve at every ``k`` of a long trace is O(n^2); for
    traces beyond *dense_limit* events we evaluate every ``k`` up to the
    limit, then sample geometrically (ratio *growth*) and always include
    ``n`` itself.

    Conservativeness between sampled ``k``:  *linear* interpolation between
    exact samples is sound only in special cases — for an upper curve the
    chord must lie at or above the true curve, which holds exactly where
    the curve is *convex* between the two samples (upper workload curves
    are subadditive and typically concave-ish, so the chord usually
    *under*-estimates and is NOT a valid bound); dually, interpolating a
    lower curve is sound only where the curve is *concave* there.  For
    this reason :class:`repro.core.workload.WorkloadCurve` never
    interpolates: between grid points it steps to the *next* sampled value
    (upper) or holds the *previous* one (lower), which is conservative for
    any non-decreasing curve regardless of its shape — a sparse grid can
    only loosen the bound, never invalidate it.
    """
    n = check_integer(n, "n", minimum=1)
    dense_limit = check_integer(dense_limit, "dense_limit", minimum=1)
    if growth <= 1.0:
        raise ValidationError(f"growth must be > 1, got {growth!r}")
    if n <= dense_limit:
        return np.arange(1, n + 1, dtype=np.int64)
    ks = list(range(1, dense_limit + 1))
    k = float(dense_limit)
    while True:
        k *= growth
        ki = int(np.ceil(k))
        if ki >= n:
            break
        ks.append(ki)
    ks.append(n)
    return np.array(sorted(set(ks)), dtype=np.int64)


def _check_k_values(k_values: Sequence[int], n: int) -> np.ndarray:
    ks = np.asarray(k_values, dtype=np.int64)
    if ks.ndim != 1 or ks.size == 0:
        raise ValidationError("k_values must be a non-empty 1-D sequence")
    if np.any(ks < 1):
        raise ValidationError("k_values must be >= 1")
    if np.any(ks > n):
        raise ValidationError(f"k_values must not exceed trace length {n}")
    if np.any(np.diff(ks) <= 0):
        raise ValidationError("k_values must be strictly increasing")
    return ks
