"""Structure-of-arrays min-plus kernels: the production generic kernel.

Every generic pair of :func:`repro.curves.minplus.convolve` /
:func:`~repro.curves.minplus.deconvolve` (no closed-form fast path
applies) is computed here.  The oracle construction in
:mod:`repro.curves.minplus` walks the outer-sum breakpoint grid one cell
at a time, building the candidate configuration lines and sweeping their
envelope with a handful of numpy calls *per cell* — thousands of tiny
array operations for a 200-segment pair.  This module performs the
identical construction as a few dozen large array operations: the
operand curves are packed into shared padded (structure-of-arrays)
matrices, every envelope cell becomes one row of a candidate-line
matrix, and the winner selection / first-crossing search run as
row-wise reductions over all active cells simultaneously.

Exactness
---------
The kernel replicates the oracle construction decision-for-decision:

* the same :func:`~repro.curves.minplus._dedupe_grid`-collapsed cell
  grids, the same synthetic last cell, the same midpoint probes;
* the same candidate lines (breakpoint-pinned configurations plus the
  left-limit jump probes), built from the same float expressions;
* the same envelope tie-breaking — extremal value with ties within
  ``1e-12`` relative broken by flattest (lower) / steepest (upper) slope
  and then by smallest value, the ordering ``np.unique`` induces in the
  oracle sweep — and the same ``1e-15`` crossing thresholds.

Infeasible / padded candidate entries are masked with a large finite
sentinel (``±1e300``) on the losing side of the envelope instead of
``inf`` so the line arithmetic never produces NaNs.  The differential
conformance suite (``tests/curves/test_backend_conformance.py``) pins
bit-equal breakpoints, values and slopes within 1e-12 of the oracle, and
the agreement with the brute-force oracles.

Batch contract
--------------
The kernels take a list of pairs; production passes a list of one.  A
longer convolution list must be homogeneous in tail regime: either every
pair's result saturates (``min(f.final_slope, g.final_slope) == 0`` — a
finite asymptote) or every pair's result grows without bound.  The packed
sweep stamps the shared synthetic last cell and the tail slope uniformly
per call, so mixed lists are refused with a
:class:`~repro.util.validation.ValidationError`.  A single pair is
always homogeneous.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import (
    UnboundedCurveError,
    _dedupe_grid,
    _monotone_pwl,
    _pair_attrs,
)
from repro.perf.instrument import instrumented
from repro.util.validation import ValidationError

__all__ = ["convolve_batch_soa", "deconvolve_batch_soa"]

#: Sentinel for masked candidate lines: large but finite, so envelope
#: arithmetic stays NaN-free while the entry can never win or overtake.
_BIG = 1e300

#: Magnitude above which a candidate value marks a masked (infeasible)
#: line.  Masked entries keep whatever slope their dummy lookup returned,
#: so the crossing search must ignore them explicitly: within a bounded
#: cell their ~1e299 crossing abscissa falls past the cell edge anyway,
#: but each pair's *last* cell sweeps to infinity, where such a crossing
#: would be taken.  Real curve values sit hundreds of orders of magnitude
#: below this threshold.
_FEAS_LIMIT = 1e250

#: Target element count of one candidate-matrix chunk (cells × lines).
_CHUNK_ELEMS = 1 << 21


class _CurvePack:
    """Padded SoA view of a set of curves (rows padded with ``+inf`` x)."""

    __slots__ = ("x", "y", "s", "left", "n")

    def __init__(self, curves: Sequence[PiecewiseLinearCurve]):
        count = len(curves)
        width = max(c.breakpoints.size for c in curves)
        self.x = np.full((count, width), np.inf)
        self.y = np.zeros((count, width))
        self.s = np.zeros((count, width))
        self.left = np.zeros((count, width))
        self.n = np.empty(count, dtype=np.intp)
        for p, curve in enumerate(curves):
            x = curve.breakpoints
            y = curve.values_at_breakpoints
            s = curve.slopes
            n = x.size
            self.n[p] = n
            self.x[p, :n] = x
            self.y[p, :n] = y
            self.s[p, :n] = s
            self.left[p, 0] = y[0]
            if n > 1:
                self.left[p, 1:n] = y[:-1] + s[:-1] * np.diff(x)

    def eval_rows(self, pid: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row slope and right-continuous value at *t*.

        ``pid`` maps each row of *t* to a curve of the pack; rows are
        grouped in runs of equal pid, so the searchsorted lookups run once
        per run instead of once per row.
        """
        idx = np.empty(t.shape, dtype=np.intp)
        starts = np.concatenate(([0], np.flatnonzero(np.diff(pid)) + 1, [pid.size]))
        for k in range(starts.size - 1):
            lo, hi = starts[k], starts[k + 1]
            p = pid[lo]
            idx[lo:hi] = (
                np.searchsorted(self.x[p], t[lo:hi].ravel(), side="right").reshape(
                    hi - lo, -1
                )
                - 1
            )
        rows = pid[:, None]
        xb = self.x[rows, idx]
        sb = self.s[rows, idx]
        return sb, self.y[rows, idx] + sb * (t - xb)


def _build_cells(grids: list[np.ndarray]):
    """Flatten per-pair grids into global cell arrays (pair-major order).

    Returns ``(pid, a, mid, bcap)``: the owning pair, the cell start, the
    midpoint probe, and the sweep cap (``inf`` for each pair's synthetic
    last cell) — exactly the values the oracle per-cell loop derives.
    """
    pids: list[np.ndarray] = []
    a_parts: list[np.ndarray] = []
    mid_parts: list[np.ndarray] = []
    bcap_parts: list[np.ndarray] = []
    for p, grid in enumerate(grids):
        b = np.empty_like(grid)
        b[:-1] = grid[1:]
        last = float(grid[-1])
        b[-1] = last + max(1.0, abs(last))
        mid = 0.5 * (grid + b)
        bcap = b.copy()
        bcap[-1] = math.inf
        pids.append(np.full(grid.size, p, dtype=np.intp))
        a_parts.append(grid)
        mid_parts.append(mid)
        bcap_parts.append(bcap)
    return (
        np.concatenate(pids),
        np.concatenate(a_parts),
        np.concatenate(mid_parts),
        np.concatenate(bcap_parts),
    )


def _envelope_sweep(va, sl, nvalid, a, bcap, *, lower):
    """Vectorized envelope sweep over all cells of a chunk at once.

    Row ``c`` of ``va``/``sl`` holds the candidate lines
    ``value = va + sl·(Δ − a[c])`` of one cell; masked entries carry
    ``+_BIG`` (lower) / ``-_BIG`` (upper).  Returns flat
    ``(cell, x, value, slope)`` arrays of the emitted segments, sorted by
    cell with each cell's segments in sweep order — the oracle
    :func:`~repro.curves.minplus._line_envelope_on_interval` replayed for
    every row simultaneously.
    """
    n_cells = a.size
    maxseg = nvalid + 2
    x = a.copy()
    emitted = np.zeros(n_cells, dtype=np.intp)
    active = np.arange(n_cells)
    # per-line constants, hoisted out of the sweep rounds
    m1 = np.maximum(1.0, np.abs(sl))
    out_cell: list[np.ndarray] = []
    out_x: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    while active.size:
        xa = x[active]
        aa = a[active]
        ba = bcap[active]
        v = va + sl * (xa - aa)[:, None]
        # winner: in the common case exactly one line attains the
        # extremum within tolerance, and a plain argmin/argmax picks it;
        # the full slope-then-value tie-break runs only on the rare rows
        # with several near-extremal lines
        if lower:
            vbest = v.min(axis=1)
            tol = 1e-12 + 1e-12 * np.abs(vbest)
            near = v <= (vbest + tol)[:, None]
            win = v.argmin(axis=1)
        else:
            vbest = v.max(axis=1)
            tol = 1e-12 + 1e-12 * np.abs(vbest)
            near = v >= (vbest - tol)[:, None]
            win = v.argmax(axis=1)
        rows = np.arange(active.size)
        best_slope = sl[rows, win]
        best_val = v[rows, win]
        multi = np.flatnonzero(near.sum(axis=1) > 1)
        if multi.size:
            nm = near[multi]
            slm = sl[multi]
            vm = v[multi]
            if lower:
                bs = np.where(nm, slm, np.inf).min(axis=1)
            else:
                bs = np.where(nm, slm, -np.inf).max(axis=1)
            tied = nm & (slm == bs[:, None])
            best_slope[multi] = bs
            best_val[multi] = np.where(tied, vm, np.inf).min(axis=1)
        # conservative no-crossing test: an overtaking line that crosses
        # the winner strictly inside [x, b) lies strictly on the winning
        # side of it at b, so comparing the line values at the cell edge
        # (with a generous relative slack absorbing the different
        # rounding of the two expressions) proves most cells cross-free
        # without the expensive crossing search.  Cells with an infinite
        # edge (each pair's last cell) always take the full search.
        finite_b = np.isfinite(ba)
        w_line = np.where(finite_b, ba - aa, 1.0)
        w_win = np.where(finite_b, ba - xa, 1.0)
        vend = va + sl * w_line[:, None]
        bw = best_val + best_slope * w_win
        slack = 1e-6 * np.maximum(1.0, np.abs(bw))
        if lower:
            may_cross = vend.min(axis=1) < bw + slack
        else:
            may_cross = vend.max(axis=1) > bw - slack
        may_cross |= ~finite_b
        next_x = ba.copy()
        need = np.flatnonzero(may_cross)
        if need.size:
            vn = v[need]
            sln = sl[need]
            bsn = best_slope[need][:, None]
            rel = sln - bsn
            thresh = 1e-15 * np.maximum(m1[need], np.abs(bsn))
            overtaking = np.abs(rel) > thresh
            overtaking &= (rel < 0) if lower else (rel > 0)
            overtaking &= np.abs(vn) < _FEAS_LIMIT
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                t = (vn - best_val[need][:, None]) / (-rel)
            overtaking &= t > 1e-15
            tmin = np.where(overtaking, t, np.inf).min(axis=1)
            next_x[need] = np.minimum(next_x[need], xa[need] + tmin)
        out_cell.append(active.copy())
        out_x.append(xa)
        out_v.append(best_val)
        out_s.append(best_slope)
        emitted[active] += 1
        cont = (
            np.isfinite(next_x)
            & (next_x < ba - 1e-18)
            & (emitted[active] < maxseg[active])
        )
        x[active] = next_x
        keep = np.flatnonzero(cont)
        active = active[keep]
        va = va[keep]
        sl = sl[keep]
        m1 = m1[keep]
    cell = np.concatenate(out_cell)
    order = np.argsort(cell, kind="stable")
    return (
        cell[order],
        np.concatenate(out_x)[order],
        np.concatenate(out_v)[order],
        np.concatenate(out_s)[order],
    )


def _assemble(pairs, cell_pid, seg_cell, seg_x, seg_v, seg_s, finals):
    """Split the flat segment stream per pair and build the result curves
    exactly like the oracle assembly (clamps, tail restamp,
    :func:`~repro.curves.minplus._monotone_pwl`)."""
    seg_pid = cell_pid[seg_cell]
    bounds = np.searchsorted(seg_pid, np.arange(len(pairs) + 1))
    out: list[PiecewiseLinearCurve] = []
    for p in range(len(pairs)):
        lo, hi = bounds[p], bounds[p + 1]
        ys = np.maximum(seg_v[lo:hi], 0.0)
        ss = np.maximum(seg_s[lo:hi], 0.0)
        ss[-1] = max(finals[p], 0.0)
        out.append(_monotone_pwl(seg_x[lo:hi], ys, ss))
    return out


def _chunks(cell_count: int, line_width: int):
    """Yield ``(lo, hi)`` cell ranges sized to ~:data:`_CHUNK_ELEMS`
    candidate-matrix elements."""
    step = max(1, _CHUNK_ELEMS // max(1, line_width))
    for lo in range(0, cell_count, step):
        yield lo, min(lo + step, cell_count)


def _batch_attrs(pairs) -> dict:
    """Span attributes of a kernel call; a single pair also carries the
    operand attributes of :func:`~repro.curves.minplus._pair_attrs`."""
    attrs = {"pairs": len(pairs), "backend": "soa"}
    if len(pairs) == 1:
        attrs.update(_pair_attrs(*pairs[0]))
    return attrs


@instrumented("minplus.convolve", attrs=_batch_attrs)
def convolve_batch_soa(
    pairs: Sequence[tuple[PiecewiseLinearCurve, PiecewiseLinearCurve]]
) -> list[PiecewiseLinearCurve]:
    """Min-plus convolution of every pair through one packed sweep.

    Exact generic construction (see module docstring); the pairs must be
    homogeneous in tail regime or a
    :class:`~repro.util.validation.ValidationError` is raised.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    finals = [min(f.final_slope, g.final_slope) for f, g in pairs]
    saturating = {final == 0.0 for final in finals}
    if len(saturating) > 1:
        raise ValidationError(
            "convolve_batch_soa needs a tail-homogeneous batch (all finite "
            "or all infinite asymptotes); partition by tail regime first"
        )
    fpack = _CurvePack([f for f, _ in pairs])
    gpack = _CurvePack([g for _, g in pairs])
    grids = [
        _dedupe_grid(np.unique(np.add.outer(f.breakpoints, g.breakpoints).ravel()))
        for f, g in pairs
    ]
    cell_pid, cell_a, cell_mid, cell_bcap = _build_cells(grids)
    seg_parts: list[tuple] = []
    width = 2 * (fpack.x.shape[1] + gpack.x.shape[1])
    for lo, hi in _chunks(cell_a.size, width):
        pid = cell_pid[lo:hi]
        a = cell_a[lo:hi]
        mid = cell_mid[lo:hi]
        half = (mid - a)[:, None]
        a_col = a[:, None]
        mid_col = mid[:, None]
        # feasible breakpoint columns are a prefix of each sorted row; cap
        # the chunk's matrices at the widest prefix any of its cells needs
        amax = float(a.max()) + 1e-15
        kf = int(max(np.searchsorted(fpack.x[p], amax, side="right") for p in set(pid)))
        kg = int(max(np.searchsorted(gpack.x[p], amax, side="right") for p in set(pid)))
        kf, kg = max(kf, 1), max(kg, 1)

        # the interval midpoint clears the cell start by at least half the
        # _dedupe_grid-guaranteed cell width, so the pinned remainders
        # (mid - s) are strictly positive and the oracle's t == 0
        # evaluation guard can never fire — it is elided here.
        # the _BIG sentinel is folded into the pinned-value term of every
        # infeasible entry, so the line arithmetic itself produces ~_BIG
        # values there and no post-hoc masking pass is needed; the slope
        # entries of such lines stay whatever the dummy lookup returned,
        # which is provably harmless (a ~_BIG-valued line can neither join
        # the near-winner set nor produce a selectable crossing)
        fx = fpack.x[pid, :kf]
        fy = fpack.y[pid, :kf]
        fleft = fpack.left[pid, :kf]
        feas_f = fx <= a_col + 1e-15
        rest = np.where(feas_f, mid_col - fx, 1.0)
        g_slope, g_val0 = gpack.eval_rows(pid, rest)
        f_at = np.where(feas_f, fy, _BIG)
        f_at[:, 0] = 0.0
        va_f = f_at + g_val0 - g_slope * half
        # left-limit probes only matter where the curve actually jumps;
        # at continuous breakpoints they duplicate the base line exactly,
        # and the oracle's np.unique dedup discards such duplicates, so
        # compressing those columns away preserves bit-parity
        jump_f = feas_f & (fx > 0.0) & (fleft != fy)
        jcols_f = np.flatnonzero(jump_f.any(axis=0))
        jump_f = jump_f[:, jcols_f]
        va_fj = (
            np.where(jump_f, fleft[:, jcols_f], _BIG)
            + g_val0[:, jcols_f]
            - g_slope[:, jcols_f] * half
        )

        gx = gpack.x[pid, :kg]
        gy = gpack.y[pid, :kg]
        gleft = gpack.left[pid, :kg]
        feas_g = gx <= a_col + 1e-15
        s_mid = np.where(feas_g, mid_col - gx, 1.0)
        f_slope, f_val0 = fpack.eval_rows(pid, s_mid)
        g_at = np.where(feas_g, gy, _BIG)
        g_at[:, 0] = 0.0
        va_g = f_val0 + g_at - f_slope * half
        jump_g = feas_g & (gx > 0.0) & (gleft != gy)
        jcols_g = np.flatnonzero(jump_g.any(axis=0))
        jump_g = jump_g[:, jcols_g]
        va_gj = (
            np.where(jump_g, gleft[:, jcols_g], _BIG)
            + f_val0[:, jcols_g]
            - f_slope[:, jcols_g] * half
        )

        va = np.concatenate((va_f, va_fj, va_g, va_gj), axis=1)
        sl = np.concatenate(
            (g_slope, g_slope[:, jcols_f], f_slope, f_slope[:, jcols_g]),
            axis=1,
        )
        nvalid = (
            feas_f.sum(axis=1)
            + jump_f.sum(axis=1)
            + feas_g.sum(axis=1)
            + jump_g.sum(axis=1)
        )
        cell, x, v, s = _envelope_sweep(
            va, sl, nvalid, a, cell_bcap[lo:hi], lower=True
        )
        seg_parts.append((cell + lo, x, v, s))
    seg_cell = np.concatenate([p[0] for p in seg_parts])
    seg_x = np.concatenate([p[1] for p in seg_parts])
    seg_v = np.concatenate([p[2] for p in seg_parts])
    seg_s = np.concatenate([p[3] for p in seg_parts])
    return _assemble(pairs, cell_pid, seg_cell, seg_x, seg_v, seg_s, finals)


@instrumented("minplus.deconvolve", attrs=_batch_attrs)
def deconvolve_batch_soa(
    pairs: Sequence[tuple[PiecewiseLinearCurve, PiecewiseLinearCurve]]
) -> list[PiecewiseLinearCurve]:
    """Min-plus deconvolution of every pair through one packed sweep.

    Raises :class:`~repro.curves.minplus.UnboundedCurveError` if any pair
    diverges (``f`` outgrowing ``g``) — divergent pairs must be filtered
    before batching, exactly as the scalar operator rejects them.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    for f, g in pairs:
        if f.final_slope > g.final_slope + 1e-12:
            raise UnboundedCurveError(
                f"deconvolution diverges: arrival rate {f.final_slope:g} "
                f"exceeds service rate {g.final_slope:g}"
            )
    finals = [f.final_slope for f, _ in pairs]
    fpack = _CurvePack([f for f, _ in pairs])
    gpack = _CurvePack([g for _, g in pairs])
    grids = []
    for f, g in pairs:
        diffs = np.unique(np.subtract.outer(f.breakpoints, g.breakpoints).ravel())
        grid = _dedupe_grid(diffs[diffs >= 0.0])
        if grid.size == 0 or grid[0] != 0.0:
            grid = np.concatenate(([0.0], grid))
        grids.append(grid)
    cell_pid, cell_a, cell_mid, cell_bcap = _build_cells(grids)
    seg_parts = []
    width = 2 * gpack.x.shape[1] + fpack.x.shape[1]
    for lo, hi in _chunks(cell_a.size, width):
        pid = cell_pid[lo:hi]
        a = cell_a[lo:hi]
        mid = cell_mid[lo:hi]
        half = (mid - a)[:, None]
        mid_col = mid[:, None]

        # configuration A: u pinned at a g-breakpoint (always feasible).
        # As in the convolve build, the -_BIG sentinel is folded into the
        # pinned-value term (added with the sign that drives the line to
        # the losing side of the upper envelope), so no post-hoc masking
        # pass runs and the dummy slopes of masked entries stay — harmless
        # for the same reasons.
        gx = gpack.x[pid]
        gy = gpack.y[pid]
        gleft = gpack.left[pid]
        valid_g = np.isfinite(gx)
        u = np.where(valid_g, gx, 1.0)
        f_slope, f_shift = fpack.eval_rows(pid, mid_col + u)
        g_at = np.where(valid_g, gy, _BIG)
        g_at[:, 0] = 0.0
        va_a = f_shift - g_at - f_slope * half
        jump_a = valid_g & (gx > 0.0)
        va_aj = f_shift - np.where(jump_a, gleft, _BIG) - f_slope * half

        # configuration B: Δ + u pinned at an f-breakpoint with x_f >= Δ
        fx = fpack.x[pid]
        fy = fpack.y[pid]
        feas_b = np.isfinite(fx) & (fx >= mid_col)
        u_mid = np.where(feas_b, fx - mid_col, 1.0)
        g_slope, g_val = gpack.eval_rows(pid, u_mid)
        g_val0 = np.where(u_mid == 0.0, 0.0, g_val)
        va_b = np.where(feas_b, fy, -_BIG) - g_val0 - g_slope * half

        va = np.concatenate((va_a, va_aj, va_b), axis=1)
        sl = np.concatenate((f_slope, f_slope, g_slope), axis=1)
        nvalid = valid_g.sum(axis=1) + jump_a.sum(axis=1) + feas_b.sum(axis=1)
        cell, x, v, s = _envelope_sweep(
            va, sl, nvalid, a, cell_bcap[lo:hi], lower=False
        )
        seg_parts.append((cell + lo, x, v, s))
    seg_cell = np.concatenate([p[0] for p in seg_parts])
    seg_x = np.concatenate([p[1] for p in seg_parts])
    seg_v = np.concatenate([p[2] for p in seg_parts])
    seg_s = np.concatenate([p[3] for p in seg_parts])
    return _assemble(pairs, cell_pid, seg_cell, seg_x, seg_v, seg_s, finals)
