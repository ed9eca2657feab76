"""Minimum PE clock frequency against FIFO overflow (paper eqs. (8)–(10)).

For a PE fully dedicated to one stream (service ``β(Δ) = F·Δ``) behind a
FIFO of ``b`` items, overflow is excluded iff (eq. (8))

.. math::

    β(Δ) \\ge γ^u(\\barα(Δ) - b) \\quad \\forall Δ \\ge 0

yielding the workload-curve frequency bound (eq. (9))

.. math::

    F^γ_{min} = \\max_{Δ > 0} \\Big\\{ \\frac{γ^u(\\barα(Δ) - b)}{Δ} \\Big\\}

and, with the single-value characterization ``γ^u_w(k) = w·k``, the
baseline (eq. (10))

.. math::

    F^w_{min} = \\max_{Δ > 0} \\Big\\{ \\frac{w·(\\barα(Δ) - b)}{Δ} \\Big\\}

The paper's headline result is ``F^γ_min ≈ 340 MHz`` vs ``F^w_min ≈
710 MHz`` for the MPEG-2 decoder's PE2 at ``b = 1620`` macroblocks (one
frame): over 50 % saving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.workload import WorkloadCurve
from repro.curves.curve import PiecewiseLinearCurve
from repro.obs.metrics import registry
from repro.perf.instrument import instrumented
from repro.util.validation import ValidationError, check_integer, check_positive

__all__ = [
    "FrequencyBound",
    "FrequencySweepEvaluator",
    "minimum_frequency_curves",
    "minimum_frequency_wcet",
    "minimum_frequency_sweep",
    "minimum_frequency_bisect",
    "minimum_frequency_dense",
    "verify_service_constraint",
]

#: Metrics counter incremented by every eq. (8) feasibility evaluation —
#: the unit the bisection-vs-dense benchmark gate counts.
VERIFY_CALLS_METRIC = "frequency.verify_calls"


@dataclass(frozen=True)
class FrequencyBound:
    """A minimum-frequency result: the bound and its critical window."""

    frequency: float
    critical_delta: float
    method: str

    def savings_over(self, other: "FrequencyBound") -> float:
        """Relative saving ``1 − self/other`` (e.g. γ-bound vs WCET-bound)."""
        if other.frequency <= 0:
            raise ValidationError("cannot compare against a zero-frequency bound")
        return 1.0 - self.frequency / other.frequency


def _sup_candidates(alpha_events: PiecewiseLinearCurve) -> np.ndarray:
    """Δ candidates for the eq. (9)/(10) supremum.

    For a staircase ``ᾱ``, between jumps the numerator is constant while
    ``1/Δ`` decreases, so the sup over each plateau is at its left end —
    the jump points themselves (plus the final-slope tail, where the ratio
    is monotone towards the long-run rate, covered by a far-out probe).
    """
    bps = alpha_events.breakpoints
    cands = bps[bps > 0.0]
    if cands.size == 0:
        cands = np.array([1.0])
    if alpha_events.final_slope > 0:
        # probe the linear tail
        cands = np.append(cands, float(bps[-1]) * 4.0 + 1.0)
    return np.unique(cands)


def _best_ratio(ratios: np.ndarray, deltas: np.ndarray) -> tuple[float, float]:
    """Supremum of the ratio sweep and the (first) window attaining it.

    Matches the scalar loop's semantics: zero ratios never win, and ties
    keep the earliest Δ.
    """
    if ratios.size == 0 or float(np.max(ratios)) <= 0.0:
        return 0.0, math.inf
    i = int(np.argmax(ratios))
    return float(ratios[i]), float(deltas[i])


@instrumented("frequency.minimum_curves")
def minimum_frequency_curves(
    alpha_events: PiecewiseLinearCurve,
    gamma_u: WorkloadCurve,
    buffer_size: int,
) -> FrequencyBound:
    """Eq. (9): minimum frequency with the workload-curve characterization.

    Vectorized: all candidate windows are evaluated in one batch — the
    arrival counts, the ``γ^u`` lookups, and the ratio supremum are single
    array operations.
    """
    if gamma_u.kind != "upper":
        raise ValidationError("frequency bound needs an upper workload curve")
    check_integer(buffer_size, "buffer_size", minimum=1)
    deltas = _sup_candidates(alpha_events)
    excess = np.ceil(alpha_events(deltas) - 1e-9).astype(np.int64) - buffer_size
    mask = excess > 0
    ratios = gamma_u(excess[mask]) / deltas[mask]
    best, best_delta = _best_ratio(ratios, deltas[mask])
    return FrequencyBound(best, best_delta, "workload-curves")


@instrumented("frequency.minimum_wcet")
def minimum_frequency_wcet(
    alpha_events: PiecewiseLinearCurve,
    wcet: float,
    buffer_size: int,
) -> FrequencyBound:
    """Eq. (10): minimum frequency with the single-value WCET
    characterization (``γ^u_w(k) = w·k``); vectorized over the candidate
    windows like :func:`minimum_frequency_curves`."""
    check_positive(wcet, "wcet")
    check_integer(buffer_size, "buffer_size", minimum=1)
    deltas = _sup_candidates(alpha_events)
    excess = alpha_events(deltas) - buffer_size
    mask = excess > 0
    ratios = wcet * excess[mask] / deltas[mask]
    best, best_delta = _best_ratio(ratios, deltas[mask])
    return FrequencyBound(best, best_delta, "wcet")


@instrumented("frequency.sweep")
def minimum_frequency_sweep(
    alpha_events: PiecewiseLinearCurve,
    gamma_u: WorkloadCurve,
    wcet: float,
    buffer_sizes,
) -> list[tuple[FrequencyBound, FrequencyBound]]:
    """Both bounds, eq. (9) and eq. (10), for every buffer size at once.

    The batched form of the buffer-size ablation: the candidate windows and
    arrival counts are computed once and shared across the whole sweep;
    each buffer size then costs one ``γ^u`` batch lookup and two argmax
    reductions.  Returns ``[(f_gamma, f_wcet), ...]`` aligned with
    *buffer_sizes*.
    """
    if gamma_u.kind != "upper":
        raise ValidationError("frequency bound needs an upper workload curve")
    check_positive(wcet, "wcet")
    sizes = [check_integer(b, "buffer_size", minimum=1) for b in buffer_sizes]
    deltas = _sup_candidates(alpha_events)
    arrived = alpha_events(deltas)
    counts = np.ceil(arrived - 1e-9).astype(np.int64)
    out: list[tuple[FrequencyBound, FrequencyBound]] = []
    for b in sizes:
        excess_int = counts - b
        mask = excess_int > 0
        ratios = gamma_u(excess_int[mask]) / deltas[mask]
        fg = FrequencyBound(*_best_ratio(ratios, deltas[mask]), "workload-curves")
        excess = arrived - b
        mask = excess > 0
        ratios = wcet * excess[mask] / deltas[mask]
        fw = FrequencyBound(*_best_ratio(ratios, deltas[mask]), "wcet")
        out.append((fg, fw))
    return out


def verify_service_constraint(
    alpha_events: PiecewiseLinearCurve,
    gamma_u: WorkloadCurve,
    buffer_size: int,
    frequency: float,
    *,
    tolerance: float = 1e-6,
) -> bool:
    """Check eq. (8) directly: ``F·Δ >= γ^u(ᾱ(Δ) − b)`` at every candidate
    window (sound for staircase ``ᾱ``).

    Every call counts one evaluation into the obs registry
    (``frequency.verify_calls``); search strategies are compared by this
    counter.
    """
    check_positive(frequency, "frequency")
    check_integer(buffer_size, "buffer_size", minimum=1)
    registry.counter(VERIFY_CALLS_METRIC).inc()
    deltas = _sup_candidates(alpha_events)
    excess = np.ceil(alpha_events(deltas) - 1e-9).astype(np.int64) - buffer_size
    mask = excess > 0
    if not np.any(mask):
        return True
    demanded = gamma_u(excess[mask])
    return bool(np.all(frequency * deltas[mask] >= demanded * (1.0 - tolerance)))


class FrequencySweepEvaluator:
    """Warm-started evaluation of the eq. (8)–(10) family over one arrival
    context.

    A frequency/backlog sweep evaluates many ``(buffer_size, frequency)``
    points against the *same* arrival curve.  This class hoists everything
    that does not depend on the grid point: the candidate windows
    (:func:`_sup_candidates`), the arrival counts over them, an optional
    conservative compaction of the arrival curve
    (:func:`repro.curves.compact.compact_upper` — pointwise >=, so every
    derived bound stays valid), per distinct buffer size the ``γ^u``
    cycle demands, and the eq. (7) candidate windows with ``ᾱ`` on them
    (:meth:`backlog_grid`).  A feasibility check then costs one vectorized
    comparison; :meth:`bisect` needs ~20 of them where a dense scan needs
    hundreds.

    The compaction applied here (``max_segments``/``max_error``) is
    reported in :attr:`compaction`; with both ``None`` the evaluator
    reproduces :func:`minimum_frequency_curves` /
    :func:`minimum_frequency_wcet` bit-identically.
    """

    def __init__(
        self,
        alpha_events: PiecewiseLinearCurve,
        gamma_u: WorkloadCurve,
        *,
        wcet: float | None = None,
        max_segments: int | None = None,
        max_error: float | None = None,
    ):
        if gamma_u.kind != "upper":
            raise ValidationError("frequency bound needs an upper workload curve")
        self.compaction = None
        if max_segments is not None or max_error is not None:
            from repro.curves.compact import compact_upper

            self.compaction = compact_upper(
                alpha_events, max_segments=max_segments, max_error=max_error
            )
            alpha_events = self.compaction.curve
        self.alpha = alpha_events
        self.gamma_u = gamma_u
        self.wcet = wcet
        self.deltas = _sup_candidates(alpha_events)
        self._arrived = alpha_events(self.deltas)
        self._counts = np.ceil(self._arrived - 1e-9).astype(np.int64)
        # per-buffer-size (deltas, demanded cycles) — the γ^u lookups are
        # shared by every frequency probed at that buffer size
        self._per_buffer: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._backlog_grid: tuple[np.ndarray, np.ndarray] | None = None

    def _demands(self, buffer_size: int) -> tuple[np.ndarray, np.ndarray]:
        buffer_size = check_integer(buffer_size, "buffer_size", minimum=1)
        cached = self._per_buffer.get(buffer_size)
        if cached is None:
            excess = self._counts - buffer_size
            mask = excess > 0
            cached = (self.deltas[mask], self.gamma_u(excess[mask]))
            self._per_buffer[buffer_size] = cached
        return cached

    def verify(
        self, buffer_size: int, frequency: float, *, tolerance: float = 1e-6
    ) -> bool:
        """Eq. (8) feasibility at one grid point (counted like
        :func:`verify_service_constraint`, computed from the warm state)."""
        check_positive(frequency, "frequency")
        registry.counter(VERIFY_CALLS_METRIC).inc()
        deltas, demanded = self._demands(buffer_size)
        if deltas.size == 0:
            return True
        return bool(np.all(frequency * deltas >= demanded * (1.0 - tolerance)))

    def bound_curves(self, buffer_size: int) -> FrequencyBound:
        """Eq. (9) from the warm state (same semantics as
        :func:`minimum_frequency_curves`)."""
        deltas, demanded = self._demands(buffer_size)
        best, best_delta = _best_ratio(demanded / deltas, deltas)
        return FrequencyBound(best, best_delta, "workload-curves")

    def bound_wcet(self, buffer_size: int) -> FrequencyBound:
        """Eq. (10) from the warm state (same semantics as
        :func:`minimum_frequency_wcet`)."""
        if self.wcet is None:
            raise ValidationError("evaluator was built without a wcet")
        check_integer(buffer_size, "buffer_size", minimum=1)
        excess = self._arrived - buffer_size
        mask = excess > 0
        ratios = self.wcet * excess[mask] / self.deltas[mask]
        best, best_delta = _best_ratio(ratios, self.deltas[mask])
        return FrequencyBound(best, best_delta, "wcet")

    def upper_bracket(self, buffer_size: int) -> float:
        """A provably feasible frequency: ``max γ-demand / min window``
        dominates the eq. (9) supremum ratio, so eq. (8) holds there."""
        deltas, demanded = self._demands(buffer_size)
        if deltas.size == 0:
            return 0.0
        return float(np.max(demanded) / np.min(deltas))

    def backlog_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The eq. (7) candidate windows and ``ᾱ`` on them, the same for
        every service ``F·Δ`` (its sole breakpoint is 0)."""
        if self._backlog_grid is None:
            from repro.analysis.backlog import candidate_deltas
            from repro.curves.service import full_processor

            deltas = candidate_deltas(self.alpha, full_processor(1.0))
            self._backlog_grid = (deltas, self.alpha(deltas))
        return self._backlog_grid

    def backlog_events(self, frequency: float) -> float:
        """Eq. (7) event backlog behind the zero-latency service ``F·Δ``,
        on the hoisted :meth:`backlog_grid`."""
        from repro.analysis.backlog import backlog_bound_events
        from repro.curves.service import rate_latency

        beta = rate_latency(float(frequency), 0.0)
        deltas, arrived = self.backlog_grid()
        return backlog_bound_events(
            self.alpha, beta, self.gamma_u, deltas=deltas, arrived=arrived
        )

    @instrumented("frequency.bisect")
    def bisect(
        self,
        buffer_size: int,
        *,
        rel_tol: float = 1e-4,
        f_hi: float | None = None,
    ) -> FrequencyBound:
        """Eq. (9) by bisection on the monotone eq. (8) feasibility.

        ``F·Δ >= γ^u(ᾱ(Δ) − b)`` holds for every ``F`` above the true
        minimum and fails below it, so feasibility search brackets
        ``F_min`` without ever materializing the ratio sweep: the bracket
        ``[0, f_hi]`` (seeded by :meth:`upper_bracket` when *f_hi* is not
        given) halves until its width is below ``rel_tol`` of the result.
        Feasibility is tested with zero slack, so the returned frequency
        satisfies eq. (8) as evaluated and lies within ``rel_tol`` above
        the closed-form ``F_min``, never below it by more than rounding.
        The critical window is attributed from the warm demand table.
        """
        deltas, demanded = self._demands(buffer_size)
        if deltas.size == 0:
            return FrequencyBound(0.0, math.inf, "bisection")
        hi = float(f_hi) if f_hi is not None else self.upper_bracket(buffer_size)
        check_positive(hi, "f_hi")
        guard = 0
        while not self.verify(buffer_size, hi, tolerance=0.0):
            hi *= 2.0
            guard += 1
            if guard > 60:
                raise ValidationError("bisection failed to bracket a feasible F")
        lo = 0.0
        while hi - lo > rel_tol * hi:
            mid = 0.5 * (lo + hi)
            if self.verify(buffer_size, mid, tolerance=0.0):
                hi = mid
            else:
                lo = mid
        critical = float(deltas[int(np.argmax(demanded / deltas))])
        return FrequencyBound(hi, critical, "bisection")

    @instrumented("frequency.dense")
    def dense(
        self,
        buffer_size: int,
        *,
        n_grid: int = 512,
        f_lo: float | None = None,
        f_hi: float | None = None,
    ) -> FrequencyBound:
        """Eq. (9) by a naive dense frequency scan — the baseline the
        bisection is gated against.

        Probes *n_grid* equispaced frequencies over ``[f_lo, f_hi]``
        (defaults: the :meth:`upper_bracket` and 1/1024 of it) with one
        zero-slack eq. (8) evaluation each — a scan that does not exploit
        monotonicity — and returns the smallest feasible grid point.
        """
        check_integer(n_grid, "n_grid", minimum=2)
        deltas, demanded = self._demands(buffer_size)
        if deltas.size == 0:
            return FrequencyBound(0.0, math.inf, "dense")
        hi = float(f_hi) if f_hi is not None else self.upper_bracket(buffer_size)
        lo = float(f_lo) if f_lo is not None else hi / 1024.0
        check_positive(hi, "f_hi")
        if not 0.0 < lo < hi:
            raise ValidationError("need 0 < f_lo < f_hi")
        best = math.inf
        for freq in np.linspace(lo, hi, n_grid):
            if self.verify(buffer_size, float(freq), tolerance=0.0):
                best = min(best, float(freq))
        if not math.isfinite(best):
            raise ValidationError("no feasible frequency on the dense grid")
        critical = float(deltas[int(np.argmax(demanded / deltas))])
        return FrequencyBound(best, critical, "dense")


def minimum_frequency_bisect(
    alpha_events: PiecewiseLinearCurve,
    gamma_u: WorkloadCurve,
    buffer_size: int,
    *,
    rel_tol: float = 1e-4,
    f_hi: float | None = None,
    max_segments: int | None = None,
    max_error: float | None = None,
) -> FrequencyBound:
    """Eq. (9) by monotone feasibility bisection (see
    :meth:`FrequencySweepEvaluator.bisect`).

    One-shot convenience wrapper; sweeps should hold a
    :class:`FrequencySweepEvaluator` so the candidate windows, the
    optional arrival compaction (``max_segments``/``max_error``), and the
    per-buffer ``γ^u`` demands are reused across grid points.
    """
    ev = FrequencySweepEvaluator(
        alpha_events, gamma_u, max_segments=max_segments, max_error=max_error
    )
    return ev.bisect(buffer_size, rel_tol=rel_tol, f_hi=f_hi)


def minimum_frequency_dense(
    alpha_events: PiecewiseLinearCurve,
    gamma_u: WorkloadCurve,
    buffer_size: int,
    *,
    n_grid: int = 512,
    f_lo: float | None = None,
    f_hi: float | None = None,
) -> FrequencyBound:
    """Eq. (9) by a naive dense frequency scan (see
    :meth:`FrequencySweepEvaluator.dense`) — kept as the benchmark
    baseline for :func:`minimum_frequency_bisect`."""
    ev = FrequencySweepEvaluator(alpha_events, gamma_u)
    return ev.dense(buffer_size, n_grid=n_grid, f_lo=f_lo, f_hi=f_hi)
