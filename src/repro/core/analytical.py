"""Analytical construction of workload curves (paper §2.2).

When the event patterns triggering a task are constrained by the system
specification, workload curves can be derived *analytically* and are then
valid for hard real-time analysis.  The paper's Example 1 (the polling task)
is the canonical instance; this module implements it together with a generic
two-mode construction driven by event-count bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from repro.core.workload import WorkloadCurve, WorkloadCurvePair
from repro.util.validation import ValidationError, check_integer, check_positive

__all__ = [
    "PollingTask",
    "polling_task_curves",
    "two_mode_curves",
    "periodic_event_count_bounds",
]


@dataclass(frozen=True)
class PollingTask:
    """The polling task of paper Example 1.

    A task polls with period *period* (``T``) for events of a sporadic
    stream with inter-arrival times in ``[theta_min, theta_max]``.  When an
    event is pending the activation costs *e_p* cycles, otherwise *e_c*
    (the processing step is skipped; ``e_c < e_p``).  The paper requires
    ``T < theta_min`` so at most one event is pending per poll and response
    time stays small.
    """

    period: float
    theta_min: float
    theta_max: float
    e_p: float
    e_c: float

    def __post_init__(self) -> None:
        check_positive(self.period, "period")
        check_positive(self.theta_min, "theta_min")
        check_positive(self.theta_max, "theta_max")
        check_positive(self.e_p, "e_p")
        check_positive(self.e_c, "e_c")
        if self.theta_max < self.theta_min:
            raise ValidationError("theta_max must be >= theta_min")
        if self.period >= self.theta_min:
            raise ValidationError(
                "polling period must be smaller than theta_min "
                "(paper Example 1 precondition)"
            )
        if self.e_c >= self.e_p:
            raise ValidationError("e_c (skip cost) must be smaller than e_p")

    def n_max(self, k: int) -> int:
        """Maximum number of events detected in any ``k`` consecutive polls:
        ``n_max(k) = 1 + floor(k·T / θ_min)`` (capped at ``k``; the cap is
        implied by ``T < θ_min`` but we enforce it for robustness)."""
        k = check_integer(k, "k", minimum=0)
        if k == 0:
            return 0
        return min(k, 1 + math.floor(k * self.period / self.theta_min))

    def n_min(self, k: int) -> int:
        """Minimum number of events detected in any ``k`` consecutive polls:
        ``n_min(k) = floor(k·T / θ_max)``."""
        k = check_integer(k, "k", minimum=0)
        return math.floor(k * self.period / self.theta_max)

    def curves(self, k_max: int = 64) -> WorkloadCurvePair:
        """Upper/lower workload curves per the paper's closed form:

        .. math::

            γ^u(k) = n_{max}(k)\\,e_p + (k - n_{max}(k))\\,e_c \\\\
            γ^l(k) = n_{min}(k)\\,e_p + (k - n_{min}(k))\\,e_c
        """
        k_max = check_integer(k_max, "k_max", minimum=1)
        ks = np.arange(1, k_max + 1, dtype=np.int64)
        nmax = [self.n_max(int(k)) for k in ks]
        nmin = [self.n_min(int(k)) for k in ks]
        return _two_mode_pair(ks, nmax, nmin, self.e_p, self.e_c)

    def wcet_only_curve(self, k_max: int = 64) -> WorkloadCurve:
        """The pessimistic baseline ``γ(k) = k·e_p`` ("WCET only" line of
        Figure 2)."""
        return WorkloadCurve.from_constant("upper", self.e_p, horizon=k_max)

    def bcet_only_curve(self, k_max: int = 64) -> WorkloadCurve:
        """The optimistic baseline ``γ(k) = k·e_c`` ("BCET only" line of
        Figure 2)."""
        return WorkloadCurve.from_constant("lower", self.e_c, horizon=k_max)


def polling_task_curves(
    period: float,
    theta_min: float,
    theta_max: float,
    e_p: float,
    e_c: float,
    *,
    k_max: int = 64,
) -> WorkloadCurvePair:
    """Convenience wrapper: curves of :class:`PollingTask` in one call."""
    return PollingTask(period, theta_min, theta_max, e_p, e_c).curves(k_max)


def two_mode_curves(
    n_max: Callable[[int], int],
    n_min: Callable[[int], int],
    e_high: float,
    e_low: float,
    *,
    k_max: int = 64,
) -> WorkloadCurvePair:
    """Generic two-mode analytical construction.

    For a task whose activations come in a *heavy* mode costing *e_high*
    cycles and a *light* mode costing *e_low* cycles, with guaranteed bounds
    ``n_min(k) <= (heavy activations in any k consecutive) <= n_max(k)``,
    the workload curves are

    .. math::

        γ^u(k) = n_{max}(k)\\,e_{high} + (k - n_{max}(k))\\,e_{low} \\\\
        γ^l(k) = n_{min}(k)\\,e_{high} + (k - n_{min}(k))\\,e_{low}

    The polling task is the special case where the count bounds come from
    the sporadic stream's inter-arrival interval.

    The callables must satisfy ``0 <= n_min(k) <= n_max(k) <= k`` and be
    monotone in ``k``; violations raise :class:`ValidationError`.
    """
    k_max = check_integer(k_max, "k_max", minimum=1)
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    nmax = [n_max(int(k)) for k in ks]
    nmin = [n_min(int(k)) for k in ks]
    return _two_mode_pair(ks, nmax, nmin, e_high, e_low)


def _two_mode_pair(
    ks: np.ndarray,
    n_max: ArrayLike,
    n_min: ArrayLike,
    e_high: float,
    e_low: float,
) -> WorkloadCurvePair:
    """The two-mode curves on the grid *ks* from the tabulated count bounds
    ``n_max[i] = n_max(ks[i])`` and ``n_min[i] = n_min(ks[i])``.

    The one implementation of the formula of :func:`two_mode_curves`, with
    all of its validation; :meth:`PollingTask.curves` and
    :func:`repro.scheduling.generator.random_variable_task_set` (which
    tabulates its bounds as integer arrays) call it directly.
    """
    check_positive(e_high, "e_high")
    check_positive(e_low, "e_low")
    if e_low > e_high:
        raise ValidationError("e_low must not exceed e_high")
    nmax = np.asarray(n_max, dtype=float)
    nmin = np.asarray(n_min, dtype=float)
    if np.any(nmin < 0) or np.any(nmax > ks) or np.any(nmin > nmax):
        raise ValidationError("count bounds must satisfy 0 <= n_min(k) <= n_max(k) <= k")
    if np.any(np.diff(nmax) < 0) or np.any(np.diff(nmin) < 0):
        raise ValidationError("count bounds must be monotone in k")
    upper = nmax * e_high + (ks - nmax) * e_low
    lower = nmin * e_high + (ks - nmin) * e_low
    return WorkloadCurvePair(
        WorkloadCurve("upper", ks, upper), WorkloadCurve("lower", ks, lower)
    )


def periodic_event_count_bounds(
    task_period: float, theta_min: float, theta_max: float
) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """Count bounds ``(n_max, n_min)`` for a sporadic event stream observed
    by a periodic activity — the building block of Example 1, reusable for
    other two-mode tasks (e.g. an interrupt-coalescing handler)."""
    check_positive(task_period, "task_period")
    check_positive(theta_min, "theta_min")
    check_positive(theta_max, "theta_max")
    if theta_max < theta_min:
        raise ValidationError("theta_max must be >= theta_min")
    if task_period >= theta_min:
        raise ValidationError("task_period must be smaller than theta_min")

    def n_max(k: int) -> int:
        return 0 if k == 0 else min(k, 1 + math.floor(k * task_period / theta_min))

    def n_min(k: int) -> int:
        return math.floor(k * task_period / theta_max)

    return n_max, n_min
