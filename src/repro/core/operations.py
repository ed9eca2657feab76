"""Curve algebra beyond the instance methods: closures and envelopes.

Trace-derived workload curves are sub-additive (upper) / super-additive
(lower) by construction, but curves assembled by hand or combined across
sources may not be.  The closures here tighten such curves to the best
consistent bound without losing soundness:

* the **sub-additive closure** of an upper curve is the tightest upper curve
  below it satisfying ``γ(a+b) <= γ(a) + γ(b)``;
* the **super-additive closure** of a lower curve is the tightest lower
  curve above it satisfying ``γ(a+b) >= γ(a) + γ(b)``.

Both preserve validity: any demand sequence bounded by the original curve is
bounded by its closure.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.workload import WorkloadCurve
from repro.util.validation import ValidationError, check_integer

__all__ = [
    "subadditive_closure",
    "superadditive_closure",
    "envelope_upper",
    "envelope_lower",
]


def subadditive_closure(curve: WorkloadCurve, *, k_max: int | None = None) -> WorkloadCurve:
    """Tightest sub-additive upper curve dominated by *curve* on ``1..k_max``.

    Computed by fixed-point iteration of
    ``γ(k) ← min(γ(k), min_{0<i<k} γ(i) + γ(k−i))`` on the dense grid
    (O(k_max²) per sweep; curves in this package are short enough that a
    single sweep in increasing ``k`` converges because updated prefixes are
    reused immediately).
    """
    if curve.kind != "upper":
        raise ValidationError("subadditive closure applies to upper curves")
    k_max = curve.horizon if k_max is None else check_integer(k_max, "k_max", minimum=1)
    dense = curve.to_dense(k_max)
    vals = np.concatenate(([0.0], dense.values))
    for k in range(2, k_max + 1):
        splits = vals[1:k] + vals[k - 1 : 0 : -1]
        best = splits.min()
        if best < vals[k]:
            vals[k] = best
    return WorkloadCurve("upper", np.arange(1, k_max + 1, dtype=np.int64), vals[1:])


def superadditive_closure(curve: WorkloadCurve, *, k_max: int | None = None) -> WorkloadCurve:
    """Tightest super-additive lower curve dominating *curve* on ``1..k_max``.

    Dual of :func:`subadditive_closure`:
    ``γ(k) ← max(γ(k), max_{0<i<k} γ(i) + γ(k−i))``.
    """
    if curve.kind != "lower":
        raise ValidationError("superadditive closure applies to lower curves")
    k_max = curve.horizon if k_max is None else check_integer(k_max, "k_max", minimum=1)
    dense = curve.to_dense(k_max)
    vals = np.concatenate(([0.0], dense.values))
    for k in range(2, k_max + 1):
        splits = vals[1:k] + vals[k - 1 : 0 : -1]
        best = splits.max()
        if best > vals[k]:
            vals[k] = best
    return WorkloadCurve("lower", np.arange(1, k_max + 1, dtype=np.int64), vals[1:])


def envelope_upper(curves: Iterable[WorkloadCurve]) -> WorkloadCurve:
    """Pointwise maximum of several upper curves — the multi-trace envelope
    (Figure 6 combines 14 clips this way)."""
    return _envelope(curves, "upper")


def envelope_lower(curves: Iterable[WorkloadCurve]) -> WorkloadCurve:
    """Pointwise minimum of several lower curves."""
    return _envelope(curves, "lower")


def _envelope(curves: Iterable[WorkloadCurve], kind: str) -> WorkloadCurve:
    curves = list(curves)
    if not curves:
        raise ValidationError("envelope needs at least one curve")
    result = curves[0]
    if result.kind != kind:
        raise ValidationError(f"expected {kind} curves")
    for curve in curves[1:]:
        result = result.max_with(curve) if kind == "upper" else result.min_with(curve)
    return result
