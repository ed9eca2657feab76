"""Batched min-plus convolution for chain reductions.

:func:`convolve_many` runs each pair through the memoized operator, so
duplicate pairs cost one construction; :func:`convolve_reduce` folds a
whole chain ``f₁ ⊗ … ⊗ fₙ`` (the service curve of
:class:`repro.analysis.chain.StreamingChain`) through it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import convolve
from repro.perf.instrument import instrumented
from repro.util.validation import ValidationError

__all__ = ["convolve_many", "convolve_reduce"]

_Pair = tuple[PiecewiseLinearCurve, PiecewiseLinearCurve]


@instrumented("batch.convolve_many")
def convolve_many(pairs: Sequence[_Pair], **budget) -> list[PiecewiseLinearCurve]:
    """Min-plus convolution of every ``(f, g)`` pair (memoized per pair).

    Each pair routes through :func:`repro.curves.minplus.convolve`, so
    repeated pairs — common when a sweep perturbs only one operand — cost
    one construction.  Budget keywords
    (``max_segments``/``max_error``/``direction``) are forwarded.
    """
    return [convolve(f, g, **budget) for f, g in pairs]


def convolve_reduce(
    curves: Iterable[PiecewiseLinearCurve],
    *,
    max_segments: int | None = None,
    max_error: float | None = None,
    direction: str | None = None,
) -> PiecewiseLinearCurve:
    """Convolve a whole sequence, ``f₁ ⊗ f₂ ⊗ … ⊗ fₙ``, structure-aware.

    Min-plus convolution is associative *and commutative*, so the operands
    may be regrouped freely.  The reduction first collapses the convex
    operands among themselves and the concave operands among themselves:
    both classes are closed under the fast paths of
    :func:`repro.curves.minplus.convolve` (convex ⊗ convex is convex,
    concave ⊗ concave is concave), so every intermediate of those two
    sub-reductions stays in the ``O(n + m)`` regime.  Only then are the
    group results and any unstructured operands folded by a balanced
    pairwise tree — the tree shape keeps intermediate curves small, and
    each level goes through the kernel cache via :func:`convolve_many`.

    With a segment/error budget plus a *direction* every pairwise
    convolution is budgeted (see :func:`repro.curves.minplus.convolve`),
    so intermediates stay O(budget) no matter how long the chain is; the
    direction-aware compactions preserve each structure group's class, so
    budgeted reductions never fall off the fast paths.
    """
    budget: dict = {}
    if max_segments is not None or max_error is not None or direction is not None:
        budget = {
            "max_segments": max_segments,
            "max_error": max_error,
            "direction": direction,
        }
    level = list(curves)
    if not level:
        raise ValidationError("convolve_reduce needs at least one curve")
    if len(level) == 1:
        return level[0]
    convex = [c for c in level if c.is_convex]
    concave = [c for c in level if c.is_concave and not c.is_convex]
    general = [c for c in level if not (c.is_convex or c.is_concave)]
    reduced = [_tree_reduce(group, budget) for group in (convex, concave) if group]
    return _tree_reduce(reduced + general, budget)


def _tree_reduce(
    level: list[PiecewiseLinearCurve], budget: dict | None = None
) -> PiecewiseLinearCurve:
    while len(level) > 1:
        pairs = list(zip(level[0::2], level[1::2]))
        reduced = convolve_many(pairs, **(budget or {}))
        if len(level) % 2:
            reduced.append(level[-1])
        level = reduced
    return level[0]
