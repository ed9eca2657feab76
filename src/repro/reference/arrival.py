"""Brute-force arrival-curve staircase (oracle only; see package docstring).

The per-element construction of a trace's upper arrival curve
``ᾱ(Δ) = max{n : d_n <= Δ}`` from its minimal window lengths, one step
per sampled count, in plain Python floats and lists.  No code shared with
:mod:`repro.curves.arrival`.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["trace_staircase_brute"]


def trace_staircase_brute(
    n_values: Sequence[int],
    window_lengths: Sequence[float],
    final_rate: float | None = None,
) -> tuple[list[float], list[float], list[float]]:
    """Breakpoints, values and slopes of the upper staircase of a trace.

    *window_lengths* are the minimal window lengths ``d_n`` at the strictly
    increasing counts *n_values* (``minimal_window_lengths``).  A count
    between two sampled ones is attributed to the earlier sampled window
    length, so the value at ``d[i]`` is the next sampled count minus one.
    Walks the samples in order: a step that does not raise the curve is
    dropped, and a step at the abscissa of the previous one raises it in
    place.  The curve starts with ``(0, 0)`` when the first window is
    longer than zero; its final slope is *final_rate*, by default the
    long-run rate ``N / d_N`` (0 when ``d_N`` is 0).
    """
    ns = [int(n) for n in n_values]
    ds = [float(d) for d in window_lengths]
    values = [float(max(ns[i + 1] - 1, ns[i])) for i in range(len(ns) - 1)]
    values.append(float(ns[-1]))
    xs: list[float] = []
    ys: list[float] = []
    best = 0.0
    for pos, val in zip(ds, values):
        if not xs:
            xs.append(pos if pos == 0.0 else 0.0)
            if pos > 0.0:
                ys.append(0.0)
                xs.append(pos)
            ys.append(val)
            best = val
            continue
        if val <= best:
            continue
        if pos == xs[-1]:
            ys[-1] = val
        else:
            xs.append(pos)
            ys.append(val)
        best = val
    slopes = [0.0] * len(xs)
    if final_rate is None:
        final_rate = float(ns[-1]) / ds[-1] if ds[-1] > 0 else 0.0
    slopes[-1] = float(final_rate)
    return xs, ys, slopes
