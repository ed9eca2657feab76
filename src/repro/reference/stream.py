"""Per-length streaming envelope fold (oracle only; see package docstring).

The chunked fold of the window-sum envelopes one window length at a time:
for each chunk, each length's windows that end in the chunk are formed
by one numpy subtraction of prefix sums, reduced, and merged into the
running extrema with Python ``min``/``max``.  This is the order of
operations whose floats :func:`repro.util.staircase
.streaming_envelope_minmax` must reproduce bit for bit, the sign of zero
and the treatment of overflowed prefix sums included.  No code shared
with :mod:`repro.util.staircase`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["streaming_envelope_brute"]


def streaming_envelope_brute(
    chunks: Iterable[Sequence[float]], k_values: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(min_sums, max_sums)`` of a chunked demand stream at each window
    length of the strictly increasing *k_values* (each at most the stream
    length), folded chunk by chunk and length by length.

    Each chunk's prefix sums continue the running total (``cumsum`` seeded
    with the last one; the first chunk's start from its first demand, as
    a one-shot ``cumsum`` does), and the trailing ``max(k_values)`` of
    them are kept for the windows that cross into the next chunk.  Empty
    chunks are skipped.
    """
    ks = [int(k) for k in k_values]
    k_max = ks[-1]
    lo = np.full(len(ks), np.inf)
    hi = np.full(len(ks), -np.inf)
    tail = np.zeros(1)  # csum[max(0, m - k_max) .. m]; csum[0] = 0.0
    seen = 0
    for chunk in chunks:
        arr = np.asarray(chunk, dtype=float)
        if arr.size == 0:
            continue
        if seen:
            new = np.cumsum(np.concatenate((tail[-1:], arr)))
        else:
            new = np.concatenate((tail, np.cumsum(arr)))
        # ext[m - base] = csum[m]
        ext = np.concatenate((tail[:-1], new))
        base = seen - (tail.size - 1)
        prev, seen = seen, seen + arr.size
        for i, k in enumerate(ks):
            if k > seen:
                break
            # the window ends new to this chunk: max(k, prev + 1) .. seen
            first = max(k, prev + 1)
            sums = ext[first - base : seen + 1 - base] - ext[first - k - base : seen + 1 - k - base]
            lo[i] = min(lo[i], float(sums.min()))
            hi[i] = max(hi[i], float(sums.max()))
        tail = ext[-(k_max + 1) :]
    return lo, hi
