"""Brute-force single-server recursion (oracle only; see package docstring).

The definition of a work-conserving FIFO server: item ``i`` becomes
available at ``available[i]``, starts once it is available and the
server has finished item ``i - 1`` (the server is free at time 0), and
completes ``service_time[i]`` later.  One plain Python step per item, in
item order, so every completion is the float of the definition's own
additions; the busy-period kernel behind
:class:`~repro.mpeg.bitstream.SyntheticClip`'s PE1 output times must
reproduce it bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["completion_times_brute"]


def completion_times_brute(
    available: Sequence[float], service_time: Sequence[float]
) -> np.ndarray:
    """``done[i] = max(available[i], done[i-1]) + service_time[i]`` with
    ``done[-1] = 0``, one item at a time.

    On a tie the server's own time ``done[i-1]`` is taken (the two are the
    same float unless they are ``0.0`` and ``-0.0``).
    """
    done = np.empty(len(available))
    prev = 0.0
    for i in range(len(available)):
        start = available[i] if available[i] > prev else prev
        prev = start + service_time[i]
        done[i] = prev
    return done
