#!/usr/bin/env python3
"""Buffer sizing: the dual design question (paper §3.2 intro).

"How should the buffers be sized?" — given a PE2 clock, compute the
smallest FIFO that never overflows, under both characterizations, and
sweep the frequency to chart the buffer/clock trade-off curve an
architect actually navigates.

Run:  python examples/buffer_sizing.py
"""

import numpy as np

from repro.analysis import (
    buffer_frequency_tradeoff,
    minimum_buffer_curves,
    minimum_buffer_wcet,
)
from repro.curves import UnboundedCurveError
from repro.experiments import case_study_context
from repro.simulation import replay_pipeline
from repro.util.report import TextTable, format_quantity


def main(frames: int = 48) -> None:
    ctx = case_study_context(frames=frames)

    # Fix a frequency with ~15% headroom over the curve bound and size the
    # buffer both ways.
    frequency = ctx.f_gamma.frequency * 1.15
    b_curves = minimum_buffer_curves(ctx.alpha, ctx.gamma_u, frequency)
    print(f"at F = {format_quantity(frequency, 'Hz')}:")
    print(f"  min FIFO, workload curves: {b_curves.items:6d} macroblocks")
    try:
        b_wcet = minimum_buffer_wcet(ctx.alpha, ctx.wcet, frequency)
        print(f"  min FIFO, WCET only:       {b_wcet.items:6d} macroblocks")
        print(f"  buffer RAM saved: {(1 - b_curves.items / b_wcet.items) * 100:.1f}%")
    except UnboundedCurveError:
        # under the WCET characterization the long-run demand rate exceeds
        # this clock entirely: no finite buffer can be certified — the
        # starkest form of the paper's argument
        print("  min FIFO, WCET only:       unbounded (WCET demand rate "
              "exceeds the clock; no finite buffer certifiable)")

    # Validate: simulate all clips with exactly the curve-sized buffer.
    worst = 0
    for name, record in zip(ctx.clip_names, ctx.records):
        r = replay_pipeline(record.pe1_output, record.pe2_cycles, frequency,
                            capacity=b_curves.items)
        assert not r.overflowed, f"overflow in {name}"
        worst = max(worst, r.max_backlog)
    print(f"  simulated worst backlog: {worst} <= {b_curves.items}  (guarantee held)")

    # The trade-off curve.
    freqs = np.linspace(ctx.f_gamma.frequency * 1.02, ctx.f_gamma.frequency * 1.6, 7)
    table = TextTable(["frequency", "min buffer (mb)", "min buffer (frames)"],
                      title="buffer / frequency trade-off (workload curves)")
    for f, b in buffer_frequency_tradeoff(ctx.alpha, ctx.gamma_u, freqs):
        table.add_row([format_quantity(f, "Hz"), b, f"{b / 1620:.2f}"])
    print()
    print(table.render())


if __name__ == "__main__":
    main()
