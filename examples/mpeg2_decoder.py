#!/usr/bin/env python3
"""The MPEG-2 decoder case study (paper §3.2, Figures 5-7).

End to end: generate the 14 synthetic clips, extract workload and arrival
curves from the PE1-output traces, compute the minimum PE2 clock frequency
under both characterizations (eqs. (9)/(10)), and validate by simulating
the FIFO + PE2 stage at the computed frequency.

This is the full paper pipeline; expect ~half a minute.  Pass a smaller
frame count for a quick look:  python examples/mpeg2_decoder.py 24
"""

import sys

from repro.experiments import case_study_context
from repro.simulation import replay_pipeline
from repro.util.report import ascii_bar_chart, format_quantity


def main(frames: int = 72) -> None:
    print(f"preparing 14 clips x {frames} frames ...")
    ctx = case_study_context(frames=frames)

    print(f"\nper-event WCET  gamma_u(1) = {ctx.wcet:,.0f} cycles")
    print(f"long-run rate   gamma_u(K)/K = {ctx.gamma_u.long_run_rate:,.0f} cycles/event")
    print(f"\nminimum PE2 frequency for b = {ctx.buffer_size} macroblocks (1 frame):")
    print(f"  workload curves (eq. 9):  {format_quantity(ctx.f_gamma.frequency, 'Hz')}"
          f"   [paper: 340 MHz]")
    print(f"  WCET only      (eq. 10):  {format_quantity(ctx.f_wcet.frequency, 'Hz')}"
          f"   [paper: 710 MHz]")
    print(f"  savings: {ctx.f_gamma.savings_over(ctx.f_wcet) * 100:.1f}%   [paper: >50%]")

    print("\nsimulating every clip at F_gamma_min ...")
    names, norms = [], []
    for name, record in zip(ctx.clip_names, ctx.records):
        r = replay_pipeline(
            record.pe1_output, record.pe2_cycles, ctx.f_gamma.frequency,
            capacity=ctx.buffer_size,
        )
        names.append(name)
        norms.append(r.max_backlog / ctx.buffer_size)
        assert not r.overflowed, f"bound violated for {name}!"
    print(ascii_bar_chart(names, norms, max_value=1.0,
                          title="Figure 7: normalized max FIFO backlog per clip"))
    print("\nno clip overflowed the FIFO: the eq. (8) guarantee held in simulation.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 72)
