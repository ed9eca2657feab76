"""Processing-element model for the transaction-level simulation.

A PE executes work items sequentially at a fixed clock frequency: an item
demanding ``c`` cycles occupies the PE for ``c / F`` seconds.  The model
matches the paper's assumption that each decoder subtask receives the full
capacity of its PE (no scheduler on the PE itself).
"""

from __future__ import annotations

from repro.util.validation import ValidationError, check_non_negative, check_positive

__all__ = ["ProcessingElement"]


class ProcessingElement:
    """A single work-conserving processor at a fixed clock frequency.

    Tracks cumulative busy time so experiments can report utilization.
    """

    def __init__(self, name: str, frequency: float):
        if not isinstance(name, str) or not name:
            raise ValidationError("PE name must be a non-empty string")
        self.name = name
        self.frequency = check_positive(frequency, "frequency")
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.items_processed = 0

    def service_time(self, cycles: float) -> float:
        """Wall-clock time to execute *cycles* at this PE's frequency."""
        check_non_negative(cycles, "cycles")
        return cycles / self.frequency

    def is_idle_at(self, time: float) -> bool:
        """True if the PE has no work in flight at *time*."""
        return time >= self.busy_until - 1e-15

    def start(self, time: float, cycles: float) -> float:
        """Begin executing an item of *cycles* at *time* (the PE must be
        idle); returns the completion time."""
        if not self.is_idle_at(time):
            raise ValidationError(
                f"PE {self.name!r} is busy until {self.busy_until!r} at {time!r}"
            )
        duration = self.service_time(cycles)
        self.busy_until = time + duration
        self.busy_time += duration
        self.items_processed += 1
        return self.busy_until

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` spent executing."""
        check_positive(horizon, "horizon")
        return min(self.busy_time, horizon) / horizon
