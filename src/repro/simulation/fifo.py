"""FIFO buffer with occupancy statistics.

The buffer between PE1 and PE2 (Figure 5) holds partially decoded
macroblocks.  Capacity is counted in items (macroblocks, matching the
paper's ``b = 1620`` = one frame); an item occupies a slot from the moment
it arrives until its consumer *finishes* processing it.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.util.validation import ValidationError, check_integer

__all__ = ["Fifo"]

T = TypeVar("T")


class Fifo(Generic[T]):
    """Bounded FIFO recording its worst-case occupancy.

    Overflows are *recorded*, not dropped: the paper sizes the consumer's
    clock so overflow never happens; the statistic tells us whether the
    guarantee held.  Pass ``capacity=None`` for an unbounded buffer.
    """

    def __init__(self, capacity: int | None, *, name: str = "fifo"):
        if capacity is not None:
            capacity = check_integer(capacity, "capacity", minimum=1)
        self.capacity = capacity
        self.name = name
        self._items: deque[T] = deque()
        self._in_service = 0
        self.max_occupancy = 0
        self.overflow_count = 0
        self.total_pushed = 0

    @property
    def occupancy(self) -> int:
        """Items currently occupying slots (queued + in service)."""
        return len(self._items) + self._in_service

    @property
    def queued(self) -> int:
        """Items waiting (not yet started by the consumer)."""
        return len(self._items)

    def push(self, item: T) -> None:
        """Insert at the tail; records an overflow if capacity is exceeded."""
        self._items.append(item)
        self.total_pushed += 1
        occ = self.occupancy
        if occ > self.max_occupancy:
            self.max_occupancy = occ
        if self.capacity is not None and occ > self.capacity:
            self.overflow_count += 1

    def start_service(self) -> T:
        """Remove the head for processing; its slot stays occupied until
        :meth:`finish_service`."""
        if not self._items:
            raise ValidationError("cannot start service on an empty FIFO")
        self._in_service += 1
        return self._items.popleft()

    def finish_service(self) -> None:
        """Release the slot of an item whose processing completed."""
        if self._in_service <= 0:
            raise ValidationError("finish_service without a matching start_service")
        self._in_service -= 1

    def __len__(self) -> int:
        return self.occupancy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"Fifo(occupancy={self.occupancy}/{cap}, max={self.max_occupancy})"
