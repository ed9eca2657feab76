"""Job model of the analysis service.

A job is one client request travelling through the daemon: submitted,
admission-checked, queued, executed (with retries) on the worker
executor, and finally resolved to a result or an error.  The dataclass
here is the single source of truth for that lifecycle; the JSONL
protocol serializes it with :meth:`Job.to_dict`.

State machine::

    submit ──► rejected            (eq. (8) admission says no)
          ──► shed                 (bounded queue is full)
          ──► queued ──► running ──► done
                     │          ├─► failed    (retries exhausted)
                     │          └─► timeout   (per-job budget exceeded)
                     └─► cancelled (cancelled while still queued)

``rejected``/``shed``/``done``/``failed``/``timeout``/``cancelled`` are
terminal.  Timestamps are wall-clock (``time.time``) for protocol
friendliness; durations are measured with the monotonic clock.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro.service.protocol import RawJSON

__all__ = ["Job", "JOB_STATES", "TERMINAL_STATES"]

#: Every state a job can be observed in, in lifecycle order.
JOB_STATES = (
    "queued",
    "running",
    "done",
    "failed",
    "timeout",
    "cancelled",
    "rejected",
    "shed",
)

#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {"done", "failed", "timeout", "cancelled", "rejected", "shed"}
)


@dataclass
class Job:
    """One request's full lifecycle record inside the daemon."""

    id: str
    op: str
    #: The posted parameters, dropped once the job is terminal: only an
    #: attempt reads them, and no response carries them.
    params: dict[str, Any] | None
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    duration_s: float = 0.0
    attempts: int = 0
    seed: int | None = None
    demand: float = 0.0
    #: The result as the protocol's JSON text, encoded by the worker.
    result_json: str | None = None
    error: str | None = None
    error_type: str | None = None
    admission: dict[str, Any] | None = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def result(self) -> Any:
        """The op's result, decoded from :attr:`result_json` (None until
        the job is done)."""
        return None if self.result_json is None else json.loads(self.result_json)

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self.state in TERMINAL_STATES

    def finish(self, state: str) -> None:
        """Move to a terminal *state*, drop the params and wake every
        waiter."""
        self.state = state
        self.params = None
        self.finished_at = time.time()
        self.done_event.set()

    def to_dict(self, *, with_result: bool = True) -> dict[str, Any]:
        """The protocol's job object, for
        :func:`~repro.service.protocol.encode`: its ``result`` is the
        worker's :class:`~repro.service.protocol.RawJSON` text.

        ``with_result=False`` drops the (possibly large) result payload —
        used by ``status`` responses and stream events.
        """
        out: dict[str, Any] = {
            "id": self.id,
            "op": self.op,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
            "attempts": self.attempts,
            "demand": self.demand,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.error is not None:
            out["error"] = self.error
            out["error_type"] = self.error_type
        if self.admission is not None:
            out["admission"] = self.admission
        if with_result and self.state == "done":
            out["result"] = None if self.result_json is None else RawJSON(self.result_json)
        return out
