"""The benchmark's workloads.

Each workload module provides::

    setup(seed) -> state                 # timed as part of setup_s
    measure(state, seconds, traced) -> Measurement
    check(state, measurement, expected) -> list[(op index, message)]
    teardown(state)

and ``WRAPPED``: whether a traced run wraps layer entry points (the
service workload reads its layer split from the daemon's job records
instead).  ``measure`` runs as many whole operations as take about
*seconds* at the reference host speed; the count depends on *seconds*
only, so the work done, the sample counts and the memory the program
holds afterwards do not change with the host's speed.  ``check`` runs
after timing, against the workload's section of ``bench/expected.json``;
it may add layer metrics read off the outputs (such as digest drift).
"""

from __future__ import annotations

import hashlib
import importlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from bench.layers import TARGETS
from bench.spans import install

if TYPE_CHECKING:
    from repro.obs.tracing import Tracer

__all__ = ["WORKLOADS", "Measurement", "load", "op_span", "sub_seed", "units", "wrapped"]

#: Workload names, in the order ``bench`` runs them.
WORKLOADS = ("paper_repro", "design_sweep", "open_system", "service")


@dataclass
class Measurement:
    """What one measured section produced.

    ``throughput`` is operations completed per second as the workload
    defines it; ``latencies_s`` holds one user-visible latency per
    operation; both are scaled to the reference host speed by the
    ``speed_factors`` of the measured segments (see
    :class:`bench.stats.HostSpeed`).  ``outputs`` is checked for
    correctness after timing; ``layer`` and ``trace`` (the spans of a
    traced run) hold raw times.
    """

    ops: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    throughput: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    trace: Tracer | None = None
    speed_factors: list[float] = field(default_factory=list)


def units(seconds: float, unit_s: float) -> int:
    """How many units of work of about *unit_s* fill *seconds* (at least one)."""
    return max(1, round(seconds / unit_s))


def sub_seed(seed: int, *path: Any) -> int:
    """A 32-bit seed for one input of the run, derived from ``--seed``."""
    digest = hashlib.blake2b(repr((seed, *path)).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def load(name: str):
    """The workload module called *name* (one of :data:`WORKLOADS`)."""
    return importlib.import_module(f"bench.workloads.{name}")


@contextmanager
def wrapped(traced: bool) -> Iterator[Tracer | None]:
    """Layer wrappers installed for the block when *traced*; yields the
    tracer they report to (None when not traced)."""
    if not traced:
        yield None
        return
    with install(TARGETS) as tracer:
        yield tracer


def op_span(tracer: Tracer | None, name: str, **attrs: Any):
    """A span around one operation when traced, else a no-op context."""
    return nullcontext() if tracer is None else tracer.span(name, **attrs)
