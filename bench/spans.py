"""Spans recorded from outside the program, by wrapping layer entry points.

:func:`install` replaces every ``repro.*`` module global and class
attribute that *is* a target function object with a timing wrapper.  A
scan by identity matters: ``repro.experiments.common`` imports
``from_trace_upper`` by name, so patching only the defining module would
miss that call site.  :meth:`Installed.uninstall` puts the exact
original objects back.

The wrappers report to a private, enabled
:class:`repro.obs.tracing.Tracer` (not the program's own ``tracer``), so
spans live in memory, merge across processes with ``Tracer.ingest`` and
are written with ``Tracer.export_jsonl`` in the ``repro.trace/1`` shape
that ``python -m repro obs report --trace`` and ``obs flame`` read.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

if TYPE_CHECKING:  # the parent process runs without ``src`` on its path
    from repro.obs.tracing import Tracer

__all__ = [
    "Target",
    "Installed",
    "install",
    "active_tracer",
    "epoch",
    "new_tracer",
    "self_times",
    "wrapper_cost_s",
]


def new_tracer() -> Tracer:
    """A private tracer that records from the start."""
    from repro.obs.tracing import Tracer

    tracer = Tracer()
    tracer.enable()
    return tracer


def epoch(tracer: Tracer) -> float:
    """The ``perf_counter`` reading *tracer*'s ``ts`` values count from;
    the clock is shared by every process on the host, so the difference
    of two epochs is the ``ts_offset`` that aligns their traces."""
    return time.perf_counter() - tracer.now()


def self_times(records: Iterable[dict[str, Any]]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover (overlapping children, e.g. from
    parallel workers, are counted once; ``obs report`` would subtract
    their summed durations instead)."""
    records = list(records)
    children: dict[int, list[tuple[float, float]]] = {}
    for r in records:
        if r["parent"] is not None:
            children.setdefault(r["parent"], []).append((r["ts"], r["ts"] + r["dur"]))
    out: dict[int, float] = {}
    for r in records:
        start, end = r["ts"], r["ts"] + r["dur"]
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children.get(r["id"], ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[r["id"]] = max(0.0, r["dur"] - covered)
    return out


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``span`` names the span (and the prefix of the layer's metrics);
    ``module``/``attr`` locate the function (``"func"`` or
    ``"Class.method"``); ``work`` optionally computes a work count from
    ``(args, kwargs, result)``, stored as the span's ``work`` attribute.
    """

    span: str
    module: str
    attr: str
    work: Callable[[tuple, dict, Any], int] | None = None

    def resolve(self) -> Callable:
        """The original function object (importing its module if needed)."""
        owner: Any = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[name] if path else getattr(owner, name)
        return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _wrapper(fn: Callable, target: Target, tracer: Tracer) -> Callable:
    name, work, label = target.span, target.work, target.attr

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with tracer.span(name, fn=label) as span:
            result = fn(*args, **kwargs)
            if work is not None:
                span.set("work", int(work(args, kwargs, result)))
            return result

    wrapped.__bench_original__ = fn
    return wrapped


def _repro_modules() -> list:
    return [
        m
        for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]


def _containers() -> Iterator[Any]:
    """Every ``repro.*`` module and each class defined in one (once)."""
    seen: set[int] = set()
    for module in _repro_modules():
        yield module
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and id(value) not in seen
                and str(getattr(value, "__module__", "")).startswith("repro")
            ):
                seen.add(id(value))
                yield value


def _rebind(mapping: dict[int, Callable]) -> list[tuple[Any, str, Any]]:
    """Replace each function whose id is a key of *mapping* (bare, or
    inside a classmethod/staticmethod) in every ``repro.*`` module and
    class; returns the ``(container, name, old value)`` of each change."""

    def replacement(value):
        if id(value) in mapping:
            return mapping[id(value)]
        if isinstance(value, (classmethod, staticmethod)) and id(value.__func__) in mapping:
            return type(value)(mapping[id(value.__func__)])
        return None

    changed = []
    for container in _containers():
        for name, value in list(vars(container).items()):
            new = replacement(value)
            if new is not None:
                setattr(container, name, new)
                changed.append((container, name, value))
    return changed


class Installed:
    """Wrappers in place; :meth:`uninstall` restores the original objects."""

    def __init__(self, tracer: Tracer, patches: list, originals: dict[int, Callable]):
        self.tracer = tracer
        self._patches = patches
        self._originals = originals  # id(wrapper) -> original function

    def uninstall(self) -> None:
        """Put back the exact objects :func:`install` replaced, then the
        originals of aliases taken from a wrapped global since."""
        global _ACTIVE
        for container, name, value in reversed(self._patches):
            setattr(container, name, value)
        _rebind(self._originals)
        if _ACTIVE is self.tracer:
            _ACTIVE = None

    def __enter__(self) -> Tracer:
        return self.tracer

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def _noop() -> None:
    pass


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Time one wrapper adds to a call, measured on a wrapped no-op."""
    wrapped = _wrapper(_noop, Target("bench.noop", __name__, "_noop"), new_tracer())
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        _noop()
    t2 = time.perf_counter()
    return max(0.0, (t1 - t0) - (t2 - t1)) / calls


_ACTIVE: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The tracer of the wrappers currently installed in this process
    (inherited by forked workers), or None."""
    return _ACTIVE


def install(targets: Iterable[Target]) -> Installed:
    """Wrap every target wherever a ``repro.*`` module or class holds it;
    use as ``with install(targets) as tracer:``."""
    global _ACTIVE
    tracer = new_tracer()
    wrappers = {}
    for target in targets:
        fn = target.resolve()
        wrappers[id(fn)] = _wrapper(fn, target, tracer)
    patches = _rebind(wrappers)
    _ACTIVE = tracer
    return Installed(tracer, patches, {id(w): w.__bench_original__ for w in wrappers.values()})
