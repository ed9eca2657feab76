"""repro.perf — memoization, instrumentation, and batch kernels.

The performance layer behind the analysis engine:

* :mod:`repro.perf.cache` — a content-addressed LRU memo cache for the
  expensive pure operations (min-plus convolution/deconvolution, workload
  curve combination and inversion, trace envelope extraction), keyed by
  exact content digests, with hit/miss/eviction counters and an opt-out
  switch;
* :mod:`repro.perf.diskcache` — an optional persistent second level under
  the in-memory LRU: a size-capped, corruption-tolerant directory of
  pickled results shared across processes and runs (attach with
  ``perf.attach_disk_cache(path)`` or the CLI's ``--cache-dir``);
* :mod:`repro.perf.instrument` — per-kernel call counts, wall time, and
  timing histograms, reported through the :mod:`repro.obs` metrics
  registry (and, when tracing is enabled, as nested spans);
* :mod:`repro.perf.batch` — batch helpers for the sweep-style workloads:
  :func:`convolve_many` / :func:`deconvolve_many` run each pair through
  the memoized operator, :func:`evaluate_at_many` evaluates many curves
  on one Δ-grid, and :func:`convolve_reduce` folds a chain.

Quick use::

    import repro.perf as perf

    perf.configure(enabled=False)   # force every kernel to recompute
    perf.configure(enabled=True)
    perf.clear_cache()
    perf.report()                   # {"kernels": {...}, "cache": {...}}
"""

from __future__ import annotations

from typing import Any

from repro.perf.cache import (
    KernelCache,
    attach_disk_cache,
    configure,
    detach_disk_cache,
    digest_of,
    kernel_cache,
)
from repro.perf.cache import clear as clear_cache
from repro.perf.cache import stats as cache_stats
from repro.perf.instrument import instrumented, snapshot as kernel_snapshot

#: Compatibility alias: the per-kernel ``{name: {calls, seconds}}`` view.
snapshot = kernel_snapshot

__all__ = [
    "KernelCache",
    "kernel_cache",
    "configure",
    "attach_disk_cache",
    "detach_disk_cache",
    "clear_cache",
    "cache_stats",
    "digest_of",
    "instrumented",
    "report",
    "reset",
    "snapshot",
    "kernel_snapshot",
    "convolve_many",
    "convolve_reduce",
    "deconvolve_many",
    "evaluate_at_many",
]


def report() -> dict[str, Any]:
    """One snapshot of the whole performance layer.

    Returns ``{"kernels": {name: {calls, seconds}}, "cache": {...}}`` —
    the payload dumped to ``benchmarks/BENCH_kernels.json`` by the kernel
    benchmark suite.  Since the observability refactor this is a thin
    *view* over the :mod:`repro.obs` metrics registry: the same numbers
    (plus per-kernel timing histograms) appear in
    ``repro.obs.registry.snapshot()`` and the CLI's ``--metrics-out``.
    """
    return {"kernels": kernel_snapshot(), "cache": cache_stats()}


def reset() -> None:
    """Clear the in-memory cache and zero every counter (cache, disk-cache
    accounting, and instrumentation).  On-disk entries are left in place —
    persistence across runs is the point; use
    ``kernel_cache.disk.clear()`` to wipe them too."""
    from repro.perf import instrument

    kernel_cache.clear()
    kernel_cache.reset_counters()
    if kernel_cache.disk is not None:
        kernel_cache.disk.reset_counters()
    instrument.reset()


def __getattr__(name: str):
    # batch imports the curve kernels, which import this package for the
    # cache — resolve lazily to keep the import graph acyclic.
    if name in ("convolve_many", "convolve_reduce", "deconvolve_many", "evaluate_at_many"):
        from repro.perf import batch

        return getattr(batch, name)
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
