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
* :mod:`repro.perf.batch` — :func:`convolve_many` runs each pair through
  the memoized operator, and :func:`convolve_reduce` folds a chain.

Quick use::

    import repro.perf as perf
    from repro.obs import registry

    perf.configure(enabled=False)   # force every kernel to recompute
    perf.configure(enabled=True)
    perf.clear_cache()
    perf.cache_stats()              # {"hits": ..., "per_op": {...}, ...}
    registry.snapshot()             # kernel.calls/seconds{kernel=...}, cache.*
"""

from __future__ import annotations

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
from repro.perf.instrument import instrumented

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
    "reset",
    "convolve_many",
    "convolve_reduce",
]


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
    if name in ("convolve_many", "convolve_reduce"):
        from repro.perf import batch

        return getattr(batch, name)
    raise AttributeError(f"module 'repro.perf' has no attribute {name!r}")
