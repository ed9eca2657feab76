"""Pluggable kernel backends for the generic min-plus operators.

The structure-aware fast paths of :mod:`repro.curves.minplus` (convex ⊗
convex, concave ⊗ concave, concave ⊘ convex) are closed forms and need no
acceleration; the *generic* per-interval line-envelope construction is the
measured bottleneck on genuinely general curves.  This module makes that
generic kernel pluggable: a :class:`KernelBackend` registry with

* ``numpy`` — the pure-numpy reference kernel (the oracle and the
  default);
* ``soa`` — a batched structure-of-arrays kernel
  (:mod:`repro.curves.soa`) that packs whole *sets* of curves into shared
  padded arrays and sweeps all their envelope cells in chunked vectorized
  passes (also pure numpy).

Selection flows through :func:`set_backend` / :func:`use_backend`,
``repro.perf.configure(backend=...)``, and the CLI's ``--backend``.  The
active backend's name is exported in ``REPRO_MINPLUS_BACKEND`` so worker
processes of a parallel sweep inherit it on import.

Soundness
---------
Backends agree with the reference only up to documented ulp bounds (see
``tests/curves/test_backend_conformance.py``), so memoized results must
not be shared across backends: every backend carries a
:attr:`~KernelBackend.compat_tag` that :mod:`repro.curves.minplus` folds
into the kernel-cache key of generic-path operands.  Fast-path results are
backend-independent and keep their untagged keys.

Observability
-------------
Every call through a backend increments the
``minplus.backend.calls{backend=…, op=…}`` counter, and each backend's
kernel carries its own ``kernel.*`` series with the backend name in the
span attributes — a ``--trace`` run shows which backend computed every
generic convolution.

Third-party backends subclass :class:`KernelBackend`, implement
``_convolve``/``_deconvolve`` (and optionally ``_convolve_batch`` with
``supports_batch = True``), and call :func:`register_backend`; the
differential conformance suite picks up every registered backend
automatically.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Sequence

from repro.curves.curve import PiecewiseLinearCurve
from repro.obs.metrics import registry as _metrics
from repro.util.validation import ValidationError

__all__ = [
    "KernelBackend",
    "register_backend",
    "registered_backends",
    "get_backend",
    "active_backend",
    "set_backend",
    "use_backend",
    "BACKEND_ENV_VAR",
]

#: Environment variable carrying the active backend name into worker
#: processes (read once at import; written by :func:`set_backend`).
BACKEND_ENV_VAR = "REPRO_MINPLUS_BACKEND"

_Pair = tuple[PiecewiseLinearCurve, PiecewiseLinearCurve]


class KernelBackend:
    """One implementation of the generic min-plus kernels.

    Subclasses set :attr:`name` and :attr:`compat_tag` and implement
    ``_convolve``/``_deconvolve``; batched backends additionally set
    ``supports_batch = True`` and implement ``_convolve_batch``.  The
    public entry points meter every call into the
    ``minplus.backend.calls`` counter series.
    """

    #: Registry key and CLI name.
    name = "abstract"
    #: Cache-compatibility tag: two backends may share memoized results
    #: if and only if their tags are equal (see module docstring).
    compat_tag = "abstract"
    #: Whether :meth:`convolve_batch` is a genuine batched kernel (else it
    #: falls back to a per-pair loop).
    supports_batch = False

    # -- metered entry points -------------------------------------------------
    def convolve(self, f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
        """Generic min-plus convolution ``f ⊗ g`` through this backend."""
        self._count("convolve")
        return self._convolve(f, g)

    def deconvolve(self, f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
        """Generic min-plus deconvolution ``f ⊘ g`` through this backend.

        The stability gate is part of the backend contract (uniform across
        implementations): divergent pairs raise
        :class:`~repro.curves.minplus.UnboundedCurveError` here, before
        the implementation hook runs.
        """
        from repro.curves.minplus import UnboundedCurveError

        self._count("deconvolve")
        if f.final_slope > g.final_slope + 1e-12:
            raise UnboundedCurveError(
                f"deconvolution diverges: arrival rate {f.final_slope:g} "
                f"exceeds service rate {g.final_slope:g}"
            )
        return self._deconvolve(f, g)

    def convolve_batch(self, pairs: Sequence[_Pair]) -> list[PiecewiseLinearCurve]:
        """Convolve a whole batch of pairs; batched backends vectorize
        across the batch, others loop."""
        self._count("convolve_batch")
        return self._convolve_batch(pairs)

    # -- implementation hooks -------------------------------------------------
    def _convolve(self, f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
        raise NotImplementedError

    def _deconvolve(self, f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
        raise NotImplementedError

    def _convolve_batch(self, pairs: Sequence[_Pair]) -> list[PiecewiseLinearCurve]:
        return [self._convolve(f, g) for f, g in pairs]

    def _count(self, op: str) -> None:
        _metrics.counter("minplus.backend.calls", backend=self.name, op=op).inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name!r}>"


class NumpyBackend(KernelBackend):
    """The pure-numpy reference kernel — the oracle every other backend is
    conformance-tested against."""

    name = "numpy"
    compat_tag = "numpy"

    def _convolve(self, f, g):
        from repro.curves import minplus

        return minplus._convolve_impl(f, g)

    def _deconvolve(self, f, g):
        from repro.curves import minplus

        return minplus._deconvolve_impl(f, g)


class SoABackend(KernelBackend):
    """Batched structure-of-arrays kernel (:mod:`repro.curves.soa`).

    Designed to replicate the reference construction decision-for-decision
    (same grids, same candidate lines, same tie-breaking), so its results
    are bit-compatible in practice — but the compatibility tag stays
    distinct to keep the cache provably sound.
    """

    name = "soa"
    compat_tag = "soa"
    supports_batch = True

    def _convolve(self, f, g):
        from repro.curves import soa

        return soa.convolve_batch_soa([(f, g)])[0]

    def _deconvolve(self, f, g):
        from repro.curves import soa

        return soa.deconvolve_batch_soa([(f, g)])[0]

    def _convolve_batch(self, pairs):
        from repro.curves import soa

        return soa.convolve_batch_soa(pairs)


_REGISTRY: dict[str, KernelBackend] = {}
_DEFAULT_BACKEND = "numpy"
_active: KernelBackend | None = None


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register *backend* under ``backend.name`` (replacing any previous
    backend of that name) and return it."""
    if not backend.name or backend.name == "abstract":
        raise ValidationError("backend must define a concrete name")
    _REGISTRY[backend.name] = backend
    return backend


def registered_backends() -> dict[str, KernelBackend]:
    """All registered backends by name (a copy)."""
    return dict(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; raises with the known names on a miss."""
    backend = _REGISTRY.get(name)
    if backend is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValidationError(f"unknown min-plus backend {name!r} (known: {known})")
    return backend


def active_backend() -> KernelBackend:
    """The backend the generic min-plus operators currently route to."""
    assert _active is not None
    return _active


def set_backend(name: str) -> KernelBackend:
    """Select the active backend by name and return it.

    The choice is exported in :data:`BACKEND_ENV_VAR` so worker processes
    spawned afterwards inherit it.
    """
    global _active
    _active = get_backend(name)
    os.environ[BACKEND_ENV_VAR] = name
    return _active


@contextmanager
def use_backend(name: str | None):
    """Context manager: run the body under backend *name*, then restore.

    ``use_backend(None)`` is a no-op context, so call sites can apply an
    optional backend parameter unconditionally.
    """
    if name is None:
        yield active_backend()
        return
    previous = active_backend().name
    prev_env = os.environ.get(BACKEND_ENV_VAR)
    backend = set_backend(name)
    try:
        yield backend
    finally:
        set_backend(previous)
        if prev_env is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = prev_env


def _bootstrap() -> None:
    """Register the built-in backends and activate the initial one.

    The initial backend comes from :data:`BACKEND_ENV_VAR` when set (how
    parallel workers inherit the parent's choice); an unknown name falls
    back to the numpy reference rather than breaking import.
    """
    global _active
    register_backend(NumpyBackend())
    register_backend(SoABackend())
    wanted = os.environ.get(BACKEND_ENV_VAR)
    _active = _REGISTRY.get(wanted or _DEFAULT_BACKEND, _REGISTRY[_DEFAULT_BACKEND])


_bootstrap()
