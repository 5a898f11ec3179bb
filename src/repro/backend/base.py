"""The :class:`KemBackend` execution interface and the backend registry.

The paper moves LAC's hot kernels onto dedicated execution units behind
a fixed ISA; this module is the software analogue of that seam.  A
backend is *where batched KEM kernels execute* — behind a fixed,
swappable submission API, so the batch layer, the service and the
benchmarks never hard-wire a particular pool again:

* :class:`repro.backend.InlineBackend` — synchronous, in the caller's
  thread (tests, cycle-model paths, debugging);
* :class:`repro.backend.ThreadBackend` — a thread pool (the default;
  one process-wide pool, see ``default_thread_backend()``);
* :class:`repro.backend.ProcessBackend` — a supervised process pool
  (GIL-free parallelism; workers warm their own GF/ring tables, crash
  detection with bounded restart);
* :class:`repro.backend.CosimBackend` — the simulated ISE core: every
  request runs through the annotated cosim drivers with a per-request
  cycle counter, priced by the calibrated Table I/II model.

Every implementation provides the same contract:

``submit_encaps(params, pk, messages) -> Future[list[EncapsResult]]``
``submit_decaps(params, keys, ciphertexts) -> Future[list[bytes]]``
``submit_keygen(params, seeds) -> Future[list[KemKeyPair]]``
``keygen(params, seed)``  — synchronous single-key convenience
``warmup()``              — pay table-building/spawn cost up front
``close()``               — graceful drain; idempotent
``stats()``               — submission/restart/cache counters for metrics
``register_key(...)``     — warm the per-key transform cache
``invalidate_key(...)``   — reclaim cache entries on key removal

Backends own a per-key :class:`repro.ring.KeyTransformCache`: batches
under a hosted key reuse the forward FFT of the key-side ring operands
(and skip GenA on a hit) instead of recomputing them per batch.

Results are **bit-identical to the scalar** :class:`repro.lac.LacKem`
across every backend — the conformance suite in
``tests/test_backend.py`` pins that invariant, the way the paper's
accelerated kernels are validated against the reference software.

Backends are selected by name through :func:`create_backend` (used by
``ServiceConfig``/CLI) or the ``REPRO_KEM_BACKEND`` environment
variable; see ``docs/SERVICE.md`` for the trade-offs.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future
from typing import Any

from repro.lac.kem import EncapsResult, KemKeyPair, KemSecretKey, LacKem
from repro.lac.params import ALL_PARAMS, LacParams
from repro.lac.pke import Ciphertext, PublicKey
from repro.ring.cache import DEFAULT_CACHE_ENTRIES, KeyTransformCache

#: Environment variable consulted when no backend name is given
#: explicitly (``ServiceConfig.backend=None`` and no ``backend=`` arg).
BACKEND_ENV_VAR = "REPRO_KEM_BACKEND"

#: The backend used when neither configuration nor environment names one.
DEFAULT_BACKEND = "thread"

#: A hook run *inside the backend's execution context* around the
#: kernel call — the service passes one that draws chaos faults and
#: stamps tracing boundaries, so "kernel time" means the same thing
#: regardless of which backend ran the batch.
KernelWrapper = Callable[[Callable[[], Any]], Any]

#: Deterministic warmup seed (warmup must not consume OS entropy in
#: ways that differ between runs; the generated key is discarded).
_WARMUP_SEED = b"\x2a"


class KemBackend(ABC):
    """Abstract execution backend for batched LAC KEM kernels.

    Subclasses implement the three ``submit_*`` hooks; everything else
    (the synchronous :meth:`keygen` convenience, :meth:`warmup`,
    :meth:`stats` bookkeeping, the cached per-parameter-set
    :class:`LacKem` instances) is shared.

    The optional ``wrapper`` argument of the ``submit_*`` methods runs
    around the kernel call in the backend's execution context (worker
    thread for :class:`ThreadBackend`, supervisor thread for
    :class:`ProcessBackend`, the caller for :class:`InlineBackend`);
    the serving layer uses it for fault injection and trace stamps.
    """

    #: Registry/metrics name of the implementation.
    name: str = "abstract"

    def __init__(self, cache_entries: int | None = None) -> None:
        self._kems_lock = threading.Lock()
        self._kems: dict[str, LacKem] = {}
        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._closed = False
        #: The backend-owned per-key transform cache
        #: (:class:`repro.ring.KeyTransformCache`).  ``cache_entries``
        #: sizes it; ``0`` disables caching entirely (cold baseline for
        #: benchmarks), ``None`` takes the default capacity.
        self.transform_cache: KeyTransformCache | None = (
            None
            if cache_entries == 0
            else KeyTransformCache(cache_entries or DEFAULT_CACHE_ENTRIES)
        )

    # ------------------------------------------------------------------
    # the contract
    # ------------------------------------------------------------------

    @abstractmethod
    def submit_encaps(
        self,
        params: LacParams,
        pk: PublicKey,
        messages: Sequence[bytes],
        *,
        wrapper: KernelWrapper | None = None,
    ) -> Future[list[EncapsResult]]:
        """Encapsulate ``messages`` under ``pk``; resolves positionally."""

    @abstractmethod
    def submit_decaps(
        self,
        params: LacParams,
        keys: KemSecretKey,
        ciphertexts: Sequence[Ciphertext],
        *,
        wrapper: KernelWrapper | None = None,
    ) -> Future[list[bytes]]:
        """Decapsulate ``ciphertexts``; resolves to the shared secrets."""

    @abstractmethod
    def submit_keygen(
        self,
        params: LacParams,
        seeds: Sequence[bytes | None],
        *,
        wrapper: KernelWrapper | None = None,
    ) -> Future[list[KemKeyPair]]:
        """Generate one key pair per seed (``None`` = OS randomness)."""

    def keygen(self, params: LacParams, seed: bytes | None = None) -> KemKeyPair:
        """Generate a single key pair synchronously (convenience)."""
        return self.submit_keygen(params, [seed]).result()[0]

    # ------------------------------------------------------------------
    # the scheme seam (generic, non-LAC execution)
    # ------------------------------------------------------------------

    def supports_scheme(self, scheme: Any) -> bool:
        """Whether this backend can faithfully execute ``scheme``.

        The default is permissive: generic work routed through
        :meth:`submit_task` runs any registered
        :class:`repro.schemes.KemScheme`.  Backends whose results
        carry model-derived semantics beyond the bytes (the cosim
        backend's cycle tallies) override this to decline schemes
        their model does not cover.
        """
        return True

    def register_scheme_key(self, scheme: Any, params: Any, pair: Any) -> list[bytes]:
        """Scheme-aware twin of :meth:`register_key`.

        Raises :class:`repro.errors.UnsupportedScheme` when
        :meth:`supports_scheme` declines — at *registration*, so a
        misconfigured deployment fails before any traffic does.  LAC
        pairs take the historical cache-warming path; other schemes
        currently have no backend-side cache and return no
        fingerprints.
        """
        if not self.supports_scheme(scheme):
            from repro.errors import UnsupportedScheme

            raise UnsupportedScheme(
                f"backend {self.name!r} does not support scheme {scheme.name!r}"
            )
        if isinstance(params, LacParams):
            return self.register_key(params, pair.public_key, pair.secret_key)
        return []

    def submit_task(
        self,
        fn: Callable[[], Any],
        *,
        wrapper: KernelWrapper | None = None,
    ) -> Future[Any]:
        """Run an arbitrary kernel closure in this backend's context.

        The generic execution hook for non-LAC schemes: the serving
        layer submits ``scheme.encaps_many``/``decaps_many`` closures
        here, keeping the typed LAC fast path untouched.  The base
        implementation runs inline in the caller's thread (correct for
        every backend, concurrent for none); pool backends override it
        to use their workers.  Process pools keep the inline default —
        ad-hoc closures are not picklable, and the numpy kernels the
        closures wrap release the GIL anyway.
        """
        self._check_open()
        future: Future[Any] = Future()
        if not future.set_running_or_notify_cancel():  # pragma: no cover
            return future
        try:
            future.set_result(self._tracked(wrapper, fn))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def warmup(self, params_list: Sequence[LacParams] | None = None) -> None:
        """Run one tiny roundtrip per parameter set through the backend.

        Pays one-time costs — GF log/antilog tables, ring FFT plans,
        the BCH parity matrix, worker spawn for process pools — outside
        any measured or latency-sensitive window.
        """
        for params in params_list if params_list is not None else ALL_PARAMS:
            seed = _WARMUP_SEED * (params.seed_bytes + 32)
            pair = self.keygen(params, seed)
            results = self.submit_encaps(
                params, pair.public_key, [b"\x00" * params.message_bytes]
            ).result()
            self.submit_decaps(
                params, pair.secret_key, [r.ciphertext for r in results]
            ).result()

    def close(self, wait: bool = True) -> None:
        """Release backend resources; idempotent.

        With ``wait=True`` (the default) the call drains gracefully:
        already-submitted batches finish and their futures resolve.
        """
        self._closed = True

    def register_key(
        self,
        params: LacParams,
        pk: PublicKey,
        keys: KemSecretKey | None = None,
    ) -> list[bytes]:
        """Warm the transform cache for a key this backend will host.

        Pays GenA and the key-side forward FFTs at registration time so
        the first batch under the key already hits.  Returns the
        fingerprints populated — keep them for :meth:`invalidate_key`
        on removal.  With caching disabled the fingerprints are still
        returned (they are content-derived, not cache state).
        """
        from repro.batch.kem import key_fingerprints, warm_cache

        if self.transform_cache is None:
            return key_fingerprints(params, pk, keys)
        return warm_cache(self.transform_cache, params, pk, keys)

    def invalidate_key(self, fingerprints: Iterable[bytes]) -> int:
        """Reclaim cache entries for a removed key; returns entries dropped.

        Purely memory hygiene — content-derived fingerprints already
        make stale hits impossible (see :mod:`repro.ring.cache`).
        """
        if self.transform_cache is None:
            return 0
        return self.transform_cache.invalidate(fingerprints)

    def kill_worker(self) -> bool:
        """Chaos hook: kill one worker, if the backend has killable ones.

        Returns whether a worker was actually killed — the ``backend``
        fault site treats ``False`` (inline/thread backends) as a
        counted no-op.
        """
        return False

    @property
    def workers(self) -> int | None:
        """Current worker-pool size; ``None`` = unsized/not resizable.

        The autoscaler (:mod:`repro.serve.slo`) reads this before
        every :meth:`resize` decision; a ``None`` (inline backend,
        borrowed executor, the shared default pool) opts the backend
        out of autoscaling entirely.
        """
        return None

    def resize(self, workers: int) -> bool:
        """Grow or shrink the worker pool to ``workers``; ``False`` =
        unsupported.

        Implementations must keep already-submitted batches running to
        completion — a resize changes capacity, never correctness.
        The base implementation (and any backend without a resizable
        pool) declines.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return False

    def stats(self) -> dict[str, Any]:
        """Counters for metrics/INFO: submissions, failures, restarts."""
        with self._stats_lock:
            out: dict[str, Any] = {
                "name": self.name,
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "restarts": 0,
            }
        out["transform_cache"] = (
            self.transform_cache.stats()
            if self.transform_cache is not None
            else None
        )
        return out

    # ------------------------------------------------------------------
    # shared plumbing for implementations
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _kem_for(self, params: LacParams) -> LacKem:
        """The backend's cached scalar :class:`LacKem` per parameter set."""
        with self._kems_lock:
            kem = self._kems.get(params.name)
            if kem is None:
                kem = self._kems[params.name] = LacKem(params)
            return kem

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self.name} backend is closed")

    def _tracked(self, wrapper: KernelWrapper | None, work: Callable[[], Any]) -> Any:
        """Run ``work`` (through ``wrapper``) updating the stat counters."""
        with self._stats_lock:
            self._submitted += 1
        try:
            result = wrapper(work) if wrapper is not None else work()
        except BaseException:
            with self._stats_lock:
                self._failed += 1
            raise
        with self._stats_lock:
            self._completed += 1
        return result

    @staticmethod
    def _done(value: Any) -> Future[Any]:
        """An already-resolved future (empty batches never hit a pool)."""
        future: Future[Any] = Future()
        future.set_result(value)
        return future


def _positive(name: str, value: int | None) -> int | None:
    if value is not None and value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


def resolve_backend_name(name: str | None = None) -> str:
    """The backend name to use: explicit, else env, else the default."""
    resolved = name or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if resolved not in BACKEND_NAMES:
        raise ValueError(
            f"unknown KEM backend {resolved!r} (choose from {sorted(BACKEND_NAMES)})"
        )
    return resolved


def create_backend(
    name: str | None = None,
    workers: int | None = None,
    fan_out: int | None = None,
    cache_entries: int | None = None,
) -> KemBackend:
    """Create (or share) a backend by name.

    ``name`` of ``None`` falls back to ``$REPRO_KEM_BACKEND``, then to
    ``"thread"``.  ``workers`` sizes the pool; ``fan_out`` adds
    intra-batch fan-out (thread backend only); ``cache_entries`` sizes
    the per-key transform cache (``0`` disables it).  A plain
    ``"thread"`` request with no knob at all returns the process-wide
    shared default backend — the executor-reuse behavior the serving
    layer has always had — whose :meth:`~KemBackend.close` is a no-op.
    """
    from repro.backend.cosim import CosimBackend
    from repro.backend.inline import InlineBackend
    from repro.backend.process import ProcessBackend
    from repro.backend.thread import ThreadBackend, default_thread_backend

    resolved = resolve_backend_name(name)
    _positive("workers", workers)
    _positive("fan_out", fan_out)
    if cache_entries is not None and cache_entries < 0:
        raise ValueError("cache_entries must be >= 0")
    if resolved == "inline":
        return InlineBackend(cache_entries=cache_entries)
    if resolved == "process":
        return ProcessBackend(workers=workers, cache_entries=cache_entries)
    if resolved == "cosim":
        # one simulated in-order core: sizing knobs do not apply (the
        # profile comes from $REPRO_COSIM_PROFILE or the constructor)
        return CosimBackend()
    if workers is None and fan_out is None and cache_entries is None:
        return default_thread_backend()
    return ThreadBackend(
        workers=workers, fan_out=fan_out, cache_entries=cache_entries
    )


#: Names accepted by :func:`create_backend` / ``ServiceConfig.backend``.
BACKEND_NAMES = ("inline", "thread", "process", "cosim")
