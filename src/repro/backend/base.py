"""The :class:`KemBackend` execution interface and the backend registry.

The paper moves LAC's hot kernels onto dedicated execution units behind
a fixed ISA; this module is the software analogue of that seam.  A
backend is *where batched KEM kernels execute* — behind a fixed,
swappable submission API, so the batch layer, the service and the
benchmarks never hard-wire a particular pool again:

* :class:`repro.backend.InlineBackend` — synchronous, in the caller's
  thread (tests, cycle-model paths, debugging);
* :class:`repro.backend.ThreadBackend` — a thread pool (the default);
* :class:`repro.backend.ProcessBackend` — a supervised process pool
  (GIL-free parallelism; workers warm their own GF/ring tables, crash
  detection with bounded restart);
* :class:`repro.backend.CosimBackend` — the simulated ISE core: every
  request runs through the annotated cosim drivers with a per-request
  cycle counter, priced by the calibrated Table I/II model.

Every implementation provides the same contract, and — like the
paper's one custom opcode with the unit selected by ``funct3`` — it
has exactly one submission entry point:

``submit(scheme, params, op, pairs, items, *, wrapper=None) -> Future[list]``
    ``op`` is ``"KEYGEN"`` (``items`` are seeds, ``pairs`` is ``None``,
    resolves to scheme pairs), ``"ENCAPS"`` (messages in, ``(ct_bytes,
    shared)`` out) or ``"DECAPS"`` (wire ciphertexts in, shared secrets
    out); ``pairs[i]`` is the key pair ``items[i]`` runs under — one
    batch serves many hosted keys of one parameter set.  The kernel is
    the :class:`repro.schemes.KemScheme` adapter; the backend only
    decides *where* it runs and hands it the per-key transform cache.
``register_key(scheme, params, pair)`` — decline unsupported schemes,
    warm the per-key transform cache, return its fingerprints
``invalidate_key(...)``   — reclaim cache entries on key removal
``keygen(params, seed)``  — synchronous single-key convenience
``warmup()``              — pay table-building/spawn cost up front
``close()``               — graceful drain, then the backend's executor
                            shuts down; idempotent
``stats()``               — submission/restart/cache counters for metrics
``slots``                 — how many batches it executes at once, fixed
                            when the backend is built

What each backend does with ``submit``: inline runs the adapter in the
caller; thread runs it on a pool thread; process ships LAC batches to
worker processes as one message per chunk (the blob of each distinct
key among the chunk's lanes, each lane's index into them, and the wire
bytes), and runs any scheme it has no wire for on its supervisor
threads; cosim runs the counted scalar ``LacKem`` per item and
therefore declines every scheme but LAC at registration.

Backends own a per-key :class:`repro.ring.KeyTransformCache`: batches
under a hosted key reuse the forward FFT of the key-side ring operands
(and skip GenA on a hit) instead of recomputing them per batch.

Results are **bit-identical to the scalar reference** of the scheme
across every backend — the conformance suite in
``tests/test_backend.py`` pins that invariant, the way the paper's
accelerated kernels are validated against the reference software.

Backends are selected by name through :func:`create_backend` (what
``ServiceConfig.backend`` names); see ``docs/SERVICE.md`` for the
trade-offs.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Executor, Future
from typing import Any

from repro.errors import UnsupportedScheme
from repro.ring.cache import DEFAULT_CACHE_ENTRIES, KeyTransformCache
from repro.schemes import LAC_SCHEME, KemScheme, resolve

#: The backend used when no configuration names one.
DEFAULT_BACKEND = "thread"

#: A hook run *inside the backend's execution context* around the
#: kernel call — the service passes one that draws chaos faults and
#: stamps tracing boundaries, so "kernel time" means the same thing
#: regardless of which backend ran the batch.
KernelWrapper = Callable[[Callable[[], Any]], Any]

#: The ``op`` values :meth:`KemBackend.submit` accepts.
OPS = ("KEYGEN", "ENCAPS", "DECAPS")

#: Deterministic warmup seed (warmup must not consume OS entropy in
#: ways that differ between runs; the generated key is discarded).
_WARMUP_SEED = b"\x2a"


def run_op(
    scheme: KemScheme,
    params: Any,
    op: str,
    pairs: Sequence[Any] | None,
    items: Sequence[Any],
    cache: KeyTransformCache | None,
) -> list[Any]:
    """The kernel behind :meth:`KemBackend.submit`: the scheme adapter
    (``op`` is one of :data:`OPS` — ``submit`` checked it)."""
    if op == "KEYGEN":
        return [scheme.keygen(params, seed) for seed in items]
    assert pairs is not None  # ``submit`` checked: one per item
    if op == "ENCAPS":
        return scheme.encaps_each(params, pairs, items, cache)
    return scheme.decaps_each(params, pairs, items, cache)


class KemBackend:
    """Base execution backend for batched KEM kernels.

    Subclasses say *where* a batch runs by setting the executor
    :meth:`_spawn` submits to (and, when the where changes the how —
    worker processes, the simulated core — by overriding
    :meth:`_kernel`); the one :meth:`submit`, the synchronous
    :meth:`keygen` convenience, :meth:`warmup`, the :meth:`stats`
    bookkeeping and shutting the executor down in :meth:`close` are
    shared.

    The optional ``wrapper`` argument of :meth:`submit` runs around
    the kernel call in the backend's execution context (worker thread
    for :class:`ThreadBackend`, supervisor thread for
    :class:`ProcessBackend`, the caller for :class:`InlineBackend`);
    the serving layer uses it for fault injection and trace stamps.
    """

    #: Registry/metrics name of the implementation.
    name: str = "abstract"

    def __init__(self) -> None:
        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._closed = False
        #: The backend-owned per-key transform cache
        #: (:class:`repro.ring.KeyTransformCache`, holding
        #: :data:`~repro.ring.DEFAULT_CACHE_ENTRIES` entries); ``None``
        #: where the kernels run elsewhere or never read one.
        self.transform_cache: KeyTransformCache | None = KeyTransformCache(
            DEFAULT_CACHE_ENTRIES
        )
        #: Where :meth:`_spawn` runs batches, owned by the backend and
        #: shut down by :meth:`close`; a pooled subclass sets it.
        self._executor: Executor | None = None

    # ------------------------------------------------------------------
    # the contract
    # ------------------------------------------------------------------

    def submit(
        self,
        scheme: KemScheme,
        params: Any,
        op: str,
        pairs: Sequence[Any] | None,
        items: Sequence[Any],
        *,
        wrapper: KernelWrapper | None = None,
    ) -> Future[list[Any]]:
        """Run one ``op`` batch, ``items[i]`` under ``pairs[i]``;
        resolves positionally.

        ENCAPS/DECAPS take and return the wire bytes
        ``KemScheme.encaps_many``/``decaps_many`` speak; KEYGEN takes
        seeds (``None`` = OS randomness) and ``pairs=None``, and
        returns scheme pairs.  Empty batches resolve immediately
        without touching a pool.
        """
        self._check_open()
        if op not in OPS:
            raise ValueError(f"unknown KEM op {op!r} (choose from {OPS})")
        batch = list(items)
        if not batch:
            return self._done([])
        lanes = None if op == "KEYGEN" else list(pairs or ())
        if lanes is not None and len(lanes) != len(batch):
            raise ValueError(f"{op} takes one pair per item")
        return self._spawn(
            wrapper, lambda: self._kernel(scheme, params, op, lanes, batch)
        )

    def _spawn(
        self, wrapper: KernelWrapper | None, work: Callable[[], Any]
    ) -> Future[Any]:
        """Run ``self._tracked(wrapper, work)`` on the backend's executor."""
        assert self._executor is not None, f"{self.name} backend has no executor"
        return self._executor.submit(self._tracked, wrapper, work)

    def _kernel(
        self,
        scheme: KemScheme,
        params: Any,
        op: str,
        pairs: list[Any] | None,
        batch: list[Any],
    ) -> list[Any]:
        """What runs inside :meth:`_spawn`: by default the adapter itself."""
        return run_op(scheme, params, op, pairs, batch, self.transform_cache)

    def keygen(self, params: Any, seed: bytes | None = None) -> Any:
        """Generate a single key pair synchronously (convenience)."""
        scheme, params = resolve(params)
        return self.submit(scheme, params, "KEYGEN", None, [seed]).result()[0]

    def supports_scheme(self, scheme: KemScheme) -> bool:
        """Whether this backend can faithfully execute ``scheme``.

        The default is permissive: the kernel is the scheme adapter, so
        any registered :class:`repro.schemes.KemScheme` runs.  Backends
        whose results carry model-derived semantics beyond the bytes
        (the cosim backend's cycle tallies) override this to decline
        schemes their model does not cover.
        """
        return True

    def _require_scheme(self, scheme: KemScheme) -> None:
        if not self.supports_scheme(scheme):
            raise UnsupportedScheme(
                f"backend {self.name!r} does not support scheme {scheme.name!r}"
            )

    def register_key(self, scheme: KemScheme, params: Any, pair: Any) -> list[bytes]:
        """Accept a key this backend will host and warm its cache.

        Raises :class:`repro.errors.UnsupportedScheme` when
        :meth:`supports_scheme` declines — at *registration*, so a
        misconfigured deployment fails before any traffic does.
        Otherwise pays the scheme's cacheable key-side work (LAC: GenA
        and the forward FFTs) now, so the first batch under the key
        already hits, and returns the fingerprints populated — keep
        them for :meth:`invalidate_key` on removal.  With caching
        disabled the fingerprints are still returned (they are
        content-derived, not cache state).
        """
        self._require_scheme(scheme)
        return scheme.warm_key(params, pair, self.transform_cache)

    def warmup(self, params_list: Sequence[Any] | None = None) -> None:
        """Run one tiny roundtrip per parameter set through the backend.

        Pays one-time costs — GF log/antilog tables, ring FFT plans,
        the BCH parity matrix, worker spawn for process pools — outside
        any measured or latency-sensitive window.  Defaults to the LAC
        parameter sets.
        """
        for spec in params_list if params_list is not None else LAC_SCHEME.param_sets:
            scheme, params = resolve(spec)
            pair = self.keygen(params, _WARMUP_SEED * scheme.seed_len(params))
            message = b"\x00" * scheme.message_bytes(params)
            [(ct, _)] = self.submit(
                scheme, params, "ENCAPS", [pair], [message]
            ).result()
            self.submit(scheme, params, "DECAPS", [pair], [ct]).result()

    def close(self, wait: bool = True) -> None:
        """Stop intake and shut the executor down; idempotent.

        With ``wait=True`` (the default) the call drains gracefully:
        already-submitted batches finish and their futures resolve.
        """
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait)

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
    def slots(self) -> int:
        """How many submitted batches execute at once; one more only
        waits in the backend's own queue, where no later request can
        join it.  The serving layer hands over a deadline-flushed batch
        while a slot is free and lets the rest keep filling.  One here
        (the caller's thread, a single simulated core); pools report
        the size they were built with, which never changes."""
        return 1

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


def check_backend_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is one of :data:`BACKEND_NAMES`."""
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown KEM backend {name!r} (choose from {sorted(BACKEND_NAMES)})"
        )


def create_backend(
    name: str = DEFAULT_BACKEND, workers: int | None = None
) -> KemBackend:
    """Create a backend by name; the caller owns and closes it.

    ``workers`` sizes the pool — its :attr:`~KemBackend.slots`
    for the life of the backend (``None``: the backend's default).
    """
    from repro.backend.cosim import CosimBackend
    from repro.backend.inline import InlineBackend
    from repro.backend.process import ProcessBackend
    from repro.backend.thread import ThreadBackend

    check_backend_name(name)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if name == "inline":
        return InlineBackend()
    if name == "process":
        return ProcessBackend(workers=workers)
    if name == "cosim":
        # one simulated in-order core: sizing does not apply, and a
        # profile other than the default needs the constructor
        return CosimBackend()
    return ThreadBackend(workers=workers)


#: Names accepted by :func:`create_backend` / ``ServiceConfig.backend``.
BACKEND_NAMES = ("inline", "thread", "process", "cosim")
