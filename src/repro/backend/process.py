"""The multi-process backend: GIL-free batch execution with supervision.

A :class:`ProcessBackend` runs batched KEM kernels on a
``ProcessPoolExecutor``.  The thread backend already overlaps the
numpy array work of neighbouring batches (numpy drops the GIL), but
the *Python* half of a batch — hashing loops, object construction,
serialization — serializes on one interpreter lock; Imran et al.'s
systematic study of lattice KEMs found exactly this reference-
implementation overhead, not the math, dominating cost.  Processes
remove that ceiling: each submitted batch is split into sub-chunks
fanned across worker processes, so one 64-operation batch uses many
interpreters at once.

Design points:

* **one message per chunk** — a LAC batch is cut into at most one
  chunk per worker, and each chunk crosses the pipe as one pickled
  call holding everything the worker needs: the serialized blob of
  each distinct key among the chunk's lanes, each lane's index into
  them, and the lanes themselves (messages for encapsulation, wire
  ciphertexts for decapsulation, which the worker stacks into rows
  through the one ciphertext codec of :mod:`repro.lac.pke`).  The
  reply is the ``(ciphertext, shared secret)`` pairs or the shared
  secrets in wire bytes, so nothing is re-hydrated parent-side and a
  batch over many keys costs one trip per worker, like the paper's
  accelerators, which take every operand through one fixed
  instruction interface.  A scheme with no process wire runs its
  adapter on the supervisor threads instead — off the submitting
  thread, on the parent's interpreter;
* **per-worker transform cache** — each worker owns a
  :class:`repro.ring.KeyTransformCache`, so repeated batches under a
  hosted key skip GenA and the key-side forward FFTs in the worker
  too; hit/miss deltas ride back with each result and are aggregated
  parent-side into stats and trace tags;
* **per-worker warmup** — each worker's initializer builds its own
  GF log/antilog tables, ring FFT state and BCH parity matrix by
  running a one-operation roundtrip per configured parameter set, so
  no serving batch ever pays table construction;
* **supervision** — a worker crash (OOM-kill, segfault, chaos
  ``kill_worker``) breaks the pool; the supervisor detects
  ``BrokenProcessPool``, replaces the pool (at most
  :data:`DEFAULT_MAX_RESTARTS` times), counts the restart (surfaced as
  ``kem_worker_restarts_total``) and fails the in-flight batch with
  the typed :class:`repro.errors.WorkerCrashed` — which the service
  maps to the existing ``INTERNAL`` response;
* **graceful drain** — :meth:`close` stops intake, lets submitted
  batches finish on the supervisor threads (the backend's executor)
  and then shuts the worker pool down; idempotent.

Workers always start with ``spawn``: forking a process that already
runs pool threads (every server does) inherits locked mutexes and is
deprecated on modern CPythons.  Spawn start-up is paid once and can be
fronted with :meth:`~repro.backend.base.KemBackend.warmup`.  The pool
size is fixed at construction; it is the backend's
:attr:`~repro.backend.base.KemBackend.slots`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable

from repro.backend.base import KemBackend
from repro.batch.kem import (
    _annotate_cache,
    _decaps_chunk,
    _encaps_chunk,
    key_lanes,
    keygen_many,
)
from repro.errors import WorkerCrashed
from repro.lac.kem import KemKeyPair, KemSecretKey
from repro.lac.params import ALL_PARAMS, LacParams
from repro.lac.pke import PublicKey, ciphertext_blobs, ciphertext_rows
from repro.ring.cache import DEFAULT_CACHE_ENTRIES, KeyTransformCache
from repro.schemes import LAC_SCHEME, KemScheme, resolve

#: Smallest per-process sub-chunk worth the dispatch round trip; a
#: 64-op batch on 8 workers still lands at 8 ops per process.
MIN_CHUNK = 8

#: Bound on pool rebuilds after worker crashes; one more breaks the
#: backend for good.
DEFAULT_MAX_RESTARTS = 3


# ---------------------------------------------------------------------------
# worker-side code (everything below the pipe; each worker's engines are
# its own LAC_SCHEME.kem_for cache)
# ---------------------------------------------------------------------------

#: This worker's per-key transform cache.
_WORKER_CACHE = KeyTransformCache(DEFAULT_CACHE_ENTRIES)


def _worker_init(param_names: Sequence[str]) -> None:
    """Per-worker warmup: build this process's GF/ring/BCH tables.

    Runs in each worker as it spawns — a one-operation keygen/encaps/
    decaps roundtrip per configured parameter set touches every lazy
    table (GF(2^9) log/antilog, ring FFT twiddles, the BCH parity
    matrix), so serving batches never pay construction cost.
    """
    for name in param_names:
        kem = LAC_SCHEME.kem_for(resolve(name)[1])
        params = kem.params
        [pair] = keygen_many(kem, [b"\x2a" * (params.seed_bytes + 32)])
        rows, _ = _encaps_chunk(
            kem, [pair.public_key], [b"\x00" * params.message_bytes]
        )
        _decaps_chunk(kem, [pair.secret_key], rows)


def _worker_lanes(
    params_name: str,
    encaps: bool,
    key_blobs: list[bytes],
    lanes: list[int],
    payload: list[bytes],
) -> tuple[list[Any], tuple[int, int, int]]:
    """Run one chunk: lane ``i`` under ``key_blobs[lanes[i]]``.

    ENCAPS takes the messages and returns ``(ciphertext, shared)``
    pairs; DECAPS takes the wire ciphertexts and returns the shared
    secrets.  Either comes back with this worker's ``(hits, misses,
    evictions)`` cache delta.
    """
    kem = LAC_SCHEME.kem_for(resolve(params_name)[1])
    params = kem.params
    hydrate = PublicKey.from_bytes if encaps else KemSecretKey.from_bytes
    keys = [hydrate(params, blob) for blob in key_blobs]
    per_lane = [keys[k] for k in lanes]
    before = _WORKER_CACHE.counters()
    result: list[Any]
    if encaps:
        rows, shared = _encaps_chunk(kem, per_lane, payload, _WORKER_CACHE)
        result = list(zip(ciphertext_blobs(rows), shared))
    else:
        rows = ciphertext_rows(params, payload)
        result = _decaps_chunk(kem, per_lane, rows, _WORKER_CACHE)
    after = _WORKER_CACHE.counters()
    return result, (after[0] - before[0], after[1] - before[1], after[2] - before[2])


def _worker_keygen(
    params_name: str, seeds: list[bytes | None]
) -> list[tuple[bytes, bytes]]:
    return [
        (pair.public_key.to_bytes(), pair.secret_key.to_bytes())
        for pair in keygen_many(LAC_SCHEME.kem_for(resolve(params_name)[1]), seeds)
    ]


# ---------------------------------------------------------------------------
# parent-side supervisor
# ---------------------------------------------------------------------------


class ProcessBackend(KemBackend):
    """Batched KEM kernels on a supervised worker-process pool.

    ``workers`` sizes the pool (default: CPU count, capped at 8 — the
    kernels saturate memory bandwidth well before that on small
    hosts).  :data:`DEFAULT_MAX_RESTARTS` bounds pool rebuilds after
    crashes; beyond it the backend declares itself broken and fails
    fast.
    ``warm_params`` restricts the per-worker warmup to the parameter
    sets actually served (tests pass one set to keep spawn cheap).
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        warm_params: Sequence[LacParams] | None = None,
    ) -> None:
        # kernels run in the workers, each with its own transform
        # cache; a parent-side one would never be read
        super().__init__()
        self.transform_cache = None
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers or max(1, min(8, os.cpu_count() or 1))
        self._warm_names = tuple(
            p.name for p in (warm_params if warm_params is not None else ALL_PARAMS)
        )
        #: aggregated worker cache ``[hits, misses, evictions]``
        self._worker_counters = [0, 0, 0]
        self._pool_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        #: set once :meth:`close` has taken the pool: no pool after it
        self._pool_closed = False
        self._generation = 0
        self._restarts = 0
        self._broken = False
        # the executor is the supervisor threads: one per concurrently
        # in-flight batch — they fan chunks out, block on worker results
        # and collect the answers (and run the adapter of any scheme
        # with no process wire), so a couple above the worker count
        # keeps submission from queueing behind result collection
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers + 2,
            thread_name_prefix="repro-backend-sup",
        )

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> tuple[ProcessPoolExecutor, int]:
        with self._pool_lock:
            if self._pool_closed:
                # a batch still on a supervisor thread after
                # close(wait=False) must not respawn an unowned pool
                raise RuntimeError(f"{self.name} backend is closed")
            if self._broken:
                raise WorkerCrashed(
                    f"process backend exceeded {DEFAULT_MAX_RESTARTS} worker restarts"
                )
            if self._pool is None:
                # positionally: size, start method, initializer, its args
                self._pool = ProcessPoolExecutor(
                    self._workers,
                    multiprocessing.get_context("spawn"),
                    _worker_init,
                    (self._warm_names,),
                )
            return self._pool, self._generation

    @property
    def slots(self) -> int:
        """One batch per worker process."""
        return self._workers

    def _on_broken_pool(self, generation: int) -> None:
        """Replace a broken pool exactly once per crash incident.

        ``BrokenProcessPool`` fans out to every future of the incident;
        the generation check makes sure one crash costs one restart.
        """
        with self._pool_lock:
            if generation != self._generation:
                return  # a sibling batch already handled this incident
            self._generation += 1
            self._restarts += 1
            pool, self._pool = self._pool, None
            if self._restarts > DEFAULT_MAX_RESTARTS:
                self._broken = True
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _fan(
        self, fn: Callable[..., Any], calls: Sequence[tuple[Any, ...]]
    ) -> list[Any]:
        """Run ``fn(*args)`` per call tuple across the worker pool."""
        pool, generation = self._ensure_pool()
        try:
            futures = [pool.submit(fn, *args) for args in calls]
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self._on_broken_pool(generation)
            raise WorkerCrashed("kem worker process died mid-batch") from exc

    def _bounds(self, count: int) -> list[tuple[int, int]]:
        """``[lo, hi)`` of each chunk: at most one per worker, none
        smaller than :data:`MIN_CHUNK` unless the batch is."""
        chunks = max(1, min(self._workers, count // MIN_CHUNK))
        cuts = [count * i // chunks for i in range(chunks + 1)]
        return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]

    # -- the contract ---------------------------------------------------

    def _kernel(
        self,
        scheme: KemScheme,
        params: Any,
        op: str,
        pairs: list[Any] | None,
        batch: list[Any],
    ) -> list[Any]:
        """LAC batches fan out across the worker processes, one message
        per chunk whatever keys its lanes name; a scheme with no process
        wire runs its adapter here, on the supervisor thread — never on
        the submitter, which for a service is the event loop."""
        if scheme.name != "lac":
            return super()._kernel(scheme, params, op, pairs, batch)
        if pairs is None:
            # keygen: one keygen_many call per chunk
            calls = [
                (params.name, batch[lo:hi]) for lo, hi in self._bounds(len(batch))
            ]
            return [
                KemKeyPair(
                    PublicKey.from_bytes(params, pk_bytes),
                    KemSecretKey.from_bytes(params, sk_bytes),
                )
                for part in self._fan(_worker_keygen, calls)
                for pk_bytes, sk_bytes in part
            ]
        encaps = op == "ENCAPS"
        calls = []
        for lo, hi in self._bounds(len(batch)):
            keys, lanes = key_lanes(pairs[lo:hi])
            blobs = [
                (pair.public_key if encaps else pair.secret_key).to_bytes()
                for pair in keys
            ]
            calls.append((params.name, encaps, blobs, lanes, batch[lo:hi]))
        out: list[Any] = []
        for result, counters in self._fan(_worker_lanes, calls):
            self._merge_counters(counters)
            out.extend(result)
        return out

    def _merge_counters(self, counters: tuple[int, int, int]) -> None:
        """Aggregate one chunk's worker cache delta; hits and misses
        also land on the ambient trace-tag sink (the supervisor thread
        runs inside the service's kernel wrapper)."""
        with self._stats_lock:
            for i, count in enumerate(counters):
                self._worker_counters[i] += count
        _annotate_cache(counters[0], counters[1])

    # -- chaos + observability ------------------------------------------

    def kill_worker(self, sig: int = signal.SIGKILL) -> bool:
        """Kill one live worker process (the ``backend`` fault site).

        Returns ``False`` when no pool is up.  The next interaction
        with the broken pool surfaces :class:`WorkerCrashed` and the
        supervisor rebuilds it (counted in ``restarts``).
        """
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return False
        processes = getattr(pool, "_processes", None)
        if not processes:
            return False
        pid, process = next(iter(processes.items()))
        try:
            os.kill(pid, sig)
        except (ProcessLookupError, PermissionError):
            return False
        # wait for the death, so the next batch finds the pool broken
        # instead of racing the survivors to finish it first
        multiprocessing.connection.wait([process.sentinel], timeout=5.0)
        return True

    def stats(self) -> dict[str, Any]:
        """Submission counters plus worker-pool health and the
        aggregated worker cache counters."""
        out = super().stats()
        with self._pool_lock:
            out["restarts"] = self._restarts
            out["broken"] = self._broken
        with self._stats_lock:
            hits, misses, evictions = self._worker_counters
        # kernels run in the workers, so the meaningful transform-cache
        # counters are the aggregated per-worker ones, not the parent's
        out["transform_cache"] = {
            "capacity": DEFAULT_CACHE_ENTRIES,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "invalidations": 0,
            "scope": "workers",
        }
        return out

    def close(self, wait: bool = True) -> None:
        """Graceful drain: stop intake, finish in-flight batches, shut
        down both pools.

        With ``wait=False`` a batch whose chunks are not yet on the
        worker pool fails with ``RuntimeError`` instead of starting a
        new pool.
        """
        # the supervisor threads drain first (their batches still need
        # the worker pool), then the workers go down
        super().close(wait)
        with self._pool_lock:
            self._pool_closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
