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

* **ships what it has a wire for** — LAC batches cross the pipe as the
  wire bytes :meth:`~repro.backend.base.KemBackend.submit` already
  speaks (no ``Ciphertext``/``EncapsResult`` is re-hydrated
  parent-side), one pair's lanes at a time — the wire is per key; a
  scheme with no process wire runs its adapter on the
  supervisor threads instead — off the submitting thread, on the
  parent's interpreter;
* **zero-copy wire** — bulk payloads (ciphertext blobs down for
  decapsulation, ciphertext + shared-secret pairs back up for
  encapsulation) travel through pooled shared-memory segments
  (:mod:`repro.backend.shm`); the pipe carries only a segment name
  and a count.  Fixed per-parameter-set sizes make every offset
  computable on both sides.  When shared memory is unusable — at
  construction (:func:`~repro.backend.shm.shm_available`) or at run
  time — the backend falls back to the original pickled-``bytes`` wire;
* **ship-once key material** — workers keep a fingerprint-addressed
  cache of hydrated keys, so a hosted key's serialized blob crosses
  the pipe roughly once per worker; later calls send the 16-byte
  fingerprint.  A worker that restarted (and lost its cache) raises
  the picklable :class:`WorkerKeyMiss` and the parent retries that
  chunk with the full blob — correctness never depends on the
  bookkeeping being right;
* **per-worker transform cache** — each worker owns a
  :class:`repro.ring.KeyTransformCache`, so repeated batches under a
  hosted key skip GenA and the key-side forward FFTs in the worker
  too; hit/miss deltas ride back piggybacked on each result and are
  aggregated parent-side into stats and trace tags;
* **per-worker warmup** — each worker's initializer builds its own
  GF log/antilog tables, ring FFT state and BCH parity matrix by
  running a one-operation roundtrip per configured parameter set, so
  no serving batch ever pays table construction;
* **supervision** — a worker crash (OOM-kill, segfault, chaos
  ``kill_worker``) breaks the pool; the supervisor detects
  ``BrokenProcessPool``, replaces the pool (bounded by
  ``max_restarts``), counts the restart (surfaced as
  ``kem_worker_restarts_total``) and fails the in-flight batch with
  the typed :class:`repro.errors.WorkerCrashed` — which the service
  maps to the existing ``INTERNAL`` response.  Shared-memory segments
  are parent-owned, survive the restart, and are reused by the new
  pool;
* **graceful drain** — :meth:`close` stops intake, lets submitted
  batches finish, shuts both pools down, then unlinks every
  shared-memory segment; idempotent.

Workers always start with ``spawn``: forking a process that already
runs pool threads (every server does) inherits locked mutexes and is
deprecated on modern CPythons.  Spawn start-up is paid once and can be
fronted with :meth:`~repro.backend.base.KemBackend.warmup`.  The pool
size is fixed at construction; it is the backend's
:attr:`~repro.backend.base.KemBackend.slots`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable

import numpy as np

from repro.backend.base import KemBackend, KernelWrapper
from repro.backend.shm import Segment, SegmentPool, attach_segment, shm_available
from repro.batch.kem import (
    _annotate_cache,
    _decaps_chunk,
    _encaps_chunk,
    _row_bytes,
    wire_rows,
)
from repro.errors import WorkerCrashed
from repro.lac.kem import KemKeyPair, KemSecretKey, LacKem
from repro.lac.params import ALL_PARAMS, LacParams
from repro.lac.pke import PublicKey
from repro.ring.cache import DEFAULT_CACHE_ENTRIES, KeyTransformCache, fingerprint
from repro.schemes import KemScheme
from repro.schemes.base import per_pair

#: Smallest per-process sub-chunk worth the dispatch round trip; a
#: 64-op batch on 8 workers still lands at 8 ops per process.
MIN_CHUNK = 8

#: Default bound on pool rebuilds after worker crashes.
DEFAULT_MAX_RESTARTS = 3

#: Bytes of shared secret per encapsulation result on the wire.
_SHARED_BYTES = 32

#: Hydrated keys a worker retains (LRU); key blobs are ~1 KiB so this
#: bounds the worker key cache around a megabyte.
_WORKER_KEY_LIMIT = 1024

#: Entries in the parent's ship-once table before the oldest are
#: forgotten (forgetting is safe: the worker-side miss retry recovers).
_SHIP_TABLE_LIMIT = 4096


class WorkerKeyMiss(RuntimeError):
    """A fingerprint-only key reference missed the worker's key cache.

    Raised worker-side, pickled back to the parent, which retries the
    chunk with the full key blob attached.  Routine after a worker
    restart (fresh interpreters have empty caches) — never an error
    the caller sees.
    """

    def __init__(self, fp: bytes) -> None:
        super().__init__(f"worker key cache miss for {fp.hex()}")
        self.fp = fp

    def __reduce__(self) -> tuple[Any, tuple[bytes]]:
        return (WorkerKeyMiss, (self.fp,))


def _params_by_name(name: str) -> LacParams:
    for params in ALL_PARAMS:
        if params.name == name:
            return params
    raise KeyError(f"unknown parameter set {name!r}")


# ---------------------------------------------------------------------------
# worker-side code (everything below the pipe)
# ---------------------------------------------------------------------------

_WORKER_KEMS: dict[str, LacKem] = {}

#: Fingerprint-addressed LRU of hydrated key objects (ship-once wire).
_WORKER_KEYS: OrderedDict[bytes, Any] = OrderedDict()

#: This worker's per-key transform cache (sized by the initializer).
_WORKER_CACHE: KeyTransformCache | None = None


def _worker_kem(params_name: str) -> LacKem:
    kem = _WORKER_KEMS.get(params_name)
    if kem is None:
        kem = _WORKER_KEMS[params_name] = LacKem(_params_by_name(params_name))
    return kem


def _worker_init(param_names: Sequence[str], cache_entries: int) -> None:
    """Per-worker warmup: build this process's GF/ring/BCH tables.

    Runs in each worker as it spawns — a one-operation keygen/encaps/
    decaps roundtrip per configured parameter set touches every lazy
    table (GF(2^9) log/antilog, ring FFT twiddles, the BCH parity
    matrix), so serving batches never pay construction cost.  Also
    creates the worker's transform cache (``cache_entries == 0``
    disables caching).
    """
    global _WORKER_CACHE
    _WORKER_CACHE = (
        KeyTransformCache(cache_entries) if cache_entries > 0 else None
    )
    for name in param_names:
        kem = _worker_kem(name)
        params = kem.params
        pair = kem.keygen(b"\x2a" * (params.seed_bytes + 32))
        rows, _ = _encaps_chunk(
            kem, [pair.public_key], [b"\x00" * params.message_bytes]
        )
        _decaps_chunk(kem, [pair.secret_key], rows)


def _resolve_key(
    kind: str, params_name: str, key_ref: tuple[str, bytes, bytes | None]
) -> tuple[Any, bool]:
    """Hydrate (or recall) a key from its wire reference.

    ``key_ref`` is ``(kind, fingerprint, blob-or-None)``.  Returns the
    hydrated object and whether it was a cache hit; raises
    :class:`WorkerKeyMiss` when a fingerprint-only reference finds an
    empty slot (the parent retries with the blob).
    """
    ref_kind, fp, blob = key_ref
    if ref_kind != kind:  # pragma: no cover - parent always matches
        raise ValueError(f"expected a {kind} reference, got {ref_kind}")
    cached = _WORKER_KEYS.get(fp)
    if cached is not None:
        _WORKER_KEYS.move_to_end(fp)
        return cached, True
    if blob is None:
        raise WorkerKeyMiss(fp)
    params = _worker_kem(params_name).params
    obj: Any = (
        PublicKey.from_bytes(params, blob)
        if kind == "pk"
        else KemSecretKey.from_bytes(params, blob)
    )
    _WORKER_KEYS[fp] = obj
    while len(_WORKER_KEYS) > _WORKER_KEY_LIMIT:
        _WORKER_KEYS.popitem(last=False)
    return obj, False


def _cache_counters() -> tuple[int, int, int]:
    return _WORKER_CACHE.counters() if _WORKER_CACHE is not None else (0, 0, 0)


def _stats_delta(before: tuple[int, int, int], key_hit: bool) -> dict[str, int]:
    """The piggyback stats envelope returned with every kernel result."""
    after = _cache_counters()
    return {
        "cache_hits": after[0] - before[0],
        "cache_misses": after[1] - before[1],
        "cache_evictions": after[2] - before[2],
        "key_hits": int(key_hit),
    }


def _worker_encaps(
    params_name: str,
    key_ref: tuple[str, bytes, bytes | None],
    messages: list[bytes],
    out_seg: str | None,
) -> tuple[Any, dict[str, int]]:
    """Encapsulate a chunk; results go to shared memory when offered.

    With ``out_seg`` the layout is the kernel's ciphertext rows, then
    the shared secrets, and the payload is just the count; without it
    (bytes wire) the payload is the pickled ``(ct, shared)`` pairs.
    """
    kem = _worker_kem(params_name)
    pk, key_hit = _resolve_key("pk", params_name, key_ref)
    before = _cache_counters()
    rows, shared = _encaps_chunk(kem, [pk] * len(messages), messages, _WORKER_CACHE)
    stats = _stats_delta(before, key_hit)
    if out_seg is None:
        return list(zip(_row_bytes(rows), shared)), stats
    segment = attach_segment(out_seg)
    try:
        buf = segment.buf
        split = rows.size
        buf[:split] = memoryview(rows).cast("B")  # one copy of the block
        buf[split : split + _SHARED_BYTES * len(shared)] = b"".join(shared)
    finally:
        segment.close()
    return len(shared), stats


def _worker_decaps(
    params_name: str,
    key_ref: tuple[str, bytes, bytes | None],
    ct_blobs: list[bytes] | None,
    in_seg: tuple[str, int] | None,
) -> tuple[list[bytes], dict[str, int]]:
    """Decapsulate a chunk; ciphertexts arrive via shared memory when
    ``in_seg`` names a segment (the rows, ``ciphertext_bytes`` each)."""
    kem = _worker_kem(params_name)
    params = kem.params
    keys, key_hit = _resolve_key("sk", params_name, key_ref)
    if in_seg is not None:
        seg_name, count = in_seg
        segment = attach_segment(seg_name)
        try:
            # one copy out of the segment, straight into the row block
            rows = np.frombuffer(
                bytes(segment.buf[: count * params.ciphertext_bytes]), dtype=np.uint8
            ).reshape(count, params.ciphertext_bytes)
        finally:
            segment.close()
    else:
        assert ct_blobs is not None
        rows = wire_rows(params, ct_blobs)
    before = _cache_counters()
    shared = _decaps_chunk(kem, [keys] * len(rows), rows, _WORKER_CACHE)
    return shared, _stats_delta(before, key_hit)


def _worker_keygen(
    params_name: str, seeds: list[bytes | None]
) -> list[tuple[bytes, bytes]]:
    kem = _worker_kem(params_name)
    out = []
    for seed in seeds:
        pair = kem.keygen(seed)
        out.append((pair.public_key.to_bytes(), pair.secret_key.to_bytes()))
    return out


def _worker_pid() -> int:
    return os.getpid()


# ---------------------------------------------------------------------------
# parent-side supervisor
# ---------------------------------------------------------------------------


class ProcessBackend(KemBackend):
    """Batched KEM kernels on a supervised worker-process pool.

    ``workers`` sizes the pool (default: CPU count, capped at 8 — the
    kernels saturate memory bandwidth well before that on small
    hosts).  ``warm_params`` restricts the per-worker warmup to the
    parameter sets actually served (tests pass one set to keep spawn
    cheap).  ``max_restarts`` bounds pool rebuilds after crashes;
    beyond it the backend declares itself broken and fails fast.
    ``cache_entries`` sizes each worker's per-key transform cache
    (``0`` disables it).  Payloads travel through shared memory when
    the host supports it, as pickled bytes otherwise.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        warm_params: Sequence[LacParams] | None = None,
        min_chunk: int = MIN_CHUNK,
        cache_entries: int | None = None,
    ) -> None:
        # kernels run in the workers, each with its own transform cache
        # (sized below); a parent-side one would never be read
        super().__init__(cache_entries=0)
        self._workers = workers or max(1, min(8, os.cpu_count() or 1))
        self._max_restarts = max_restarts
        self._min_chunk = max(1, min_chunk)
        self._warm_names = tuple(
            p.name for p in (warm_params if warm_params is not None else ALL_PARAMS)
        )
        self._cache_entries = (
            0 if cache_entries == 0 else (cache_entries or DEFAULT_CACHE_ENTRIES)
        )
        self._use_shm = shm_available()
        self._segments = SegmentPool()
        self._ship_lock = threading.Lock()
        self._shipped: OrderedDict[bytes, int] = OrderedDict()
        self._worker_stats = {
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "key_hits": 0,
            "key_ships": 0,
            "key_miss_retries": 0,
        }
        self._pool_lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._generation = 0
        self._restarts = 0
        self._broken = False
        # supervisor threads: one per concurrently in-flight batch —
        # they fan chunks out, block on worker results and collect the
        # answers (and run the adapter of any scheme with no process
        # wire), so a couple above the worker count keeps submission
        # from queueing behind result collection
        self._supervisor = ThreadPoolExecutor(
            max_workers=self._workers + 2,
            thread_name_prefix="repro-backend-sup",
        )

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> tuple[ProcessPoolExecutor, int]:
        with self._pool_lock:
            if self._broken:
                raise WorkerCrashed(
                    f"process backend exceeded {self._max_restarts} worker restarts"
                )
            if self._pool is None:
                # positionally: size, start method, initializer, its args
                self._pool = ProcessPoolExecutor(
                    self._workers,
                    multiprocessing.get_context("spawn"),
                    _worker_init,
                    (self._warm_names, self._cache_entries),
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
        The ship-once table resets too — the replacement workers spawn
        with empty key caches.  Shared-memory segments are parent-owned
        and survive for the next pool.
        """
        with self._pool_lock:
            if generation != self._generation:
                return  # a sibling batch already handled this incident
            self._generation += 1
            self._restarts += 1
            pool, self._pool = self._pool, None
            if self._restarts > self._max_restarts:
                self._broken = True
        with self._ship_lock:
            self._shipped.clear()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- ship-once key wire ---------------------------------------------

    def _key_ref(
        self, kind: str, fp: bytes, blob: bytes
    ) -> tuple[str, bytes, bytes | None]:
        """Build a wire key reference, shipping the blob until every
        worker has plausibly seen it (the miss retry covers the rest)."""
        with self._ship_lock:
            count = self._shipped.get(fp, 0)
            if count >= self._workers:
                return (kind, fp, None)
            self._shipped[fp] = count + 1
            self._shipped.move_to_end(fp)
            while len(self._shipped) > _SHIP_TABLE_LIMIT:
                self._shipped.popitem(last=False)
        with self._stats_lock:
            self._worker_stats["key_ships"] += 1
        return (kind, fp, blob)

    def _note_retry(self, fp: bytes) -> None:
        with self._ship_lock:
            self._shipped[fp] = self._shipped.get(fp, 0) + 1
            self._shipped.move_to_end(fp)
        with self._stats_lock:
            self._worker_stats["key_miss_retries"] += 1
            self._worker_stats["key_ships"] += 1

    def _merge_worker_stats(self, stats: dict[str, int]) -> None:
        """Aggregate a piggybacked stats envelope; cache counters also
        land on the ambient trace-tag sink (the supervisor thread runs
        inside the service's kernel wrapper)."""
        with self._stats_lock:
            for key in ("cache_hits", "cache_misses", "cache_evictions", "key_hits"):
                self._worker_stats[key] += stats.get(key, 0)
        _annotate_cache(stats.get("cache_hits", 0), stats.get("cache_misses", 0))

    # -- segment plumbing ------------------------------------------------

    def _acquire_segment(self, nbytes: int) -> Segment | None:
        """A pooled segment, or ``None`` on the bytes wire (including
        after a runtime shared-memory failure, which disables shm)."""
        if not self._use_shm:
            return None
        try:
            return self._segments.acquire(nbytes)
        except (OSError, RuntimeError):
            self._use_shm = False
            return None

    def _release_segments(self, segments: Sequence[Segment | None]) -> None:
        for segment in segments:
            if segment is not None:
                self._segments.release(segment)

    def _fan(
        self,
        fn: Callable[..., Any],
        calls: Sequence[tuple[Any, ...]],
        reship: Callable[[tuple[Any, ...]], tuple[Any, ...]] | None = None,
    ) -> list[Any]:
        """Run ``fn(*args)`` per call tuple across the worker pool.

        ``reship`` rebuilds a call with the full key blob attached; it
        handles the :class:`WorkerKeyMiss` a restarted (or LRU-evicted)
        worker raises for fingerprint-only references.
        """
        pool, generation = self._ensure_pool()
        try:
            futures = [pool.submit(fn, *args) for args in calls]
            out = []
            for future, args in zip(futures, calls):
                try:
                    out.append(future.result())
                except WorkerKeyMiss as miss:
                    if reship is None:
                        raise
                    self._note_retry(miss.fp)
                    out.append(pool.submit(fn, *reship(args)).result())
            return out
        except BrokenProcessPool as exc:
            self._on_broken_pool(generation)
            raise WorkerCrashed("kem worker process died mid-batch") from exc

    def _chunk(self, items: list[Any]) -> list[list[Any]]:
        chunks = max(1, min(self._workers, len(items) // self._min_chunk))
        bounds = [len(items) * i // chunks for i in range(chunks + 1)]
        return [
            items[bounds[i] : bounds[i + 1]]
            for i in range(chunks)
            if bounds[i] < bounds[i + 1]
        ]

    def _spawn(
        self, wrapper: KernelWrapper | None, work: Callable[[], Any]
    ) -> Future[Any]:
        return self._supervisor.submit(self._tracked, wrapper, work)

    # -- the contract ---------------------------------------------------

    def _kernel(
        self,
        scheme: KemScheme,
        params: Any,
        op: str,
        pairs: list[Any] | None,
        batch: list[Any],
    ) -> list[Any]:
        """LAC batches fan out across the worker processes, one pair's
        lanes per trip over the per-key wire; a scheme with no process
        wire runs its adapter here, on the supervisor thread — never on
        the submitter, which for a service is the event loop."""
        if scheme.name != "lac":
            return super()._kernel(scheme, params, op, pairs, batch)
        if pairs is not None:
            encaps = op == "ENCAPS"
            return per_pair(
                pairs,
                batch,
                lambda pair, items: self._ship(
                    params,
                    "pk" if encaps else "sk",
                    (pair.public_key if encaps else pair.secret_key).to_bytes(),
                    items,
                ),
            )
        # keygen stays on the bytes wire: batches are rare, small, and
        # dominated by sampling rather than serialization
        calls = [(params.name, chunk) for chunk in self._chunk(batch)]
        return [
            KemKeyPair(
                PublicKey.from_bytes(params, pk_bytes),
                KemSecretKey.from_bytes(params, sk_bytes),
            )
            for part in self._fan(_worker_keygen, calls)
            for pk_bytes, sk_bytes in part
        ]

    def _ship(
        self, params: LacParams, kind: str, key_blob: bytes, batch: list[bytes]
    ) -> list[Any]:
        """One ENCAPS (``kind="pk"``) or DECAPS (``"sk"``) batch, split
        across worker processes, wire bytes in and out.

        The bulky side — the ciphertext rows and then the shared
        secrets up for encapsulation, the ciphertext rows down for
        decapsulation — goes through one pooled shared-memory segment
        per chunk, one copy each way; the 32-byte side rides the pipe.
        """
        encaps = kind == "pk"
        fp = fingerprint(b"wire-" + kind.encode(), params.name.encode(), key_blob)
        ct_len = params.ciphertext_bytes
        item_bytes = ct_len + _SHARED_BYTES if encaps else ct_len
        worker_fn = _worker_encaps if encaps else _worker_decaps

        def reship(args: tuple[Any, ...]) -> tuple[Any, ...]:
            return (args[0], (kind, fp, key_blob), args[2], args[3])

        chunks = self._chunk(batch)
        segments = [self._acquire_segment(len(chunk) * item_bytes) for chunk in chunks]
        try:
            calls = []
            for chunk, segment in zip(chunks, segments):
                key_ref = self._key_ref(kind, fp, key_blob)
                if segment is None:
                    calls.append((params.name, key_ref, chunk, None))
                elif encaps:
                    calls.append((params.name, key_ref, chunk, segment.name))
                else:
                    segment.buf[: len(chunk) * item_bytes] = b"".join(chunk)
                    calls.append(
                        (params.name, key_ref, None, (segment.name, len(chunk)))
                    )
            out: list[Any] = []
            for (payload, stats), segment in zip(
                self._fan(worker_fn, calls, reship), segments
            ):
                self._merge_worker_stats(stats)
                if not encaps or segment is None:
                    out.extend(payload)
                    continue
                # one copy out: the ciphertext rows, then the secrets
                data = bytes(segment.buf[: payload * item_bytes])
                split = payload * ct_len
                out.extend(
                    zip(
                        [data[i : i + ct_len] for i in range(0, split, ct_len)],
                        [
                            data[i : i + _SHARED_BYTES]
                            for i in range(split, len(data), _SHARED_BYTES)
                        ],
                    )
                )
            return out
        finally:
            self._release_segments(segments)

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
        pid = next(iter(processes))
        try:
            os.kill(pid, sig)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def stats(self) -> dict[str, Any]:
        """Submission counters plus worker-pool health, the aggregated
        worker cache counters, and the shared-memory wire state."""
        out = super().stats()
        with self._pool_lock:
            out["restarts"] = self._restarts
            out["broken"] = self._broken
        with self._stats_lock:
            worker_stats = dict(self._worker_stats)
        # kernels run in the workers, so the meaningful transform-cache
        # counters are the aggregated per-worker ones, not the parent's
        out["transform_cache"] = (
            {
                "capacity": self._cache_entries,
                "hits": worker_stats["cache_hits"],
                "misses": worker_stats["cache_misses"],
                "evictions": worker_stats["cache_evictions"],
                "invalidations": 0,
                "scope": "workers",
            }
            if self._cache_entries
            else None
        )
        out["worker_keys"] = {
            "hits": worker_stats["key_hits"],
            "ships": worker_stats["key_ships"],
            "miss_retries": worker_stats["key_miss_retries"],
        }
        out["shm"] = {"enabled": self._use_shm, **self._segments.stats()}
        return out

    def close(self, wait: bool = True) -> None:
        """Graceful drain: stop intake, finish in-flight batches, shut
        down both pools, then unlink every shared-memory segment."""
        if self._closed:
            return
        super().close(wait)
        # the supervisor drains first (its tasks still need the worker
        # pool), then the workers go down
        self._supervisor.shutdown(wait=wait)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        self._segments.close()
