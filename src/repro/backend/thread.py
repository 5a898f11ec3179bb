"""The thread-pool backend (the default) and the process-wide default.

One submitted batch runs on one pool thread — the numpy/hashlib
kernels drop the GIL there, so neighbouring batches overlap.
:class:`ThreadBackend` wraps that model behind the
:class:`~repro.backend.base.KemBackend` contract;
:func:`default_thread_backend` is the process-wide shared instance
(reuse matters: spawning a pool per call costs more than the fan-out
saves, which ``benchmarks/bench_throughput.py`` records as
``executor_reuse_speedup``).

``fan_out=N`` additionally splits each submitted batch across ``N``
threads of a backend-owned inner pool (two levels, so dispatch and
fan-out cannot deadlock) — the old ``kernel_workers`` service knob.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from typing import Any

from repro.backend.base import KemBackend, KernelWrapper, run_op
from repro.batch.kem import _fan_out
from repro.schemes import KemScheme

#: Thread count of a default-sized pool.  Capped: the kernels are
#: memory-bandwidth-bound well before 32 threads.
DEFAULT_THREAD_WORKERS = min(32, (os.cpu_count() or 4))


class ThreadBackend(KemBackend):
    """Run batched kernels on a thread pool.

    ``executor`` borrows an existing pool (never shut down by
    :meth:`close`); otherwise the backend owns a fresh pool of
    ``workers`` threads (default :data:`DEFAULT_THREAD_WORKERS`).
    ``fan_out`` > 1 splits every batch across that many threads of a
    separate backend-owned inner pool.
    """

    name = "thread"

    def __init__(
        self,
        executor: Executor | None = None,
        workers: int | None = None,
        fan_out: int | None = None,
        cache_entries: int | None = None,
    ) -> None:
        super().__init__(cache_entries=cache_entries)
        if executor is not None and workers is not None:
            raise ValueError("pass either executor= or workers=, not both")
        self._owns_executor = executor is None
        self._executor: Executor = (
            executor
            if executor is not None
            else ThreadPoolExecutor(
                max_workers=workers or DEFAULT_THREAD_WORKERS,
                thread_name_prefix="repro-backend",
            )
        )
        self._fan_out = fan_out if fan_out is not None and fan_out > 1 else None
        self._fan_pool = (
            ThreadPoolExecutor(
                max_workers=self._fan_out, thread_name_prefix="repro-backend-fan"
            )
            if self._fan_out
            else None
        )
        # a borrowed pool's size is read off it (every ``concurrent.futures``
        # pool records one); only an executor that keeps none is guessed at
        self._pool_workers: int = (
            workers or DEFAULT_THREAD_WORKERS
            if executor is None
            else getattr(executor, "_max_workers", DEFAULT_THREAD_WORKERS)
        )
        self._resize_lock = threading.Lock()

    @property
    def executor(self) -> Executor:
        """The pool batches dispatch onto (borrowed or owned)."""
        return self._executor

    @property
    def workers(self) -> int | None:
        """Owned-pool size (``None`` for a borrowed executor)."""
        return self._pool_workers if self._owns_executor else None

    @property
    def slots(self) -> int:
        """The pool's thread count, borrowed pools included."""
        return self._pool_workers

    def resize(self, workers: int) -> bool:
        """Swap in a pool of ``workers`` threads (owned pools only).

        The old pool is shut down without waiting — batches already
        queued on it still run to completion; only *new* submissions
        land on the fresh pool.  Borrowed executors (and the shared
        default backend) are never resized.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not self._owns_executor or self._closed:
            return False
        with self._resize_lock:
            if workers == self._pool_workers:
                return True
            old = self._executor
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-backend"
            )
            self._pool_workers = workers
        assert isinstance(old, ThreadPoolExecutor)
        old.shutdown(wait=False)
        return True

    def _spawn(
        self, wrapper: KernelWrapper | None, work: Callable[[], Any]
    ) -> Future[Any]:
        try:
            return self._executor.submit(self._tracked, wrapper, work)
        except RuntimeError:
            # lost a race with resize(): the attribute read and the
            # submit straddled the pool swap — one retry lands on the
            # replacement (close() re-raises via _check_open)
            self._check_open()
            return self._executor.submit(self._tracked, wrapper, work)

    def _kernel(
        self,
        scheme: KemScheme,
        params: Any,
        op: str,
        pairs: list[Any] | None,
        batch: list[Any],
    ) -> list[Any]:
        """The adapter, chunked over the batch's lanes when ``fan_out``
        is set."""
        cache = self.transform_cache

        def run_chunk(lanes: list[int]) -> list[Any]:
            return run_op(
                scheme,
                params,
                op,
                None if pairs is None else [pairs[i] for i in lanes],
                [batch[i] for i in lanes],
                cache,
            )

        return _fan_out(
            run_chunk, list(range(len(batch))), self._fan_out, self._fan_pool
        )

    def stats(self) -> dict[str, Any]:
        """Submission counters plus the pool size."""
        out = super().stats()
        out["workers"] = self._pool_workers if self._owns_executor else None
        out["fan_out"] = self._fan_out
        return out

    def close(self, wait: bool = True) -> None:
        """Shut down owned pools (borrowed executors are left running)."""
        if self._closed:
            return
        super().close(wait)
        if self._fan_pool is not None:
            self._fan_pool.shutdown(wait=wait)
        if self._owns_executor:
            assert isinstance(self._executor, ThreadPoolExecutor)
            self._executor.shutdown(wait=wait)


class _SharedThreadBackend(ThreadBackend):
    """The process-wide default: lives for the life of the process.

    ``close()`` is deliberately a no-op — many services and batch
    callers share this instance (that sharing *is* the point), so no
    single owner may tear it down.
    """

    def close(self, wait: bool = True) -> None:
        """No-op: the shared default outlives any single user."""

    @property
    def workers(self) -> int | None:
        """``None``: the shared pool is not any one service's to size."""
        return None

    def resize(self, workers: int) -> bool:
        """Declined: many services share this pool, so no single
        autoscaler may resize it (configure ``backend_workers`` to get
        a privately owned, resizable pool)."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        return False


_default_backend: _SharedThreadBackend | None = None
_default_backend_lock = threading.Lock()


def default_thread_backend() -> ThreadBackend:
    """The process-wide shared :class:`ThreadBackend` (created lazily).

    One pool of :data:`DEFAULT_THREAD_WORKERS` threads, reused by every
    ``workers=N`` batch call and every service that does not configure
    its own backend.  Its :meth:`~ThreadBackend.close` is a no-op.
    """
    global _default_backend
    if _default_backend is None:
        with _default_backend_lock:
            if _default_backend is None:
                _default_backend = _SharedThreadBackend()
    return _default_backend
