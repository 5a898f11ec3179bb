"""The thread-pool backend (the default) and the process-wide default.

One submitted batch runs on one pool thread — the numpy/hashlib
kernels drop the GIL there, so neighbouring batches overlap.
:class:`ThreadBackend` wraps that model behind the
:class:`~repro.backend.base.KemBackend` contract;
:func:`default_thread_backend` is the process-wide shared instance
every service that sizes no pool of its own runs on.

A thread backend always owns its pool, and the pool's size is fixed
when the backend is built: it is the backend's
:attr:`~repro.backend.base.KemBackend.slots`, the number of batches
the serving layer lets run at once.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

from repro.backend.base import KemBackend, KernelWrapper

#: Thread count of a default-sized pool.  Capped: the kernels are
#: memory-bandwidth-bound well before 32 threads.
DEFAULT_THREAD_WORKERS = min(32, (os.cpu_count() or 4))


class ThreadBackend(KemBackend):
    """Run batched kernels on an owned pool of ``workers`` threads
    (default :data:`DEFAULT_THREAD_WORKERS`)."""

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self._slots = workers or DEFAULT_THREAD_WORKERS
        self._executor = ThreadPoolExecutor(
            max_workers=self._slots, thread_name_prefix="repro-backend"
        )

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The pool batches dispatch onto."""
        return self._executor

    @property
    def slots(self) -> int:
        """The pool's thread count."""
        return self._slots

    def _spawn(
        self, wrapper: KernelWrapper | None, work: Callable[[], Any]
    ) -> Future[Any]:
        return self._executor.submit(self._tracked, wrapper, work)

    def close(self, wait: bool = True) -> None:
        """Shut the pool down."""
        if self._closed:
            return
        super().close(wait)
        self._executor.shutdown(wait=wait)


class _SharedThreadBackend(ThreadBackend):
    """The process-wide default: lives for the life of the process.

    ``close()`` is deliberately a no-op — many services and batch
    callers share this instance (that sharing *is* the point), so no
    single owner may tear it down.
    """

    def close(self, wait: bool = True) -> None:
        """No-op: the shared default outlives any single user."""


_default_backend: _SharedThreadBackend | None = None
_default_backend_lock = threading.Lock()


def default_thread_backend() -> ThreadBackend:
    """The process-wide shared :class:`ThreadBackend` (created lazily).

    One pool of :data:`DEFAULT_THREAD_WORKERS` threads, reused by every
    service that does not configure its own backend.  Its
    :meth:`~ThreadBackend.close` is a no-op.
    """
    global _default_backend
    if _default_backend is None:
        with _default_backend_lock:
            if _default_backend is None:
                _default_backend = _SharedThreadBackend()
    return _default_backend
