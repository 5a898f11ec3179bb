"""The thread-pool backend (the default).

One submitted batch runs on one pool thread — the numpy/hashlib
kernels drop the GIL there, so neighbouring batches overlap.
:class:`ThreadBackend` wraps that model behind the
:class:`~repro.backend.base.KemBackend` contract.

A thread backend always owns its pool, and the pool's size is fixed
when the backend is built: it is the backend's
:attr:`~repro.backend.base.KemBackend.slots`, the number of batches
the serving layer lets run at once.  A service that names no backend
builds one of :data:`DEFAULT_THREAD_WORKERS` threads and closes it at
shutdown.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from repro.backend.base import KemBackend

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
    def slots(self) -> int:
        """The pool's thread count."""
        return self._slots
