"""The synchronous backend: kernels run in the caller's thread.

No pools, no handoffs, no concurrency — ``submit`` executes the
batch before returning an already-resolved future.  This is the
backend for tests that want determinism, for debugging (stack traces
end in your frame), and for cycle-model workflows where wall-clock
parallelism would only add noise.  It is also the degenerate case that
keeps the :class:`~repro.backend.base.KemBackend` contract honest:
everything that works here must work identically on the pooled
backends.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import Future
from typing import Any

from repro.backend.base import KemBackend, KernelWrapper


class InlineBackend(KemBackend):
    """Run batched kernels synchronously in the submitting thread."""

    name = "inline"

    def _spawn(
        self, wrapper: KernelWrapper | None, work: Callable[[], Any]
    ) -> Future[Any]:
        future: Future[Any] = Future()
        try:
            future.set_result(self._tracked(wrapper, work))
        except BaseException as exc:  # noqa: BLE001 - surfaced via the future
            future.set_exception(exc)
        return future
