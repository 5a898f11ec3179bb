"""Pluggable execution backends for batched LAC KEM kernels.

Where batched kernels *execute* is a deployment decision, not an API
one — this package pins the contract (:class:`KemBackend`) and ships
four implementations:

============  =========================================================
``inline``    :class:`InlineBackend` — synchronous, caller's thread
``thread``    :class:`ThreadBackend` — pool threads (the default)
``process``   :class:`ProcessBackend` — supervised worker processes
              (GIL-free, per-worker warmup, bounded crash restart)
``cosim``     :class:`CosimBackend` — the simulated ISE core: annotated
              scalar drivers with per-request cycle counting, priced
              by the calibrated Table I/II model
============  =========================================================

Select by name with :func:`create_backend`, or by configuration with
``ServiceConfig(backend=...)``; every backend owns its executor and
shuts it down in :meth:`KemBackend.close`.  A batch reaches any of
them only through :meth:`KemBackend.submit`.  All backends produce results
bit-identical to the scalar :class:`repro.lac.LacKem`.
"""

from repro.backend.base import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    KemBackend,
    KernelWrapper,
    check_backend_name,
    create_backend,
)
from repro.backend.cosim import (
    DEFAULT_COSIM_PROFILE,
    CosimBackend,
    model_cycles,
)
from repro.backend.inline import InlineBackend
from repro.backend.process import ProcessBackend
from repro.backend.thread import DEFAULT_THREAD_WORKERS, ThreadBackend

__all__ = [
    "BACKEND_NAMES",
    "CosimBackend",
    "DEFAULT_BACKEND",
    "DEFAULT_COSIM_PROFILE",
    "DEFAULT_THREAD_WORKERS",
    "InlineBackend",
    "KemBackend",
    "KernelWrapper",
    "ProcessBackend",
    "ThreadBackend",
    "check_backend_name",
    "create_backend",
    "model_cycles",
]
