"""Pluggable execution backends for batched LAC KEM kernels.

Where batched kernels *execute* is a deployment decision, not an API
one — this package pins the contract (:class:`KemBackend`) and ships
four implementations:

============  =========================================================
``inline``    :class:`InlineBackend` — synchronous, caller's thread
``thread``    :class:`ThreadBackend` — pool threads (the default;
              one process-wide pool, ``default_thread_backend()``)
``process``   :class:`ProcessBackend` — supervised worker processes
              (GIL-free, per-worker warmup, bounded crash restart)
``cosim``     :class:`CosimBackend` — the simulated ISE core: annotated
              scalar drivers with per-request cycle counting, priced
              by the calibrated Table I/II model
============  =========================================================

Select by name with :func:`create_backend`, by configuration with
``ServiceConfig(backend=...)``, or globally with the
``REPRO_KEM_BACKEND`` environment variable.  All backends produce
results bit-identical to the scalar :class:`repro.lac.LacKem`.
"""

from repro.backend.base import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    KemBackend,
    KernelWrapper,
    create_backend,
    resolve_backend_name,
)
from repro.backend.cosim import (
    COSIM_PROFILE_ENV_VAR,
    DEFAULT_COSIM_PROFILE,
    CosimBackend,
    model_cycles,
)
from repro.backend.inline import InlineBackend
from repro.backend.process import ProcessBackend
from repro.backend.thread import (
    DEFAULT_THREAD_WORKERS,
    ThreadBackend,
    default_thread_backend,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "COSIM_PROFILE_ENV_VAR",
    "CosimBackend",
    "DEFAULT_BACKEND",
    "DEFAULT_COSIM_PROFILE",
    "DEFAULT_THREAD_WORKERS",
    "InlineBackend",
    "KemBackend",
    "KernelWrapper",
    "ProcessBackend",
    "ThreadBackend",
    "create_backend",
    "default_thread_backend",
    "model_cycles",
    "resolve_backend_name",
]
