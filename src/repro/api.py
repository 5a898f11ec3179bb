"""The stable public facade of the repro package.

One import site for everything a *user* of the stack needs — the KEM
and its parameter sets, the batched fast path, the execution backends,
the service with its clients and configuration, tracing, fault plans
and the unified error hierarchy::

    from repro.api import (
        LAC_128, LacKem,                       # the KEM itself
        resolve, ParamId, KemScheme,           # the scheme registry
        ServiceConfig, ThreadedService,        # serving
        TenantQuota,                           # multi-tenancy
        KemClient, RetryPolicy,                # clients
        create_backend, ProcessBackend,        # execution backends
        KemError,                              # catch-all error base
    )

Key registration and dispatch are scheme-aware: anywhere the stack
accepts a parameter spec (``ThreadedService.add_keypair``, client
``keygen``/``encaps``/``decaps``, ``resolve`` itself), a ``ParamId``
such as ``ParamId(SchemeId.NEWHOPE, 1, "NewHope1024")``, a registered
params object (``LAC_128``, ``NEWHOPE_1024``), a parameter-set name
(case-sensitive: ``"LAC-256"``, ``"NewHope1024"``) or a wire id
(``0x11``) all work.  Bare ``LacParams`` values keep working
unchanged — they resolve to the registered LAC scheme.

Internal modules (``repro.serve.server``, ``repro.backend.base``, …)
remain importable but are *not* part of the stable surface — prefer
this facade in application code, as ``examples/kem_service.py`` does.
"""

from repro.backend import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    CosimBackend,
    InlineBackend,
    KemBackend,
    ProcessBackend,
    ThreadBackend,
    check_backend_name,
    create_backend,
)
from repro.errors import (
    BackendError,
    BadRequest,
    DeadlineExceeded,
    InjectedFault,
    KemError,
    KeyNotFound,
    ProtocolError,
    RequestTimedOut,
    ServiceBusy,
    ServiceClosed,
    ServiceDraining,
    ServiceError,
    UnsupportedScheme,
    WorkerCrashed,
)
from repro.faults import FaultPlan, FaultSpec, random_plan
from repro.lac import (
    ALL_PARAMS,
    LAC_128,
    LAC_192,
    LAC_256,
    Ciphertext,
    KemKeyPair,
    KemSecretKey,
    LacKem,
    LacParams,
    LacPke,
    PublicKey,
)
from repro.lac.kem import EncapsResult
from repro.newhope import NEWHOPE_512, NEWHOPE_1024, NewHopeParams
from repro.schemes import (
    LAC_SCHEME,
    NEWHOPE_SCHEME,
    KemScheme,
    ParamId,
    SchemeId,
    all_schemes,
    resolve,
    wire_id_for_params,
)
from repro.serve import (
    DEFAULT_TENANT,
    AsyncKemClient,
    KemClient,
    KemService,
    RetryPolicy,
    ServiceConfig,
    TenantQuota,
    ThreadedService,
)
from repro.trace import NULL_TRACER, Tracer, stage_breakdown

__all__ = [
    # parameter sets and the KEM
    "ALL_PARAMS",
    "LAC_128",
    "LAC_192",
    "LAC_256",
    "Ciphertext",
    "EncapsResult",
    "KemKeyPair",
    "KemSecretKey",
    "LacKem",
    "LacParams",
    "LacPke",
    "PublicKey",
    # the scheme registry
    "KemScheme",
    "LAC_SCHEME",
    "NEWHOPE_1024",
    "NEWHOPE_512",
    "NEWHOPE_SCHEME",
    "NewHopeParams",
    "ParamId",
    "SchemeId",
    "all_schemes",
    "resolve",
    "wire_id_for_params",
    # execution backends
    "BACKEND_NAMES",
    "CosimBackend",
    "DEFAULT_BACKEND",
    "InlineBackend",
    "KemBackend",
    "ProcessBackend",
    "ThreadBackend",
    "check_backend_name",
    "create_backend",
    # serving
    "AsyncKemClient",
    "DEFAULT_TENANT",
    "KemClient",
    "KemService",
    "RetryPolicy",
    "ServiceConfig",
    "TenantQuota",
    "ThreadedService",
    # observability and chaos
    "NULL_TRACER",
    "FaultPlan",
    "FaultSpec",
    "Tracer",
    "random_plan",
    "stage_breakdown",
    # errors
    "BackendError",
    "BadRequest",
    "DeadlineExceeded",
    "InjectedFault",
    "KemError",
    "KeyNotFound",
    "ProtocolError",
    "RequestTimedOut",
    "ServiceBusy",
    "ServiceClosed",
    "ServiceDraining",
    "ServiceError",
    "UnsupportedScheme",
    "WorkerCrashed",
]
