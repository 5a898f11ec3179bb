"""``repro.serve`` — serving the batched KEM to concurrent clients.

PR 1 made single-key batches fast (``LacKem.encaps_many`` /
``decaps_many``, 11–14x); this package makes those kernels reachable
from *independent concurrent callers*, the way an accelerated PQC
primitive sits behind a host interface in the paper's co-design: a
length-prefixed binary protocol (:mod:`repro.serve.protocol`), an
adaptive micro-batch scheduler that coalesces requests per (op, key)
(:mod:`repro.serve.scheduler`), an asyncio server with bounded-queue
backpressure, per-request timeouts and graceful drain
(:mod:`repro.serve.server`), async and sync clients
(:mod:`repro.serve.client`), and serving metrics exported through the
``INFO`` op (:mod:`repro.serve.metrics`).

See ``docs/SERVICE.md`` for the protocol spec and tuning guide,
``docs/OBSERVABILITY.md`` for the tracing layer threaded through the
request path (:mod:`repro.trace`), and the ledger
(``python -m benchmarks.ledger``) for measured end-to-end throughput.
"""

from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    KeyNotFound,
    RequestTimedOut,
    ServiceBusy,
    ServiceClosed,
    ServiceDraining,
    ServiceError,
)
from repro.serve.config import ServiceConfig, TenantQuota
from repro.serve.client import AsyncKemClient, KemClient, RetryPolicy
from repro.serve.metrics import LatencyHistogram, ServiceMetrics
from repro.serve.protocol import (
    DEFAULT_TENANT,
    QOS_EXT_SIZE,
    SESSION_NONCE_SIZE,
    SESSION_TAG_SIZE,
    TRACE_EXT_SIZE,
    VERSION_MAX,
    VERSION_QOS,
    VERSION_TRACED,
    Frame,
    Op,
    ProtocolError,
    QosSpec,
    Status,
    qos_for,
)
from repro.serve.scheduler import (
    AdaptiveDeadlinePolicy,
    Batch,
    DeficitRoundRobin,
    MicroBatchScheduler,
)
from repro.serve.server import HostedKey, KemService, ThreadedService
from repro.serve.slo import (
    DEFAULT_CYCLE_PRIORS_HZ,
    CycleCostEstimator,
    KernelEstimator,
    predicted_miss,
)

__all__ = [
    "AsyncKemClient",
    "AdaptiveDeadlinePolicy",
    "BadRequest",
    "Batch",
    "CycleCostEstimator",
    "DEFAULT_CYCLE_PRIORS_HZ",
    "DEFAULT_TENANT",
    "DeadlineExceeded",
    "DeficitRoundRobin",
    "Frame",
    "HostedKey",
    "KemClient",
    "KemService",
    "KernelEstimator",
    "KeyNotFound",
    "LatencyHistogram",
    "MicroBatchScheduler",
    "Op",
    "ProtocolError",
    "QOS_EXT_SIZE",
    "QosSpec",
    "RequestTimedOut",
    "RetryPolicy",
    "SESSION_NONCE_SIZE",
    "SESSION_TAG_SIZE",
    "ServiceBusy",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceDraining",
    "ServiceError",
    "ServiceMetrics",
    "Status",
    "TenantQuota",
    "ThreadedService",
    "TRACE_EXT_SIZE",
    "VERSION_MAX",
    "VERSION_QOS",
    "VERSION_TRACED",
    "predicted_miss",
    "qos_for",
]
