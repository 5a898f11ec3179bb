"""``repro.serve`` — serving the batched KEM to concurrent clients.

The batch kernels reachable from *independent concurrent callers*, the
way an accelerated PQC primitive sits behind a host interface in the
paper's co-design: a length-prefixed binary protocol
(:mod:`repro.serve.protocol`), an adaptive micro-batch scheduler
(:mod:`repro.serve.scheduler`), an asyncio server with bounded-queue
backpressure and graceful drain (:mod:`repro.serve.server`) composing
the tenant, deadline and session policies (:mod:`repro.serve.slo`),
async and sync clients (:mod:`repro.serve.client`), and serving
metrics exported through the ``INFO`` op (:mod:`repro.serve.metrics`).

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
from repro.serve.slo import KernelEstimator, predicted_miss

__all__ = [
    "AsyncKemClient",
    "AdaptiveDeadlinePolicy",
    "BadRequest",
    "Batch",
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
