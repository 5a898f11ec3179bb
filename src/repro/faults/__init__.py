"""``repro.faults`` — deterministic fault injection for the KEM service.

The robustness counterpart of ``repro.serve``: a seeded
:class:`FaultPlan` describes *where* (transport read/write, kernel,
admission) and *how* (delay, drop, truncate, corrupt, stall, raise,
busy, timeout) the serving stack should misbehave, and the stack
consults it at fixed injection sites.  Because every site draws from
its own seed-derived random stream and every fire is counted both in
the plan and in ``repro.serve.metrics``, chaos runs are reproducible
and fully accounted for.

Used by ``tests/test_chaos_service.py`` (the seeded chaos suite) and
the ``chaos-smoke`` CI job; see the failure-semantics section of
``docs/SERVICE.md``.
"""

from repro.faults.plan import (
    ALL_SITES,
    KIND_BUSY,
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_DELAY,
    KIND_DROP,
    KIND_RAISE,
    KIND_STALL,
    KIND_TIMEOUT,
    KIND_TRUNCATE,
    SITE_ADMISSION,
    SITE_BACKEND,
    SITE_KERNEL,
    SITE_TRANSPORT_READ,
    SITE_TRANSPORT_WRITE,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    random_plan,
)
from repro.faults.transport import FaultyReader, FaultyWriter, wrap_connection

__all__ = [
    "ALL_SITES",
    "FaultPlan",
    "FaultSpec",
    "FaultyReader",
    "FaultyWriter",
    "InjectedFault",
    "KIND_BUSY",
    "KIND_CORRUPT",
    "KIND_CRASH",
    "KIND_DELAY",
    "KIND_DROP",
    "KIND_RAISE",
    "KIND_STALL",
    "KIND_TIMEOUT",
    "KIND_TRUNCATE",
    "SITE_ADMISSION",
    "SITE_BACKEND",
    "SITE_KERNEL",
    "SITE_TRANSPORT_READ",
    "SITE_TRANSPORT_WRITE",
    "random_plan",
    "wrap_connection",
]
