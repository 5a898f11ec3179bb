"""The unified error hierarchy of the repro KEM stack.

Every error the serving stack raises deliberately — protocol framing
failures, typed non-OK service responses, client-side deadlines,
backend worker crashes, injected chaos faults — derives from one base,
:class:`KemError`, and carries a stable machine-readable ``reason``
tag.  Callers that want coarse handling catch :class:`KemError`;
callers that want precise handling match the subclasses (or switch on
``.reason`` without importing them).

The hierarchy::

    KemError                      reason
    ├── ProtocolError             "bad-magic"/"bad-version"/.../"malformed"
    ├── ServiceError              "internal"
    │   ├── ServiceBusy           "busy"
    │   ├── RequestTimedOut       "timeout"
    │   ├── ServiceDraining       "shutting-down"
    │   ├── BadRequest            "bad-request"
    │   ├── KeyNotFound           "not-found"
    │   ├── ServiceClosed         "closed"
    │   └── DeadlineExceeded      "deadline"
    ├── BackendError              "backend"
    │   ├── UnsupportedScheme     "unsupported-scheme"
    │   └── WorkerCrashed         "worker-crashed"
    └── InjectedFault             "injected-fault"  (also a RuntimeError)

``reason`` tags are part of the public API: the server keys its
``kem_connection_errors_total`` counter on :class:`ProtocolError`
reasons, and the chaos/retry suites assert on them.  Renaming one is a
breaking change.

This module has **no dependencies** inside the package, so anything —
``repro.serve``, ``repro.backend``, ``repro.faults`` — can import it
without cycles.  ``repro.serve`` re-exports the service-facing names
for backwards compatibility; :mod:`repro.api` re-exports everything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.serve.protocol import Status


class KemError(Exception):
    """Base of every deliberate error in the repro KEM stack.

    ``reason`` is a short, stable, machine-readable tag identifying
    the failure class — subclasses override it at class level, and a
    constructor may refine it per instance (:class:`ProtocolError`
    does).
    """

    #: Stable machine-readable failure tag.
    reason: str = "internal"

    def __init__(self, message: str = "", *, reason: str | None = None) -> None:
        super().__init__(message)
        if reason is not None:
            self.reason = reason


class ProtocolError(KemError):
    """A malformed frame (bad magic/version/op/length or short payload).

    ``reason`` is a short machine-readable tag (``"bad-magic"``,
    ``"bad-version"``, ``"bad-enum"``, ``"oversized"``,
    ``"truncated"``, or the generic ``"malformed"``) — the server keys
    its connection-error counters on it, so operators can tell framing
    corruption from peers that simply hang up mid-frame.
    """

    reason = "malformed"

    def __init__(self, message: str, reason: str = "malformed") -> None:
        super().__init__(message, reason=reason)


class ServiceError(KemError):
    """A non-OK response from the service (carries the status).

    ``status`` is the wire :class:`repro.serve.protocol.Status` of the
    subclass; the one status <-> exception table next to ``Status``
    attaches it (this module cannot import the protocol without a
    cycle), so a freshly imported hierarchy formats messages with the
    ``reason`` tag until the serving layer is loaded.

    Raised server-side, one of these *is* the refusal: the request
    path's one reply function answers ``status`` with ``detail`` as the
    payload (the ``"BUSY: "``-style label is client-side rendering and
    never reaches the wire) and puts ``tags`` on the request's root
    span — a ``shed_reason`` tag also counts the shed.
    """

    status: Optional["Status"] = None

    def __init__(self, message: str, **tags: Any) -> None:
        label = self.status.name if self.status is not None else self.reason.upper()
        super().__init__(f"{label}: {message}")
        self.detail = message
        self.tags = tags


class ServiceBusy(ServiceError):
    """Rejected by backpressure: the request was never queued."""

    reason = "busy"


class RequestTimedOut(ServiceError):
    """Accepted but not served within the per-request timeout."""

    reason = "timeout"


class ServiceDraining(ServiceError):
    """The service is shutting down and takes no new work."""

    reason = "shutting-down"


class BadRequest(ServiceError):
    """The service rejected the request as malformed."""

    reason = "bad-request"


class KeyNotFound(ServiceError):
    """The referenced key id is not hosted by the service."""

    reason = "not-found"


class ServiceClosed(ServiceError):
    """The connection dropped with requests still in flight."""

    reason = "closed"


class DeadlineExceeded(ServiceError):
    """A client-side per-attempt deadline expired before the response.

    Raised by the retry machinery (``RetryPolicy.attempt_timeout_s``),
    never by the server — a hung or partitioned service surfaces as
    this instead of an indefinite wait.
    """

    reason = "deadline"


class BackendError(KemError):
    """An execution backend failed to run a submitted batch."""

    reason = "backend"


class UnsupportedScheme(BackendError):
    """A backend refused a scheme it cannot execute faithfully.

    Raised at *registration* time — e.g. the cosim backend models LAC
    cycle costs only, so accepting a NewHope key would silently produce
    wrong tallies.  Failing the registration keeps the error at the
    seam where the operator can still pick a different backend.
    """

    reason = "unsupported-scheme"


class WorkerCrashed(BackendError):
    """A backend worker process died mid-batch.

    The :class:`repro.backend.ProcessBackend` surfaces this when its
    pool breaks; the supervised pool is restarted (up to the restart
    budget) and the in-flight batch fails — through the service this
    becomes the typed ``INTERNAL`` response, and the restart is counted
    in ``kem_worker_restarts_total``.
    """

    reason = "worker-crashed"


class InjectedFault(KemError, RuntimeError):
    """The exception raised by a ``kernel``/``raise`` chaos fault.

    Distinct from any organic failure, so tests can tell an injected
    batch abort from a real kernel bug.  Still a ``RuntimeError`` for
    backwards compatibility with pre-unification catch sites.
    """

    reason = "injected-fault"


__all__ = [
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
