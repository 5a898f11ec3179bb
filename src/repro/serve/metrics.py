"""Service metrics: counters, gauges and latency/batch histograms.

Follows the conventions of :mod:`repro.metrics` — free-form metric
names, no central registration, recording is cheap enough to leave on
— but measures the *serving* layer rather than modelled cycles:
request counts per (op, status), queue depth, in-flight batches, the
batch-size distribution the scheduler actually achieved, and
log-bucketed service-time histograms with p50/p99 estimates.

Two export formats, both served by the protocol's ``INFO`` op:

* :meth:`ServiceMetrics.snapshot` — a JSON-friendly dict (machine
  consumption: benchmarks, tests, dashboards);
* :meth:`ServiceMetrics.render_text` — a ``# HELP``-style plain-text
  dump in the spirit of a ``/metrics`` endpoint.

All mutators take an internal lock: the scheduler records from the
event loop while batch workers record from executor threads.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Callable


class LatencyHistogram:
    """Log2-bucketed latency histogram over microseconds.

    Bucket ``i`` counts observations in ``[2**i, 2**(i+1))`` µs (bucket
    0 also absorbs sub-microsecond values).  Quantiles are estimated at
    bucket upper bounds — coarse, but monotone, allocation-free and
    plenty for p50/p99 serving dashboards.
    """

    #: Buckets span 1 µs .. ~67 s; everything slower lands in the top bucket.
    BUCKETS = 26

    def __init__(self) -> None:
        self.counts = [0] * self.BUCKETS
        self.total = 0
        self.sum_us = 0.0

    def observe(self, micros: float) -> None:
        """Record one observation (in microseconds)."""
        micros = max(micros, 0.0)
        bucket = max(0, int(micros).bit_length() - 1) if micros >= 1 else 0
        self.counts[min(bucket, self.BUCKETS - 1)] += 1
        self.total += 1
        self.sum_us += micros

    def quantile(self, q: float) -> float:
        """Upper bound (µs) of the bucket holding the ``q`` quantile."""
        if not self.total:
            return 0.0
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return float(2 ** (i + 1))
        return float(2**self.BUCKETS)

    def mean(self) -> float:
        """Exact mean of the observations (µs)."""
        return self.sum_us / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly summary (count, mean, p50/p99, populated buckets)."""
        return {
            "count": self.total,
            "mean_us": round(self.mean(), 3),
            "p50_us": self.quantile(0.50),
            "p99_us": self.quantile(0.99),
            "buckets_us": {
                str(2 ** (i + 1)): c for i, c in enumerate(self.counts) if c
            },
        }


class ServiceMetrics:
    """The service's metric registry (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: requests received, keyed by op name
        self.requests: Counter[str] = Counter()
        #: responses sent, keyed by (op name, status name)
        self.responses: Counter[tuple[str, str]] = Counter()
        #: flushes, keyed by what triggered them
        #: ("size"/"deadline"/"alone"/"drain")
        self.flushes: Counter[str] = Counter()
        #: batch-size distribution actually dispatched, keyed by size
        self.batch_sizes: Counter[int] = Counter()
        #: injected faults, keyed by (site, kind) — fed by the fault
        #: plan's observer hook, so it accounts for every fired fault
        self.faults: Counter[tuple[str, str]] = Counter()
        #: connections torn down abnormally, keyed by reason
        #: ("protocol:<reason>", "disconnect", "internal", …)
        self.conn_errors: Counter[str] = Counter()
        #: requests shed to defend deadlines/tiers/quotas, keyed by
        #: (reason, tier, tenant) — "hopeless" (admission: the kernel
        #: estimate alone exceeds the deadline), "predicted-miss"
        #: (dispatch: queue wait + estimate exceeds it), "watermark" (a
        #: reduced per-tier admission limit rejected it), "missed"
        #: (completion: the batch finished past the budget, so the late
        #: OK became a TIMEOUT — KEYGEN exempt), "quota" (admission:
        #: the tenant exceeded its configured key/in-flight/ops-rate
        #: quota)
        self.sheds: Counter[tuple[str, int, int]] = Counter()
        #: requests received per tenant (the wire's tenant extension
        #: byte; 0 is the default tenant)
        self.tenant_requests: Counter[int] = Counter()
        self.latency: dict[str, LatencyHistogram] = {}
        #: per-stage request-path time, keyed by stage name
        #: ("admission"/"queue"/"dispatch"/"kernel"/"reply") — fed by
        #: the tracing layer, so populated only when tracing is on
        self.stage_seconds: dict[str, LatencyHistogram] = {}
        self.queue_depth = 0
        self.inflight_batches = 0
        #: high-watermark of queue depth over the service lifetime
        self.queue_depth_peak = 0
        #: execution-backend stats hook — the service points this at
        #: its :meth:`repro.backend.KemBackend.stats`, so snapshots and
        #: the text dump carry per-backend counters (submissions,
        #: failures, worker restarts) without the metrics layer knowing
        #: any backend internals
        self.backend_stats_provider: Callable[[], dict] | None = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record_request(self, op: str) -> None:
        """Count one received request."""
        with self._lock:
            self.requests[op] += 1

    def record_response(self, op: str, status: str) -> None:
        """Count one sent response."""
        with self._lock:
            self.responses[op, status] += 1

    def record_batch(self, op: str, size: int, trigger: str) -> None:
        """Count one dispatched batch and what flushed it."""
        with self._lock:
            self.batch_sizes[size] += 1
            self.flushes[trigger] += 1

    def record_fault(self, site: str, kind: str) -> None:
        """Count one injected fault (the fault plan's observer hook)."""
        with self._lock:
            self.faults[site, kind] += 1

    def record_conn_error(self, reason: str) -> None:
        """Count one abnormally terminated connection."""
        with self._lock:
            self.conn_errors[reason] += 1

    def record_shed(self, reason: str, tier: int, tenant: int = 0) -> None:
        """Count one request shed to defend a deadline, tier or quota."""
        with self._lock:
            self.sheds[reason, tier, tenant] += 1

    def record_tenant_request(self, tenant: int) -> None:
        """Count one received request against its wire tenant."""
        with self._lock:
            self.tenant_requests[tenant] += 1

    def observe_latency(self, op: str, micros: float) -> None:
        """Record one request's queue-to-response service time (µs)."""
        with self._lock:
            histogram = self.latency.get(op)
            if histogram is None:
                histogram = self.latency[op] = LatencyHistogram()
            histogram.observe(micros)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record one request's time in a serving stage (seconds)."""
        with self._lock:
            histogram = self.stage_seconds.get(stage)
            if histogram is None:
                histogram = self.stage_seconds[stage] = LatencyHistogram()
            histogram.observe(seconds * 1e6)

    def adjust_queue_depth(self, delta: int) -> None:
        """Move the queued-requests gauge (tracks its peak too)."""
        with self._lock:
            self.queue_depth += delta
            self.queue_depth_peak = max(self.queue_depth_peak, self.queue_depth)

    def adjust_inflight(self, delta: int) -> None:
        """Move the in-flight-batches gauge."""
        with self._lock:
            self.inflight_batches += delta

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-friendly dict of every metric (served by ``INFO``)."""
        # read the provider outside the lock: it takes the backend's
        # own lock, and holding both invites an ordering deadlock
        provider = self.backend_stats_provider
        backend_stats = provider() if provider is not None else None
        with self._lock:
            batches = sum(self.batch_sizes.values())
            ops = sum(size * count for size, count in self.batch_sizes.items())
            return {
                "requests": dict(self.requests),
                "responses": {
                    f"{op}:{status}": count
                    for (op, status), count in self.responses.items()
                },
                "flushes": dict(self.flushes),
                "faults": {
                    f"{site}:{kind}": count
                    for (site, kind), count in sorted(self.faults.items())
                },
                "connection_errors": dict(self.conn_errors),
                "sheds": {
                    f"{reason}:{tier}:{tenant}": count
                    for (reason, tier, tenant), count in sorted(self.sheds.items())
                },
                "tenant_requests": {
                    str(tenant): count
                    for tenant, count in sorted(self.tenant_requests.items())
                },
                "batch_sizes": {
                    str(size): count
                    for size, count in sorted(self.batch_sizes.items())
                },
                "mean_batch_size": round(ops / batches, 3) if batches else 0.0,
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
                "inflight_batches": self.inflight_batches,
                "latency_us": {
                    op: histogram.to_dict()
                    for op, histogram in sorted(self.latency.items())
                },
                "stage_us": {
                    stage: histogram.to_dict()
                    for stage, histogram in sorted(self.stage_seconds.items())
                },
                "backend": backend_stats,
            }

    def render_text(self) -> str:
        """A ``/metrics``-style plain-text dump of the snapshot."""
        snap = self.snapshot()
        lines = [
            "# HELP kem_requests_total requests received, by op",
            "# TYPE kem_requests_total counter",
        ]
        for op, count in sorted(snap["requests"].items()):
            lines.append(f'kem_requests_total{{op="{op}"}} {count}')
        lines += [
            "# HELP kem_responses_total responses sent, by op and status",
            "# TYPE kem_responses_total counter",
        ]
        for key, count in sorted(snap["responses"].items()):
            op, status = key.split(":")
            lines.append(f'kem_responses_total{{op="{op}",status="{status}"}} {count}')
        lines += [
            "# HELP kem_injected_faults_total fault-plan fires, by site and kind",
            "# TYPE kem_injected_faults_total counter",
        ]
        for key, count in sorted(snap["faults"].items()):
            site, kind = key.split(":")
            lines.append(
                f'kem_injected_faults_total{{site="{site}",kind="{kind}"}} {count}'
            )
        lines += [
            "# HELP kem_connection_errors_total abnormal connection teardowns",
            "# TYPE kem_connection_errors_total counter",
        ]
        for reason, count in sorted(snap["connection_errors"].items()):
            lines.append(f'kem_connection_errors_total{{reason="{reason}"}} {count}')
        lines += [
            "# HELP kem_shed_total requests shed to defend deadlines,"
            " by reason, tier and tenant",
            "# TYPE kem_shed_total counter",
        ]
        for key, count in sorted(snap["sheds"].items()):
            rest, tenant = key.rsplit(":", 1)
            reason, tier = rest.rsplit(":", 1)
            lines.append(
                f'kem_shed_total{{reason="{reason}",tenant="{tenant}",'
                f'tier="{tier}"}} {count}'
            )
        lines += [
            "# HELP kem_tenant_requests_total requests received, by tenant",
            "# TYPE kem_tenant_requests_total counter",
        ]
        for tenant, count in sorted(snap["tenant_requests"].items()):
            lines.append(f'kem_tenant_requests_total{{tenant="{tenant}"}} {count}')
        lines += [
            "# HELP kem_batch_flushes_total dispatched batches, by trigger",
            "# TYPE kem_batch_flushes_total counter",
        ]
        for trigger, count in sorted(snap["flushes"].items()):
            lines.append(f'kem_batch_flushes_total{{trigger="{trigger}"}} {count}')
        lines += [
            "# HELP kem_batch_size dispatched batch sizes",
            "# TYPE kem_batch_size histogram",
        ]
        for size, count in snap["batch_sizes"].items():
            lines.append(f'kem_batch_size_bucket{{le="{size}"}} {count}')
        lines.append(f'kem_batch_size_mean {snap["mean_batch_size"]}')
        lines += [
            "# HELP kem_queue_depth requests currently queued",
            "# TYPE kem_queue_depth gauge",
            f"kem_queue_depth {snap['queue_depth']}",
            f"kem_queue_depth_peak {snap['queue_depth_peak']}",
            "# HELP kem_inflight_batches batches currently executing",
            "# TYPE kem_inflight_batches gauge",
            f"kem_inflight_batches {snap['inflight_batches']}",
        ]
        for op, histogram in snap["latency_us"].items():
            lines += [
                f"# HELP kem_latency_us_{op} service time (queue to response)",
                f"# TYPE kem_latency_us_{op} summary",
                f"kem_latency_us_{op}_count {histogram['count']}",
                f"kem_latency_us_{op}_mean {histogram['mean_us']}",
                f'kem_latency_us_{op}{{quantile="0.5"}} {histogram["p50_us"]}',
                f'kem_latency_us_{op}{{quantile="0.99"}} {histogram["p99_us"]}',
            ]
        backend = snap.get("backend")
        if backend:
            name = backend.get("name", "unknown")
            lines += [
                "# HELP kem_worker_restarts_total backend worker-pool restarts",
                "# TYPE kem_worker_restarts_total counter",
                f'kem_worker_restarts_total{{backend="{name}"}} '
                f'{backend.get("restarts", 0)}',
                "# HELP kem_backend_batches_total batches run by the backend",
                "# TYPE kem_backend_batches_total counter",
            ]
            for outcome in ("submitted", "completed", "failed"):
                lines.append(
                    f'kem_backend_batches_total{{backend="{name}",'
                    f'outcome="{outcome}"}} {backend.get(outcome, 0)}'
                )
            cache = backend.get("transform_cache")
            if cache:
                lines += [
                    "# HELP kem_transform_cache_total per-key transform cache"
                    " events",
                    "# TYPE kem_transform_cache_total counter",
                ]
                for event in ("hits", "misses", "evictions", "invalidations"):
                    lines.append(
                        f'kem_transform_cache_total{{backend="{name}",'
                        f'event="{event}"}} {cache.get(event, 0)}'
                    )
                if "entries" in cache:
                    lines += [
                        "# HELP kem_transform_cache_entries resident cache"
                        " entries",
                        "# TYPE kem_transform_cache_entries gauge",
                        f'kem_transform_cache_entries{{backend="{name}"}} '
                        f'{cache["entries"]}',
                    ]
            cosim = backend.get("cosim")
            if cosim and cosim.get("cycles"):
                profile = cosim.get("profile", "unknown")
                lines += [
                    "# HELP kem_cosim_cycles_total modelled cycles executed"
                    " on the simulated ISE core, by op and profile",
                    "# TYPE kem_cosim_cycles_total counter",
                    "# HELP kem_cosim_ops_total requests executed on the"
                    " simulated ISE core, by op and profile",
                    "# TYPE kem_cosim_ops_total counter",
                ]
                for key, record in sorted(cosim["cycles"].items()):
                    op, params = key.split(":", 1)
                    labels = (
                        f'op="{op}",profile="{profile}",params="{params}"'
                    )
                    lines.append(
                        f"kem_cosim_cycles_total{{{labels}}} "
                        f'{record.get("cycles", 0)}'
                    )
                    lines.append(
                        f"kem_cosim_ops_total{{{labels}}} "
                        f'{record.get("ops", 0)}'
                    )
        if snap["stage_us"]:
            lines += [
                "# HELP kem_stage_seconds request-path time per serving stage",
                "# TYPE kem_stage_seconds summary",
            ]
            for stage, histogram in snap["stage_us"].items():
                mean_s = histogram["mean_us"] / 1e6
                p50_s = histogram["p50_us"] / 1e6
                p99_s = histogram["p99_us"] / 1e6
                lines += [
                    f'kem_stage_seconds_count{{stage="{stage}"}} '
                    f'{histogram["count"]}',
                    f'kem_stage_seconds_mean{{stage="{stage}"}} {mean_s:.9f}',
                    f'kem_stage_seconds{{stage="{stage}",quantile="0.5"}} '
                    f"{p50_s:.9f}",
                    f'kem_stage_seconds{{stage="{stage}",quantile="0.99"}} '
                    f"{p99_s:.9f}",
                ]
        return "\n".join(lines) + "\n"
