"""What a window of load measured: the end-to-end pair and the layers.

``load_metrics`` is the end-to-end view of any window; the rest are the
per-layer metrics of the traced pass.  Layer names are repo modules.
Everything is read from outside the program: the spans it already emits
when handed a ``Tracer``, the public ``INFO`` snapshot, and timings
taken around its public functions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from repro.backend import DEFAULT_THREAD_WORKERS
from repro.serve.protocol import Frame, Op, Status, decode_frame
from repro.trace import stage_breakdown
from repro.trace.report import STAGES

from .rig import Record, clock
from .stats import median, percentile, tail
from .workloads import LATENCY_LIMIT_MS


def load_metrics(records: Sequence[Record], seconds: float) -> dict[str, float]:
    """``ops_per_s`` and ``op_p50_ms`` of ``seconds`` of load.

    The plain quotient (OK-and-verified replies over the time they took
    to come back) and the nearest-rank median of their latencies: a
    stall inside the window, whoever caused it, lowers the first and can
    raise the second.

    Requests of one seeded stream are one kind and are pooled.  The
    eighteen ``cosim-kat`` operations are eighteen fixed computations,
    19 to 450 ms apiece: pooled, their median is the slowest sample of
    the ninth kind, an edge the host's noise moves by a fifth.  So the
    median is taken per kind, over the window's rounds, and
    ``op_p50_ms`` is the median of the kinds' medians.
    """
    by_kind: dict[str, list[float]] = {}
    for r in records:
        if r.ok:
            by_kind.setdefault(r.kind, []).append((r.t1 - r.t0) * 1e3)
    return {
        "ops_per_s": sum(map(len, by_kind.values())) / seconds,
        "op_p50_ms": median([percentile(took, 0.5) for took in by_kind.values()]),
    }


def op_metrics(records: Sequence[Record]) -> dict[str, float | None]:
    """Plain pooled shares and per-op percentiles of the records given.

    ``None`` marks a number the sample cannot support: an op that was
    not sent, or a p99 with fewer than ten samples beyond it.
    """
    ok = [r for r in records if r.ok]
    out: dict[str, float | None] = {
        "fail_share": 1.0 - len(ok) / len(records),
        # failed, refused and late requests all miss the limit
        "within_limit_share": sum(
            (r.t1 - r.t0) * 1e3 <= LATENCY_LIMIT_MS for r in ok
        )
        / len(records),
    }
    for op in ("encaps", "decaps", "keygen"):
        own = [(r.t1 - r.t0) * 1e3 for r in ok if r.op == op.upper()]
        out[f"{op}_p50_ms"] = percentile(own, 0.5) if own else None
        if op != "keygen":
            out[f"{op}_p99_ms"] = tail(own, 0.99)
    return out


def protocol_metrics(shapes: Iterable[tuple[Op, int, bytes, int]]) -> dict[str, float]:
    """Time ``Frame.to_bytes`` / ``decode_frame`` on the workload's own frames.

    ``shapes`` yields ``(op, wire param id, request payload, response
    payload size)``; each makes one request and one response frame.
    """
    encode = decode = 0.0
    frames = size = 0
    for request_id, (op, param_id, payload, response_size) in enumerate(shapes):
        for frame in (
            Frame(op, request_id, param_id, payload=payload),
            Frame(op, request_id, param_id, Status.OK, bytes(response_size)),
        ):
            t0 = clock()
            wire = frame.to_bytes()
            t1 = clock()
            decode_frame(wire)
            t2 = clock()
            encode += t1 - t0
            decode += t2 - t1
            size += len(wire)
            frames += 1
    return {
        "serve.protocol.encode_us_per_frame": encode / frames * 1e6,
        "serve.protocol.decode_us_per_frame": decode / frames * 1e6,
        "serve.protocol.bytes_per_op": size / (frames / 2),
    }


def span_metrics(
    server_spans: Sequence[dict[str, Any]],
    client_spans: Sequence[dict[str, Any]],
    traced_seconds: float,
    workers: int,
) -> dict[str, float]:
    """Stage breakdown, client overhead and backend busy share from spans."""
    breakdown = stage_breakdown(server_spans)
    out = {"serve.server.coverage": breakdown["coverage"]}
    for stats in breakdown["stages"]:
        if stats.stage not in STAGES:
            continue
        out[f"serve.server.{stats.stage}_us_p50"] = stats.p50_us
        if stats.stage in ("queue", "kernel", "reply"):
            out[f"serve.server.{stats.stage}_us_p99"] = stats.p99_us
            out[f"serve.server.{stats.stage}_share"] = stats.share
    served = {
        s["trace_id"]: s["duration_us"]
        for s in server_spans
        if s["name"] == "server.request"
    }
    overhead = [
        s["duration_us"] - served[s["trace_id"]]
        for s in client_spans
        if s["name"] == "client.request" and s["trace_id"] in served
    ]
    if overhead:
        out["serve.client.overhead_us_p50"] = percentile(overhead, 0.5)
    kernel_us = sum(
        s["duration_us"] for s in server_spans if s["name"] == "server.batch"
    )
    out["backend.busy_share"] = kernel_us / 1e6 / (workers * traced_seconds)
    return out


def _delta(after: dict, before: dict, key: str) -> dict[str, float]:
    return {
        name: count - before.get(key, {}).get(name, 0)
        for name, count in after.get(key, {}).items()
    }


def info_metrics(
    before: Sequence[dict], after: Sequence[dict], seconds: float
) -> dict[str, float]:
    """Scheduler and backend numbers from two ``INFO`` snapshots per service."""
    ops = batches = shed = hits = misses = evictions = entries = 0.0
    flushes: dict[str, float] = {}
    for b, a in zip(before, after, strict=True):
        for size, count in _delta(a, b, "batch_sizes").items():
            batches += count
            ops += int(size) * count
        for trigger, count in _delta(a, b, "flushes").items():
            flushes[trigger] = flushes.get(trigger, 0) + count
        shed += sum(_delta(a, b, "sheds").values())
        cache_a = (a.get("backend") or {}).get("transform_cache")
        cache_b = (b.get("backend") or {}).get("transform_cache") or {}
        if cache_a:
            hits += cache_a["hits"] - cache_b.get("hits", 0)
            misses += cache_a["misses"] - cache_b.get("misses", 0)
            evictions += cache_a["evictions"] - cache_b.get("evictions", 0)
            entries += cache_a["entries"]
    total = sum(flushes.values())
    mean_batch = ops / batches if batches else 0.0
    return {
        "serve.scheduler.mean_batch_size": mean_batch,
        "serve.scheduler.batch_fill_ratio": mean_batch
        / after[0]["service"]["max_batch"],
        "serve.scheduler.flushes_per_s": total / seconds,
        "serve.scheduler.size_flush_share": flushes.get("size", 0) / total
        if total
        else 0.0,
        "serve.scheduler.deadline_flush_share": flushes.get("deadline", 0) / total
        if total
        else 0.0,
        "serve.scheduler.ewma_gap_us": median(
            [a["service"]["ewma_gap_us"] or 0.0 for a in after]
        ),
        "serve.server.shed_total": shed,
        "backend.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "backend.cache_evictions": evictions,
        "backend.cache_entries": entries,
    }


def backend_workers(info: dict) -> int:
    """Threads that can run kernels at once behind one service."""
    service = info["service"]
    if service["workers"]:
        return int(service["workers"])
    # the simulated core is single in-order; the shared default thread
    # pool does not report its size
    return 1 if service["backend"] == "cosim" else DEFAULT_THREAD_WORKERS
