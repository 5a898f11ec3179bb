"""Stage aggregation: turn a span dump into a latency-attribution table.

The serve-side analogue of the paper's Table II: where Table II breaks
a KEM operation into per-stage cycle costs, :func:`stage_breakdown`
breaks served request latency into the five serving stages

``admission`` → ``queue`` → ``dispatch`` → ``kernel`` → ``reply``

with exact p50/p95/p99 per stage (computed from the raw durations, not
histogram buckets) and each stage's share of total end-to-end time.
By construction the server's stage spans telescope — their durations
sum to the enclosing ``server.request`` span exactly — so the table's
``coverage`` row doubles as a self-check: a coverage far from 100%
means spans were dropped or the instrumentation regressed.

Input is a list of span dicts (the JSONL written by
:class:`repro.trace.core.JsonlRecorder`, or
:meth:`repro.trace.core.InMemoryRecorder.to_dicts`).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Serving stages in request-path order.
STAGES = ("admission", "queue", "dispatch", "kernel", "reply")

#: Span name of the server-side per-request root span.
REQUEST_SPAN = "server.request"


def load_spans(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL span dump into a list of span dicts."""
    spans = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def percentile(samples: list[float], p: float) -> float | None:
    """Exact percentile by nearest rank (``None`` on no samples).

    ``p`` in ``[0, 100]``.  The rank is ``ceil(p * N / 100)``, so the
    answer is an observed sample — a p99 that was really measured, not
    interpolated between two points that never happened.  The one
    quantile rule of the stage table and of :mod:`repro.loadgen`.
    """
    if not samples:
        return None
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p * len(ordered) / 100.0)) - 1]


def _quantiles(values: list[float]) -> dict[str, float]:
    """The table's p50/p95/p99 of ``values`` (0 for none)."""
    return {
        f"p{p}_us": percentile(values, float(p)) or 0.0 for p in (50, 95, 99)
    }


@dataclass
class StageStats:
    """Aggregated durations of one stage (all values in microseconds)."""

    stage: str
    count: int
    total_us: float
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    #: This stage's share of the summed end-to-end request time.
    share: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form."""
        return {
            "stage": self.stage,
            "count": self.count,
            "total_us": round(self.total_us, 3),
            "mean_us": round(self.mean_us, 3),
            "p50_us": round(self.p50_us, 3),
            "p95_us": round(self.p95_us, 3),
            "p99_us": round(self.p99_us, 3),
            "share": round(self.share, 4),
        }


def stage_breakdown(spans: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate a span dump into the per-stage attribution table.

    Returns a dict with:

    * ``stages`` — a :class:`StageStats` per observed stage, in
      request-path order (unknown stage names sort last);
    * ``requests`` — count and exact latency percentiles of the
      ``server.request`` root spans;
    * ``coverage`` — sum of all stage durations divided by the sum of
      root-span durations (1.0 means stages fully tile the requests).
    """
    by_stage: dict[str, list[float]] = {}
    request_durations: list[float] = []
    for span in spans:
        name = span["name"]
        duration = float(span["duration_us"])
        if name == REQUEST_SPAN:
            request_durations.append(duration)
        elif name in STAGES or span.get("tags", {}).get("stage"):
            by_stage.setdefault(name, []).append(duration)

    total_request_us = sum(request_durations)
    total_stage_us = sum(sum(v) for v in by_stage.values())

    def order(stage: str) -> int:
        return STAGES.index(stage) if stage in STAGES else len(STAGES)

    stages = []
    for stage in sorted(by_stage, key=order):
        values = by_stage[stage]
        total = sum(values)
        stages.append(
            StageStats(
                stage=stage,
                count=len(values),
                total_us=total,
                mean_us=total / len(values),
                **_quantiles(values),
                share=(total / total_request_us) if total_request_us else 0.0,
            )
        )

    return {
        "stages": stages,
        "requests": {
            "count": len(request_durations),
            "total_us": total_request_us,
            **_quantiles(request_durations),
        },
        "coverage": (total_stage_us / total_request_us) if total_request_us else 0.0,
    }


def format_stage_table(breakdown: dict[str, Any]) -> str:
    """Render a breakdown as the printable per-stage table."""
    lines = [
        f"{'stage':12} {'count':>8} {'p50 (us)':>10} {'p95 (us)':>10} "
        f"{'p99 (us)':>10} {'total (ms)':>11} {'share':>7}"
    ]
    for stats in breakdown["stages"]:
        lines.append(
            f"{stats.stage:12} {stats.count:8d} {stats.p50_us:10.1f} "
            f"{stats.p95_us:10.1f} {stats.p99_us:10.1f} "
            f"{stats.total_us / 1e3:11.2f} {stats.share:6.1%}"
        )
    requests = breakdown["requests"]
    lines.append(
        f"{'end-to-end':12} {requests['count']:8d} {requests['p50_us']:10.1f} "
        f"{requests['p95_us']:10.1f} {requests['p99_us']:10.1f} "
        f"{requests['total_us'] / 1e3:11.2f} {'':>7}"
    )
    lines.append(f"stage coverage of end-to-end time: {breakdown['coverage']:.1%}")
    return "\n".join(lines)
