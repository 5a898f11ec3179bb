"""Order statistics and span arithmetic shared by the ledger.

Everything here is pure (no clocks, no I/O) so the self-tests can pin
it on hand-made inputs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from statistics import median
from typing import Any

#: A percentile is reported only when at least this many samples lie
#: beyond it (the choosing-metrics rule).
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the ``q`` percentile."""
    return n - max(1, math.ceil(q * n)) if n else 0


def tail(values: Sequence[float], q: float) -> float | None:
    """The ``q`` percentile, or ``None`` with fewer than ten samples beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def spread(values: Sequence[float]) -> float:
    """``(max - min) / median`` of per-repetition values (0 for one value)."""
    centre = median(values)
    if centre == 0:
        return 0.0 if max(values) == min(values) else math.inf
    return (max(values) - min(values)) / abs(centre)


def self_times(spans: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Per span id: its duration minus the summed durations of its children.

    Spans are dicts with ``span_id``, ``parent_id`` (or ``None``) and
    ``duration_us``.  Replayed children run one after another, never
    overlapping, so the part of the parent they cover is their sum; a
    negative self time means the children, replayed on their own, took
    longer than they do inside the parent.
    """
    spans = list(spans)
    covered: dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + span["duration_us"]
    return {
        span["span_id"]: span["duration_us"] - covered.get(span["span_id"], 0.0)
        for span in spans
    }
