"""Honest latency accounting for open-loop load tests.

The recorder stores one observation per *scheduled* request — including
the ones the service shed, timed out, or never answered — and computes
exact percentiles from the raw samples (no histogram buckets, no
dropped outliers).  Latency is measured from the request's scheduled
arrival time, not from when the driver got around to sending it, so a
lagging driver shows up as latency instead of silently thinning the
offered load (the coordinated-omission correction).

Outcomes form a small closed vocabulary:

* ``ok`` — an OK response within the attempt;
* ``busy`` — the service shed the request at admission
  (:class:`repro.errors.ServiceBusy`: watermark or hopeless-deadline);
* ``timeout`` — the service answered ``TIMEOUT``
  (queue expiry or a predicted deadline miss);
* ``late`` — no usable answer in time on the client side
  (client attempt deadline, generator hang guard);
* ``error`` — anything else (connection loss, internal errors).

``accepted`` = ``ok`` + ``timeout`` — requests the service admitted.
SLO verdicts (``tests/test_multitenant.py``) are computed over ``ok``
latencies and read next to the full outcome mix, so a run that "meets
p99" by shedding half its traffic is visibly doing so.
"""

from __future__ import annotations

from collections import Counter

#: The closed outcome vocabulary (see module docstring).
OUTCOMES = ("ok", "busy", "timeout", "late", "error")


def percentile(samples: list[float], p: float) -> float | None:
    """Exact percentile by nearest-rank (``None`` on no samples).

    ``p`` in ``[0, 100]``.  Nearest-rank keeps the answer an actual
    observed sample — a p99 that was really measured, not interpolated
    between two points that never happened.
    """
    if not samples:
        return None
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(samples)
    rank = max(1, int(round(p / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class LatencyRecorder:
    """Per-outcome, per-tier latency samples with exact percentiles."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.tier_counts: Counter[tuple[str, int]] = Counter()
        self.tenant_counts: Counter[tuple[str, int]] = Counter()
        self._samples: dict[str, list[float]] = {o: [] for o in OUTCOMES}
        self._tenant_ok: dict[int, list[float]] = {}

    def record(
        self, outcome: str, latency_s: float, tier: int = 0, tenant: int = 0
    ) -> None:
        """Store one observation (latency from *scheduled* arrival)."""
        if outcome not in self._samples:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += 1
        self.tier_counts[(outcome, tier)] += 1
        self.tenant_counts[(outcome, tenant)] += 1
        self._samples[outcome].append(latency_s)
        if outcome == "ok":
            self._tenant_ok.setdefault(tenant, []).append(latency_s)

    # ------------------------------------------------------------------

    @property
    def total(self) -> int:
        """Every scheduled request, whatever became of it."""
        return sum(self.counts.values())

    @property
    def accepted(self) -> int:
        """Requests the service admitted (``ok`` + ``timeout``)."""
        return self.counts["ok"] + self.counts["timeout"]

    def samples(self, outcome: str = "ok") -> list[float]:
        """The raw latency samples of one outcome (a copy)."""
        return list(self._samples[outcome])

    def latency_percentile(
        self, p: float, outcome: str = "ok"
    ) -> float | None:
        """Exact percentile of one outcome's latencies (seconds)."""
        return percentile(self._samples[outcome], p)

    def tenant_latency_percentile(self, tenant: int, p: float) -> float | None:
        """Exact percentile of one tenant's ``ok`` latencies (seconds)."""
        return percentile(self._tenant_ok.get(tenant, []), p)

    def tenant_ledger(self) -> dict[int, dict[str, int]]:
        """Per-tenant outcome counts (every scheduled request accounted)."""
        tenants = sorted({tenant for _, tenant in self.tenant_counts})
        return {
            tenant: {
                o: self.tenant_counts[(o, tenant)]
                for o in OUTCOMES
                if self.tenant_counts[(o, tenant)]
            }
            for tenant in tenants
        }

    def ok_rate(self) -> float:
        """Fraction of all scheduled requests that ended ``ok``."""
        total = self.total
        return self.counts["ok"] / total if total else 0.0

    def summary(self, duration_s: float | None = None) -> dict:
        """A JSON-shaped digest (counts, rates, ok percentiles).

        ``duration_s`` adds achieved throughput (ok responses per
        second of wall clock) when the caller knows the window.
        """
        ok = self._samples["ok"]
        out: dict = {
            "total": self.total,
            "counts": {o: self.counts[o] for o in OUTCOMES},
            "ok_rate": round(self.ok_rate(), 6),
            "latency_ok_s": {
                "p50": percentile(ok, 50.0),
                "p95": percentile(ok, 95.0),
                "p99": percentile(ok, 99.0),
                "max": max(ok) if ok else None,
            },
        }
        tiers = sorted({tier for _, tier in self.tier_counts})
        if tiers != [0]:
            out["tiers"] = {
                str(tier): {
                    o: self.tier_counts[(o, tier)]
                    for o in OUTCOMES
                    if self.tier_counts[(o, tier)]
                }
                for tier in tiers
            }
        tenants = sorted({tenant for _, tenant in self.tenant_counts})
        if tenants != [0]:
            out["tenants"] = {
                str(tenant): ledger
                for tenant, ledger in self.tenant_ledger().items()
            }
        if duration_s is not None and duration_s > 0:
            out["duration_s"] = round(duration_s, 3)
            out["ok_per_s"] = round(self.counts["ok"] / duration_s, 3)
        return out


__all__ = ["OUTCOMES", "LatencyRecorder", "percentile"]
