"""``compare A.json B.json``: did B get worse than A?

One row per (end-to-end metric, workload): both medians, both spreads,
the relative difference and a verdict against the metric's bound; then
the exact simulated metrics at bound 0.  Exits non-zero on any ``worse``
row, a higher failure share or a declared workload missing from either
report; refuses reports whose fingerprints differ in ``nproc``,
numpy/BLAS or schedule.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from . import fingerprint, spec

#: Per-layer metrics that are exact, so their bound is 0 (the rows
#: ``BENCHMARK.json`` cannot gate: see ``replay.RECORDED``).
EXACT = ("cosim.sim_cycles_ise", "cosim.sim_cycles_const_bch", "cosim.paper_speedup_err")


def verdict(
    a: dict[str, Any], b: dict[str, Any], better: str, bound: float
) -> tuple[float, str]:
    """``(relative change in the worse direction, verdict)`` for one row.

    ``a`` and ``b`` are report rows (``values``, ``median``, ``spread``).
    ``unresolved`` means a side's spread is wider than the bound, unless
    every run of one side beats every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = (
        sign * (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
    )
    if max(a["spread"], b["spread"]) > bound:
        pairs = [(x, y) for x in a["values"] for y in b["values"]]
        if all(sign * y < sign * x for x, y in pairs):
            return worse_by, "better"
        if worse_by > bound and all(sign * y > sign * x for x, y in pairs):
            return worse_by, "worse"
        return worse_by, "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    return worse_by, "better" if worse_by < -bound else "same"


def compare(a: dict[str, Any], b: dict[str, Any], declared: spec.Spec) -> tuple[list[str], bool]:
    """Rows of the comparison table and whether B regressed."""
    lines = [
        f"{'workload':12} {'metric':26} {'A median':>16} {'B median':>16} "
        f"{'A spread':>9} {'B spread':>9} {'worse by':>9} {'bound':>6}  verdict"
    ]
    regressed = False
    for name in declared.workloads:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            # a report that lost a workload must not read as "no regression"
            regressed = True
            lines.append(f"{name:12} missing from {'A' if wa is None else 'B'}")
            continue
        for metric in declared.end_to_end:
            ra, rb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            assert metric.bound is not None
            worse_by, word = verdict(ra, rb, metric.better, metric.bound)
            regressed |= word == "worse"
            lines.append(
                f"{name:12} {metric.name:26} {ra['median']:16.4f} {rb['median']:16.4f} "
                f"{ra['spread']:9.3f} {rb['spread']:9.3f} {worse_by:+9.3f} "
                f"{metric.bound:6.2f}  {word}"
            )
        for exact in EXACT:
            va, vb = (w["per_layer"][exact]["value"] for w in (wa, wb))
            if va == vb == 0:  # a layer this workload never enters
                continue
            word = "worse" if vb > va else "better" if vb < va else "same"
            regressed |= word == "worse"
            lines.append(
                f"{name:12} {exact:26} {va:16.4f} {vb:16.4f} "
                f"{0:9.3f} {0:9.3f} {(vb - va) / va:+9.3f} {0:6.2f}  {word}"
            )
        fail_a = wa["failed"] / wa["attempted"]
        fail_b = wb["failed"] / wb["attempted"]
        if fail_b > fail_a:
            regressed = True
            lines.append(f"{name:12} fail_share rose from {fail_a:.6f} to {fail_b:.6f}")
    return lines, regressed


def main(path_a: str, path_b: str) -> int:
    """Print the table; 0 = no regression, 1 = regression, 2 = not comparable."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    reasons = fingerprint.comparable(a["fingerprint"], b["fingerprint"])
    if reasons:
        print("refusing to compare reports from different machines or schedules:")
        for reason in reasons:
            print(f"  {reason}")
        return 2
    lines, regressed = compare(a, b, spec.load())
    print("\n".join(lines))
    return int(regressed)
