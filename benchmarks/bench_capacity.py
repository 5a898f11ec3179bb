"""Capacity benchmark: max sustainable load at a p99 SLO, open loop.

The question the serving-layer SLO work exists to answer: *how many
operations per second can one service sustain while still meeting its
latency objective — and what happens when it is offered twice that?*

Method, per parameter set:

1. **probe** — a short closed-loop burst (16 workers hammering
   ``encaps``) estimates the service's raw capacity;
2. **sweep** — open-loop Poisson arrivals (``repro.loadgen``) at
   increasing fractions of the probe rate, each rung scored against
   the SLO: p99 of ``ok`` latencies (measured from *scheduled*
   arrival — no coordinated omission) must stay under ``SLO_P99_S``
   and at least ``OK_RATE_FLOOR`` of offered requests must succeed.
   The **max sustainable rate** is the highest rung that passes;
3. **overload** — ``OVERLOAD_FACTOR``x the sustainable rate, every
   request carrying a wire deadline and split across priority tiers.
   The service is expected to *shed* (``busy``/``timeout``) rather
   than serve late: the p99 of the requests it did accept and answer
   ``ok`` must still meet the SLO.  This assertion is active even
   under ``--no-baseline`` — it checks a correctness property of the
   shedding logic, not a machine-dependent throughput number.

Results are written to ``BENCH_capacity.json`` at the repository
root.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_capacity.py            # full
    PYTHONPATH=src python benchmarks/bench_capacity.py --smoke    # CI

``--baseline BENCH_capacity.json`` additionally fails if the measured
sustainable rate drops below ``BASELINE_FLOOR`` of the committed
number for any common parameter set; ``--no-baseline`` skips that
comparison (the overload SLO property is still asserted).

See the capacity-planning section of ``docs/PERFORMANCE.md`` and the
SLO section of ``docs/SERVICE.md`` for the knobs being exercised.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import time
from pathlib import Path

from _report import finalize, load_baseline, platform_fields

from repro.lac.params import ALL_PARAMS, LAC_256, LacParams
from repro.loadgen import LatencyRecorder, OpenLoopLoadGen, PoissonProcess, TierSpec
from repro.serve import AsyncKemClient, KemService, ServiceConfig

#: the latency objective: p99 of ok responses, scheduled-time latency.
#: Deliberately generous — CI shares one vCPU with the service; the
#: *shape* of the verdicts (sustainable rung, shed-don't-serve-late)
#: is the claim, absolute numbers come from the committed baseline
SLO_P99_S = 0.5

#: a rung also fails when fewer than this fraction of offered
#: requests come back ok (meeting p99 by shedding half the traffic is
#: not "sustaining" the load)
OK_RATE_FLOOR = 0.90

#: offered-load rungs as fractions of the closed-loop probe estimate
RUNG_FRACTIONS = (0.5, 0.75, 0.9, 1.1)

#: overload multiple applied to the sustainable rate
OVERLOAD_FACTOR = 2.0

#: --baseline gate: fail when the sustainable rate drops below this
#: fraction of the committed number
BASELINE_FLOOR = 0.60

#: concurrent workers in the closed-loop capacity probe
PROBE_WORKERS = 16


async def _connect_pool(
    service: KemService, key_id: int, params: LacParams, n: int
) -> list[AsyncKemClient]:
    pool = []
    for _ in range(n):
        reader, writer = await service.connect()
        client = AsyncKemClient(reader, writer)
        client.register_key(key_id, params)
        pool.append(client)
    return pool


async def _probe_capacity(
    pool: list[AsyncKemClient], key_id: int, probe_s: float
) -> float:
    """Closed-loop burst estimate of raw ops/s (not the SLO number)."""
    stop = time.perf_counter() + probe_s
    done = [0] * PROBE_WORKERS

    async def worker(i: int) -> None:
        client = pool[i % len(pool)]
        while time.perf_counter() < stop:
            await client.encaps(key_id)
            done[i] += 1

    start = time.perf_counter()
    await asyncio.gather(*[worker(i) for i in range(PROBE_WORKERS)])
    return sum(done) / (time.perf_counter() - start)


async def _open_loop(
    pool: list[AsyncKemClient],
    key_id: int,
    rate: float,
    duration_s: float,
    tiers: tuple[TierSpec, ...],
    seed: int,
) -> tuple[LatencyRecorder, float]:
    """One open-loop Poisson run; returns (recorder, elapsed seconds)."""
    turn = 0

    async def send(spec: TierSpec) -> None:
        nonlocal turn
        client = pool[turn % len(pool)]
        turn += 1
        await client.encaps(key_id, deadline_s=spec.deadline_s, tier=spec.tier)

    gen = OpenLoopLoadGen(
        send,
        PoissonProcess(rate, seed=seed),
        duration_s=duration_s,
        tiers=tiers,
        seed=seed,
        hang_timeout_s=max(10.0, 20 * SLO_P99_S),
    )
    recorder = await gen.run()
    return recorder, gen.elapsed_s


async def bench_param(
    params: LacParams, probe_s: float, rung_s: float, seed: int
) -> dict:
    """The probe → sweep → overload sequence for one parameter set."""
    service = KemService(
        ServiceConfig(
            max_batch=32,
            shed_deadlines=True,
            # a privately owned two-thread pool: the capacity measured
            # is that of a fixed, known number of kernel slots
            backend_workers=2,
        )
    )
    await service.start()
    key_id = service.add_keypair(params)
    pool = await _connect_pool(service, key_id, params, 8)
    # warm-up wave: thread spin-up and transform-cache fill stay out
    # of every measured window
    await asyncio.gather(*[c.encaps(key_id) for c in pool])

    probe_rate = await _probe_capacity(pool, key_id, probe_s)

    no_deadline = (TierSpec(tier=0, weight=1.0, deadline_s=None),)
    rungs = []
    sustainable: float | None = None
    for frac in RUNG_FRACTIONS:
        rate = probe_rate * frac
        recorder, elapsed = await _open_loop(
            pool, key_id, rate, rung_s, no_deadline, seed
        )
        p99 = recorder.latency_percentile(99.0)
        ok_rate = recorder.ok_rate()
        meets = p99 is not None and p99 <= SLO_P99_S and ok_rate >= OK_RATE_FLOOR
        rungs.append(
            {
                "offered_frac": frac,
                "offered_ops_per_s": round(rate, 1),
                "achieved_ok_per_s": round(recorder.counts["ok"] / elapsed, 1),
                "p99_ok_s": round(p99, 4) if p99 is not None else None,
                "ok_rate": round(ok_rate, 4),
                "counts": dict(recorder.counts),
                "meets_slo": meets,
            }
        )
        if meets:
            sustainable = rate
        print(
            f"  {params.name}: offered {rate:7.0f} ops/s -> "
            f"p99 {0.0 if p99 is None else p99 * 1e3:6.1f} ms, "
            f"ok {ok_rate:5.1%} {'PASS' if meets else 'FAIL'}",
            flush=True,
        )

    # 2x overload: deadlines on the wire, two priority tiers — the SLO
    # defense must shed the excess, not serve everybody late
    overload_rate = (sustainable or probe_rate) * OVERLOAD_FACTOR
    # wire deadlines at a quarter of the SLO: the server enforces its
    # budget from admission, so the remaining three quarters absorb
    # driver-side scheduling lag (scheduled-time latency accounting
    # charges that lag to the request, and under 2x overload — tens of
    # thousands of tasks on the one shared event loop — it is real)
    tiers = (
        TierSpec(tier=0, weight=0.7, deadline_s=SLO_P99_S / 4),
        TierSpec(tier=2, weight=0.3, deadline_s=SLO_P99_S / 4),
    )
    recorder, elapsed = await _open_loop(
        pool, key_id, overload_rate, rung_s, tiers, seed + 1
    )
    overload_p99 = recorder.latency_percentile(99.0)
    info = await pool[0].info()
    assert isinstance(info, dict)
    overload = {
        "offered_ops_per_s": round(overload_rate, 1),
        "achieved_ok_per_s": round(recorder.counts["ok"] / elapsed, 1),
        "p99_accepted_ok_s": (
            round(overload_p99, 4) if overload_p99 is not None else None
        ),
        "ok_rate": round(recorder.ok_rate(), 4),
        "counts": dict(recorder.counts),
        "summary": recorder.summary(elapsed),
        "sheds": info.get("sheds", {}),
    }
    print(
        f"  {params.name}: overload {overload_rate:7.0f} ops/s -> "
        f"p99(ok) {0.0 if overload_p99 is None else overload_p99 * 1e3:6.1f} ms, "
        f"ok {recorder.ok_rate():5.1%}, sheds {sum(info.get('sheds', {}).values())}",
        flush=True,
    )

    for client in pool:
        await client.aclose()
    await service.shutdown()

    return {
        "params": params.name,
        "slo_p99_s": SLO_P99_S,
        "probe_ops_per_s": round(probe_rate, 1),
        "rungs": rungs,
        "max_sustainable_ops_per_s": (
            round(sustainable, 1) if sustainable is not None else None
        ),
        "overload": overload,
    }


def run(
    smoke: bool,
    probe_s: float,
    rung_s: float,
    seed: int,
    output: Path,
    baseline: Path | None,
    gate: bool = True,
) -> dict:
    """Sweep every parameter set, write the report, gate."""
    param_sets = (LAC_256,) if smoke else ALL_PARAMS
    rows = []
    for params in param_sets:
        print(f"{params.name}:", flush=True)
        rows.append(asyncio.run(bench_param(params, probe_s, rung_s, seed)))

    report = {
        "benchmark": "open-loop capacity sweep at p99 SLO",
        "smoke": smoke,
        "slo_p99_s": SLO_P99_S,
        "ok_rate_floor": OK_RATE_FLOOR,
        "overload_factor": OVERLOAD_FACTOR,
        "rung_s": rung_s,
        "cpu_count": os.cpu_count() or 1,
        **platform_fields(),
        "capacity": rows,
    }

    print(f"\n{'set':8} {'probe':>10} {'sustainable':>12} {'overload p99':>13}")
    for row in rows:
        sustainable = row["max_sustainable_ops_per_s"]
        p99 = row["overload"]["p99_accepted_ok_s"]
        print(
            f"{row['params']:8} {row['probe_ops_per_s']:7.0f} ops/s "
            f"{(f'{sustainable:9.0f} ops/s' if sustainable else '       --')} "
            f"{(f'{p99 * 1e3:10.1f} ms' if p99 is not None else '         --')}"
        )

    failures = []
    for row in rows:
        # the shedding-correctness property: always asserted, even with
        # --no-baseline — accepted-and-served requests meet the SLO or
        # the deadline logic is broken, machine speed notwithstanding
        p99 = row["overload"]["p99_accepted_ok_s"]
        if p99 is None:
            failures.append(
                f"{row['params']}: overload run produced no ok responses"
            )
        elif p99 > SLO_P99_S:
            failures.append(
                f"{row['params']}: overload p99 of accepted-ok "
                f"{p99 * 1e3:.1f} ms exceeds the {SLO_P99_S * 1e3:.0f} ms SLO "
                "(the service served late instead of shedding)"
            )
        if gate and row["max_sustainable_ops_per_s"] is None:
            failures.append(
                f"{row['params']}: no offered-load rung met the SLO"
            )
    committed = load_baseline(baseline) if gate else None
    if committed is not None:
        old_rows = {row["params"]: row for row in committed["capacity"]}
        for row in rows:
            old = old_rows.get(row["params"])
            if old is None or old.get("max_sustainable_ops_per_s") is None:
                continue
            mine = row["max_sustainable_ops_per_s"]
            floor = BASELINE_FLOOR * old["max_sustainable_ops_per_s"]
            if mine is not None and mine < floor:
                failures.append(
                    f"{row['params']}: sustainable {mine:.0f} ops/s is below "
                    f"{BASELINE_FLOOR:.0%} of the committed "
                    f"{old['max_sustainable_ops_per_s']:.0f} ops/s"
                )

    return finalize(report, failures, output, "capacity floors not met")


def main() -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe-s", type=float, default=None,
                        help="closed-loop probe window (default 2.0, smoke 0.8)")
    parser.add_argument("--rung-s", type=float, default=None,
                        help="open-loop seconds per load rung (default 4.0, smoke 1.5)")
    parser.add_argument("--seed", type=int, default=42,
                        help="arrival/tier seed (default 42)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick CI mode: LAC-256 only, short windows")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_capacity.json to regression-check against")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the baseline and sustainable-rung floors "
                             "(the overload SLO property is still asserted)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_capacity.json")
    args = parser.parse_args()
    probe_s = args.probe_s if args.probe_s is not None else (0.8 if args.smoke else 2.0)
    rung_s = args.rung_s if args.rung_s is not None else (1.5 if args.smoke else 4.0)
    run(
        args.smoke, probe_s, rung_s, args.seed, args.output,
        None if args.no_baseline else args.baseline,
        gate=not args.no_baseline,
    )


if __name__ == "__main__":
    main()
