"""Cluster scaling benchmark: routed throughput vs member count.

Brings up a :class:`repro.cluster.ClusterRouter` over 1, 2 and 4
process members (each its own OS process, the production shape), hosts
one LAC key per member-count × 4 so every member owns work, fires N
concurrent protocol clients at the single routed endpoint, and
measures aggregate ENCAPS throughput — the scaling claim of this
repo's ROADMAP: consistent-hash routing over process members turns
cores into throughput while keeping the one-endpoint protocol surface.

Results — per member count: aggregate ops/s, the scaling factor
against the 1-member baseline, p99 service time from the router's own
``INFO`` metrics — are printed and written to ``BENCH_cluster.json``
at the repository root.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_cluster.py            # full
    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke    # CI

The scaling *floor* (>= MIN_SCALING_AT_4 aggregate throughput at 4
members vs 1) binds only on machines with at least 4 CPUs: process
members scale with real cores, and on a single-vCPU box the curve is
honestly flat-to-negative (every member time-slices one core while
the router adds a forwarding hop) — the report records ``cpu_count``
so a committed single-core curve is never mistaken for the claim.
``--baseline`` additionally gates against the committed numbers
(``BASELINE_FLOOR``) for matching member counts on comparable
machines; ``--no-baseline`` measures and reports only.

See ``docs/CLUSTER.md`` for the architecture being measured.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import time
from pathlib import Path
from typing import Any

from repro.cluster import ClusterConfig, ClusterRouter
from repro.lac.params import LAC_256, LacParams
from repro.serve import AsyncKemClient, ServiceConfig

#: member counts measured, in order (the 1->2->4 scaling curve)
MEMBER_COUNTS = (1, 2, 4)

#: acceptance floor: aggregate routed throughput at 4 members must be
#: at least this multiple of the 1-member figure — enforced only when
#: the machine has >= GATE_MIN_CPUS cores (process members cannot
#: outscale the cores they are given)
MIN_SCALING_AT_4 = 1.6

#: minimum CPU count for the scaling floor to bind
GATE_MIN_CPUS = 4

#: --baseline gate: fail when routed ops/s drop below this fraction of
#: the committed numbers (only rows with matching cpu_count regimes)
BASELINE_FLOOR = 0.70

#: keys hosted per member (spreads load across the whole ring)
KEYS_PER_MEMBER = 4


def platform_fields() -> dict[str, str]:
    """The machine-identity keys the report carries: committed numbers
    are only comparable on a similar machine."""
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def load_baseline(baseline: Path | None) -> dict[str, Any] | None:
    """The committed baseline report, or ``None`` when there is none
    (a first run on a new machine has nothing to compare against)."""
    if baseline is None or not baseline.exists():
        return None
    data: dict[str, Any] = json.loads(baseline.read_text())
    return data


def finalize(
    report: dict[str, Any], failures: list[str], output: Path, label: str
) -> dict[str, Any]:
    """Stamp ``pass``/``failures``, write ``output``, and exit non-zero
    listing the failures (the exit CI keys on) when a floor broke."""
    report["pass"] = not failures
    report["failures"] = failures
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {output}")
    if failures:
        raise SystemExit(f"{label}:\n  " + "\n  ".join(failures))
    return report


async def bench_members(
    params: LacParams,
    members: int,
    clients: int,
    requests: int,
    max_batch: int,
) -> dict:
    """Aggregate routed ENCAPS throughput with ``members`` processes."""
    config = ClusterConfig(
        members=members,
        launch="process",
        member_config=ServiceConfig(max_batch=max_batch),
        # replication 1: the scaling measurement wants each op to cost
        # one member, not R; durability is measured by the chaos suite
        replication=1,
        health_interval_s=2.0,
    )
    router = await ClusterRouter(config).start()
    key_ids = []
    setup = AsyncKemClient(*(await router.connect()))
    for _ in range(members * KEYS_PER_MEMBER):
        key_id, _pk = await setup.keygen(params)
        key_ids.append(key_id)

    pool: list[AsyncKemClient] = []
    for _ in range(clients):
        client = AsyncKemClient(*(await router.connect()))
        for key_id in key_ids:
            client.register_key(key_id, params)
        pool.append(client)

    async def worker(client: AsyncKemClient, index: int, ops: int) -> None:
        for op in range(ops):
            await client.encaps(key_ids[(index + op) % len(key_ids)])

    # two warm-up waves: member process pools spin up their kernels
    # and per-key transform caches on first contact
    for _ in range(2):
        await asyncio.gather(
            *[worker(c, i, len(key_ids)) for i, c in enumerate(pool)]
        )

    total_ops = clients * requests
    start = time.perf_counter()
    await asyncio.gather(
        *[worker(c, i, requests) for i, c in enumerate(pool)]
    )
    elapsed = time.perf_counter() - start

    info = await setup.info()
    await setup.aclose()
    for client in pool:
        await client.aclose()
    await router.shutdown()

    latency = info["latency_us"].get("ENCAPS", {})
    return {
        "params": params.name,
        "members": members,
        "clients": clients,
        "requests_per_client": requests,
        "keys": len(key_ids),
        "cluster_ops_per_s": total_ops / elapsed,
        "cluster_ms_per_op": elapsed / total_ops * 1e3,
        "latency_p50_us": latency.get("p50_us"),
        "latency_p99_us": latency.get("p99_us"),
        "failovers": info["cluster"]["counters"].get("forward_failovers", 0),
    }


def run(
    clients: int,
    requests: int,
    max_batch: int,
    smoke: bool,
    output: Path,
    baseline: Path | None,
    gate: bool = True,
    member_counts: tuple[int, ...] = MEMBER_COUNTS,
) -> dict:
    """Measure the scaling curve, write the report, gate conditionally."""
    cpu_count = os.cpu_count() or 1
    rows = []
    for members in member_counts:
        row = asyncio.run(
            bench_members(LAC_256, members, clients, requests, max_batch)
        )
        rows.append(row)
        print(
            f"members={members}: {row['cluster_ops_per_s']:7.0f} ops/s  "
            f"p99 {row['latency_p99_us']:.0f} us",
            flush=True,
        )

    base = rows[0]["cluster_ops_per_s"]
    for row in rows:
        row["scaling_vs_1"] = round(row["cluster_ops_per_s"] / base, 3)

    gate_binds = cpu_count >= GATE_MIN_CPUS
    report = {
        "benchmark": "cluster routed throughput vs member count",
        "smoke": smoke,
        "clients": clients,
        "max_batch": max_batch,
        "cpu_count": cpu_count,
        "scaling_gate_binds": gate_binds,
        **platform_fields(),
        "cluster": rows,
    }

    print(f"\n{'members':>8} {'ops/s':>10} {'scaling':>8} {'p99 (us)':>9}")
    for row in rows:
        print(
            f"{row['members']:>8} {row['cluster_ops_per_s']:10.0f} "
            f"{row['scaling_vs_1']:7.2f}x {row['latency_p99_us']:9.0f}"
        )

    failures = []
    if gate and gate_binds:
        at_4 = next((r for r in rows if r["members"] == 4), None)
        if at_4 is not None and at_4["scaling_vs_1"] < MIN_SCALING_AT_4:
            failures.append(
                f"4-member scaling {at_4['scaling_vs_1']:.2f}x "
                f"< {MIN_SCALING_AT_4:.1f}x (cpu_count={cpu_count})"
            )
    elif gate:
        print(
            f"\nscaling floor not enforced: {cpu_count} CPU(s) < "
            f"{GATE_MIN_CPUS} (process members cannot outscale their cores)"
        )
    committed = load_baseline(baseline) if gate else None
    if committed is not None:
        if committed.get("cpu_count") == cpu_count:
            old_rows = {row["members"]: row for row in committed["cluster"]}
            for row in rows:
                old = old_rows.get(row["members"])
                if old is None:
                    continue
                floor = BASELINE_FLOOR * old["cluster_ops_per_s"]
                if row["cluster_ops_per_s"] < floor:
                    failures.append(
                        f"{row['members']} members: "
                        f"{row['cluster_ops_per_s']:.0f} ops/s is below "
                        f"{BASELINE_FLOOR:.0%} of the committed "
                        f"{old['cluster_ops_per_s']:.0f} ops/s"
                    )
        else:
            print(
                "\nbaseline skipped: committed numbers are from a "
                f"{committed.get('cpu_count')}-CPU machine, this one has "
                f"{cpu_count}"
            )
    return finalize(report, failures, output, "cluster floors not met")


def main() -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent protocol clients (default 32, smoke 8)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per client (default 24, smoke 6)")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="member scheduler flush-on-size threshold")
    parser.add_argument("--members", type=str, default=None,
                        help="comma-separated member counts "
                             "(default 1,2,4; smoke 1,2)")
    parser.add_argument("--smoke", action="store_true",
                        help="quick CI mode: fewer clients/requests, 2-node curve")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_cluster.json to regression-check against")
    parser.add_argument("--no-baseline", action="store_true",
                        help="measure and report only: skip every floor (chaos CI)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_cluster.json")
    args = parser.parse_args()
    clients = args.clients if args.clients is not None else (8 if args.smoke else 32)
    requests = args.requests if args.requests is not None else (6 if args.smoke else 24)
    if args.members is not None:
        member_counts = tuple(int(m) for m in args.members.split(","))
    else:
        member_counts = (1, 2) if args.smoke else MEMBER_COUNTS
    run(
        clients, requests, args.max_batch, args.smoke, args.output,
        None if args.no_baseline else args.baseline,
        gate=not args.no_baseline,
        member_counts=member_counts,
    )


if __name__ == "__main__":
    main()
