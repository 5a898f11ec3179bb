"""One repetition of one workload, in a process of its own.

A fresh process keeps ``setup_s`` (process start to first verified
reply) and ``peak_rss_mb`` clean.  The parent passes its spawn
timestamp; the child prints one JSON object on its last stdout line.

Modes: ``e2e`` measures one untraced window; ``traced`` alternates
untraced and traced windows in one process (their throughput ratio is
the tracing overhead), then derives every per-layer metric and replays
the kernels; ``smoke`` is ``traced`` cut down to a plumbing check.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.trace import InMemoryRecorder, Tracer

from . import layers, replay, spec
from .rig import KAT_ROUND_OPS, KatRig, Record, Rig, clock, make_rig
from .stats import percentile
from .workloads import WORKLOADS

#: Untimed load before the first measured window.
WARMUP_S, SMOKE_WARMUP_S = 1.5, 0.5
#: Untraced/traced window pairs of a traced pass, and batches replayed.
PAIRS, SMOKE_PAIRS = 2, 1
REPLAY_BATCHES, SMOKE_REPLAY_BATCHES = 32, 4
#: Whole ``cosim-kat`` rounds an end-to-end window times at least: three,
#: so each of the eighteen operations has a middle sample.
KAT_E2E_ROUNDS = 3


@dataclass
class Phase:
    """One measured window: its records and, in the open loop, send lags."""

    traced: bool
    start: float
    stop: float
    records: list[Record]
    lags_ms: list[float]


async def run_child(args: argparse.Namespace) -> dict[str, Any]:
    """Set up, load, verify; returns the child's result object."""
    workload = WORKLOADS[args.workload]
    traced = args.mode != "e2e"
    smoke = args.mode == "smoke"
    server_rec, client_rec = InMemoryRecorder(), InMemoryRecorder()
    tracers = [Tracer(recorder=rec, enabled=False) for rec in (server_rec, client_rec)]
    rig = make_rig(
        workload,
        args.seed,
        server_tracer=tracers[0] if traced else None,
        client_tracer=tracers[1] if traced else None,
    )
    if isinstance(rig, KatRig) and not traced:
        rig.min_rounds = KAT_E2E_ROUNDS
    await rig.open()
    result: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": time.time() - args.spawned_at,
    }
    warmup = min(SMOKE_WARMUP_S if smoke else WARMUP_S, workload.warmup_s)
    rig.prepare(warmup + args.window + 1.0)
    result["stream_digest"] = rig.digest
    warm = await rig.run(warmup) if warmup else []

    phases: list[Phase] = []
    before = await rig.info()
    pattern = (False, True) * (SMOKE_PAIRS if smoke else PAIRS) if traced else (False,)
    for on in pattern:
        for tracer in tracers:
            tracer.enabled = on
        start = clock()
        records = await rig.run(args.window / len(pattern))
        phases.append(Phase(on, start, clock(), records, rig.lags_ms))
    after = await rig.info()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = rig.verify()
    everything = [r for phase in phases for r in phase.records]
    cosim: dict[str, float] = {}
    if isinstance(rig, KatRig):
        # the offline model costs more than a round: the traced pass runs it
        cosim = (
            replay.cosim_metrics(
                after,
                sum(phase.stop - phase.start for phase in phases),
                len(everything) // KAT_ROUND_OPS,
            )
            if traced
            else replay.served_cycles(after)
        )
        wrong += int(
            cosim["cosim.served_ne_offline"] + cosim["cosim.worse_than_recorded"]
        )
    result["attempted"] = len(everything)
    result["failed"] = sum(not r.ok for r in everything + warm) + wrong

    # the end-to-end view comes from the untraced windows only
    plain = [phase for phase in phases if not phase.traced]
    result["load"] = _load(plain)
    if traced:
        server_spans, client_spans = server_rec.to_dicts(), client_rec.to_dicts()
        out = _layer_metrics(rig, phases, before, after, server_spans, client_spans)
        out["trace.overhead_share"] = (
            1.0 - out.pop("traced_ops_per_s") / result["load"]["ops_per_s"]
        )
        out["loadgen.failed"] += wrong
        out.update(cosim)
        per_op = layers.op_metrics([r for p in plain for r in p.records])
        out.update(
            {f"loadgen.{name}": v for name, v in per_op.items() if v is not None}
        )
        log, kernel_rows = _replay(
            rig, server_spans, SMOKE_REPLAY_BATCHES if smoke else REPLAY_BATCHES
        )
        out.update(kernel_rows)
        if args.out:
            path = Path(args.out) / f"trace.{workload.name}.jsonl"
            with open(path, "w", encoding="utf-8") as stream:
                for span in server_spans + client_spans + log.spans:
                    stream.write(json.dumps(span, separators=(",", ":")) + "\n")
        result["layers"] = _declared_only(out)
    await rig.close()
    return result


def _load(phases: list[Phase]) -> dict[str, float]:
    """``ops_per_s`` and ``op_p50_ms`` over the given windows, pooled."""
    return layers.load_metrics(
        [r for phase in phases for r in phase.records],
        sum(phase.stop - phase.start for phase in phases),
    )


def _layer_metrics(
    rig: Rig, phases: list[Phase], before: list[dict], after: list[dict],
    server_spans: list[dict], client_spans: list[dict],
) -> dict[str, float]:
    """The serving path's layers, from records, spans and ``INFO``."""
    everything = [r for phase in phases for r in phase.records]
    lags_ms = [lag for phase in phases if not phase.traced for lag in phase.lags_ms]
    traced = [phase for phase in phases if phase.traced]
    out: dict[str, float] = {
        "loadgen.sent": len(everything),
        "loadgen.ok": sum(r.ok for r in everything),
        "loadgen.failed": sum(not r.ok for r in everything),
        "loadgen.sched_lag_p99_ms": percentile(lags_ms, 0.99) if lags_ms else 0.0,
        "traced_ops_per_s": _load(traced)["ops_per_s"],
    }
    out.update(layers.protocol_metrics(rig.wire_shapes()))
    out.update(
        layers.span_metrics(
            server_spans,
            client_spans,
            sum(phase.stop - phase.start for phase in traced),
            sum(layers.backend_workers(info) for info in after),
        )
    )
    out.update(
        layers.info_metrics(
            before, after, sum(phase.stop - phase.start for phase in phases)
        )
    )
    return out


def _replay(
    rig: Rig, server_spans: list[dict], batches: int
) -> tuple[replay.SpanLog, dict[str, float]]:
    """The workload's kernel replay (``cosim-kat`` has the cosim rows instead)."""
    log = replay.SpanLog()
    if isinstance(rig, KatRig):
        return log, {}
    if rig.scheme.name != "lac":
        return log, replay.replay_newhope(rig, batches, log)
    observed = [
        (s["tags"]["op"], s["tags"]["batch_size"])
        for s in server_spans
        if s["name"] == "server.batch"
    ]
    return log, replay.replay_lac(rig, observed, batches, log)


def _declared_only(out: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric; a layer never entered reads 0."""
    declared = {m.name for m in spec.load().per_layer}
    stray = sorted(set(out) - declared)
    if stray:
        raise RuntimeError(f"undeclared per-layer metrics: {stray}")
    return {name: float(out.get(name, 0.0)) for name in sorted(declared)}


def main(argv: list[str]) -> int:
    """Entry point of the child process."""
    parser = argparse.ArgumentParser(prog="ledger child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("e2e", "traced", "smoke"), required=True)
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    result = asyncio.run(run_child(args))
    print(json.dumps(result))
    return 0

