"""The ledger's command line.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, one JSON line: the form ``BENCHMARK.json`` names.
``PYTHONPATH=src python -m benchmarks.ledger --seed N --out DIR``
    all six workloads, repetitions interleaved, one report.
``... --smoke`` / ``--workload W`` / ``--traced-only``
    the quick plumbing check and the iterate-on-one-layer forms.
``... compare A.json B.json``
    verdict per (end-to-end metric, workload) against its bound.

Every measurement runs in a child process (:mod:`.child`) with the
``REPRO_*`` environment scrubbed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from . import spec
from .stats import median, spread

RUN_PY = Path(__file__).with_name("run.py")

#: One schedule for every form of the run.  An end-to-end measurement of
#: a workload is ``REPS`` fresh children, each timing one window of
#: ``run_seconds / REPS``; every value reported is the median over the
#: children.  A traced pass is one child over ``run_seconds``.
REPS = 3
SMOKE_WINDOW_S = 3.0
CHILD_TIMEOUT_S = 170


def spawn(
    workload: str, seed: int, mode: str, window: float, out: Path | None = None
) -> dict:
    """Run one child to completion; returns its result object."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    command = [
        sys.executable, str(RUN_PY), "child", "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--window", str(window),
        "--spawned-at", repr(time.time()),
    ]
    if out is not None:
        command += ["--out", str(out)]
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode:
        raise RuntimeError(f"{workload} {mode} child failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, declared: spec.Spec) -> dict[str, float]:
    """The declared end-to-end metrics of one child result."""
    flat = {**result["load"], **result}
    return {m.name: flat[m.name] for m in declared.end_to_end}


# -- the contract form ---------------------------------------------------


def run_contract(args: argparse.Namespace, declared: spec.Spec) -> int:
    """One workload, one JSON line on stdout."""
    if args.trace:
        children = [spawn(args.workload, args.seed, "traced", args.seconds)]
        values = children[0]["layers"]
        units = {m.name: m.unit for m in declared.per_layer}
    else:
        children = [
            spawn(args.workload, args.seed, "e2e", args.seconds / REPS)
            for _ in range(REPS)
        ]
        per_rep = [end_to_end(child, declared) for child in children]
        values = {name: median([rep[name] for rep in per_rep]) for name in per_rep[0]}
        units = {m.name: m.unit for m in declared.end_to_end}
    failed = sum(child["failed"] for child in children)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(child["attempted"] for child in children),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


# -- the full report -----------------------------------------------------


def metric_row(unit: str, values: list[float]) -> dict[str, Any]:
    """One report row: the median of per-repetition values and their spread."""
    return {
        "unit": unit,
        "median": median(values),
        "spread": spread(values),
        "values": values,
    }


def build_report(
    fp: dict, declared: spec.Spec, runs: dict[str, list[dict]], traced: dict[str, dict]
) -> dict[str, Any]:
    """Fold per-repetition child results into the report object."""
    workloads: dict[str, Any] = {}
    for name in declared.workloads:
        children = runs.get(name, []) + ([traced[name]] if name in traced else [])
        if not children:
            continue
        # with no untraced repetitions (smoke, --traced-only) the traced
        # child's untraced windows stand in for the end-to-end rows
        per_rep = [end_to_end(r, declared) for r in runs.get(name) or children]
        entry: dict[str, Any] = {
            "stream_digest": children[0]["stream_digest"],
            "attempted": sum(r["attempted"] for r in children),
            "failed": sum(r["failed"] for r in children),
            "end_to_end": {
                m.name: metric_row(m.unit, [rep[m.name] for rep in per_rep])
                for m in declared.end_to_end
            },
        }
        if name in traced:
            entry["per_layer"] = {
                m.name: {"unit": m.unit, "value": traced[name]["layers"][m.name]}
                for m in declared.per_layer
            }
        workloads[name] = entry
    return {"schema": 1, "fingerprint": fp, "workloads": workloads}


def print_report(report: dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    for name, entry in report["workloads"].items():
        print(f"\n== {name}  ({entry['attempted']} attempted, {entry['failed']} failed)")
        for metric, row in entry["end_to_end"].items():
            print(
                f"  {metric:44} {row['median']:14.4f} {row['unit']:7}"
                f" spread {row['spread']:.3f}"
            )
        for metric, row in entry.get("per_layer", {}).items():
            print(f"  {metric:44} {row['value']:14.4f} {row['unit']}")
        lag = entry.get("per_layer", {}).get("loadgen.sched_lag_p99_ms")
        if lag and lag["value"] > 2.0:
            print("  FLAG: the open-loop generator ran more than 2 ms late at p99")


def check_complete(
    report: dict[str, Any], declared: spec.Spec, names: list[str]
) -> list[str]:
    """Problems a smoke run must not have (empty = healthy)."""
    problems = []
    for name in names:
        entry = report["workloads"].get(name)
        if entry is None:
            problems.append(f"{name}: did not run")
            continue
        if entry["failed"]:
            problems.append(f"{name}: {entry['failed']} failed operations")
        rows = {k: v["median"] for k, v in entry["end_to_end"].items()}
        rows.update({k: v["value"] for k, v in entry.get("per_layer", {}).items()})
        for metric in (*declared.end_to_end, *declared.per_layer):
            value = rows.get(metric.name)
            if value is None or not math.isfinite(value):
                problems.append(f"{name}: {metric.name} is missing or not finite")
    return problems


def run_full(args: argparse.Namespace, declared: spec.Spec) -> int:
    """The six workloads, repetitions interleaved; writes ``report.json``."""
    from . import fingerprint

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = args.workload or list(declared.workloads)
    seconds = SMOKE_WINDOW_S if args.smoke else float(declared.run_seconds)
    reps = 0 if args.smoke or args.traced_only else REPS
    fp = fingerprint.collect(args.seed, reps, seconds / REPS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    # round-robin, so a noisy minute on the shared host costs each
    # workload one repetition, not one workload its whole sample
    for rep in range(reps):
        for name in names:
            print(f"rep {rep + 1}/{reps} {name}", file=sys.stderr)
            runs[name].append(spawn(name, args.seed, "e2e", seconds / REPS))
    # a smoke run checks the plumbing, not the speed: one child per core
    mode = "smoke" if args.smoke else "traced"
    with ThreadPoolExecutor(max_workers=fp["nproc"] if args.smoke else 1) as pool:
        jobs = [pool.submit(spawn, name, args.seed, mode, seconds, out) for name in names]
        traced = {name: job.result() for name, job in zip(names, jobs, strict=True)}
    report = build_report(fp, declared, runs, traced)
    print_report(report)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out / 'report.json'}")
    if args.smoke:
        problems = check_complete(report, declared, names)
    else:
        problems = [
            f"{name}: {entry['failed']} failed operations"
            for name, entry in report["workloads"].items()
            if entry["failed"]
        ]
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    """Dispatch ``child``, ``compare``, the contract form or the full run."""
    if argv[:1] == ["child"]:
        from .child import main as child_main

        return child_main(argv[1:])
    if argv[:1] == ["compare"]:
        from .compare import main as compare_main

        if len(argv) != 3:
            print("usage: compare A.json B.json", file=sys.stderr)
            return 2
        return compare_main(argv[1], argv[2])
    declared = spec.load()
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=declared.workloads)
    parser.add_argument("--out", default="ledger_out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced-only", action="store_true")
    parser.add_argument("--seconds", type=float, help="contract form: measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="contract form")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if args.seconds is None or not args.workload or len(args.workload) != 1:
            parser.error("--trace needs --seconds and exactly one --workload")
        args.workload = args.workload[0]
        return run_contract(args, declared)
    return run_full(args, declared)
