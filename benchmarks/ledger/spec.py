"""The declared benchmark: ``BENCHMARK.json`` is the one source.

Workload names, metric names, units, directions and regression bounds
are read from the file at the repository root, so the runner, the
``compare`` verdicts and the driver that gates later changes can never
disagree about them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Metric:
    """One declared metric (``bound`` is ``None`` for per-layer metrics)."""

    name: str
    unit: str
    better: str
    bound: float | None = None


@dataclass(frozen=True)
class Spec:
    """The parsed ``BENCHMARK.json``."""

    workloads: tuple[str, ...]
    end_to_end: tuple[Metric, ...]
    per_layer: tuple[Metric, ...]
    run_seconds: int


def load(path: Path = ROOT / "BENCHMARK.json") -> Spec:
    """Read the declaration (raises if the file is missing or malformed)."""
    raw = json.loads(path.read_text())
    return Spec(
        workloads=tuple(w["name"] for w in raw["workloads"]),
        end_to_end=tuple(Metric(**m) for m in raw["end_to_end"]),
        per_layer=tuple(Metric(**m) for m in raw["per_layer"]),
        run_seconds=int(raw["run_seconds"]),
    )
