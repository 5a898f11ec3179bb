"""Machine fingerprint carried by every report.

Two reports are comparable only when they were measured on the same
number of usable processors with the same numpy/BLAS build and the same
schedule;
:func:`comparable` is the check ``compare`` refuses on.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

from .spec import ROOT


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def collect(seed: int, reps: int, window_s: float) -> dict[str, Any]:
    """Everything that decides whether two reports may be compared."""
    import numpy

    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
        "OMP_NUM_THREADS"
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads": threads or "library default",
        "governor": _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        or "unreadable",
        "git_commit": _git_commit(),
        "seed": seed,
        "reps": reps,
        "window_s": window_s,
    }


def comparable(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Reasons two fingerprints must not be compared (empty = fine)."""
    return [
        f"{key}: {a.get(key)!r} vs {b.get(key)!r}"
        for key in ("nproc", "numpy", "blas", "reps", "window_s")
        if a.get(key) != b.get(key)
    ]
