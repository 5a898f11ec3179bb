"""Script entry: ``python3 benchmarks/ledger/run.py ...``.

Puts the repository root and ``src/`` on ``sys.path`` (the benchmark
builds nothing: the program is pure Python run from the checkout's own
source, never from an installed copy), then hands over to
:mod:`benchmarks.ledger.cli`.  In a directory without ``src/repro`` it
exits non-zero without a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")

    from benchmarks.ledger.cli import main

    sys.exit(main(sys.argv[1:]))
