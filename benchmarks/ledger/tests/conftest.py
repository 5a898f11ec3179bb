"""Make ``benchmarks.ledger`` and ``repro`` importable from any cwd.

Run with ``pytest benchmarks/ledger/tests`` — these self-tests are not
part of tier-1's ``testpaths``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
