"""``PYTHONPATH=src python -m benchmarks.ledger ...``."""

import sys

from .cli import main

sys.exit(main(sys.argv[1:]))
