"""Script entry of the benchmark: ``python3 benchmarks/e2e/run.py ...``.

Same command line as ``python -m benchmarks.e2e`` (see ``cli.py``), usable
from a checkout root without installing anything.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.e2e.cli import main

    sys.exit(main())
