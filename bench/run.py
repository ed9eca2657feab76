"""Run the repository benchmark: ``python3 bench/run.py --workload NAME ...``.

See ``bench/README.md`` and :mod:`bench.cli` for the options.
"""

import sys
from pathlib import Path

# the repository root, in place of this script's directory, so that the
# ``bench`` package is importable and its modules shadow nothing
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
