"""``python -m bench``: the same command as ``python3 bench/run.py``."""

import sys

from bench.cli import main

sys.exit(main())
