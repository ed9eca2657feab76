"""The repository benchmark: user-facing workloads with per-layer attribution.

See ``bench/README.md``.
"""

from pathlib import Path

#: Where runs write results, traces and the service socket (git-ignored).
OUT = Path(__file__).resolve().parent / "out"
