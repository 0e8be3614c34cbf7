"""The pipeline benchmark: four named workloads from vehicle socket to
solicitation list, end-to-end metrics and a traced per-layer budget.

Driven as ``python3 -m benchmarks.pipeline --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root (the contract of
``BENCHMARK.json``); ``README.md`` in this directory is the reference
for every workload and metric name.  The package is self-contained:
it puts the repository's ``src/`` on ``sys.path`` itself, touches no
file outside its own directory, and writes scratch state only under
``benchmarks/pipeline/.work/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"


def bootstrap() -> None:
    """Make ``repro`` importable; exit non-zero when the program is absent.

    The benchmark measures the program in this checkout, never an
    installed copy, so ``src/`` goes first on the path.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"pipeline benchmark: no program to measure at {SRC_DIR}\n")
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
