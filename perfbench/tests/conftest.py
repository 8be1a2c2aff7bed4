"""Make the benchmark's modules and the library importable in its tests.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
