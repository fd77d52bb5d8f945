"""Process settings shared by the benchmark's entry scripts.

`configure()` must run before NumPy is imported: it pins every BLAS pool to
one thread, so that timings do not depend on how many cores are idle, and
puts the checkout's `src` directory first on the import path, so that the
benchmark drives the program of this checkout and never an installed copy.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure() -> None:
    if not (SRC / "evchargelab").is_dir():
        sys.exit(f"no evchargelab source under {SRC}: run from a checkout of the repository")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
