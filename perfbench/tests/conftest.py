"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

import shutil
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


@pytest.fixture
def work_dir(request):
    """A fresh directory under the benchmark's output directory."""
    import run

    path = run.OUT_DIR / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
