"""The benchmark's byte-identity gate as a test: one job of each benchmark
job kind at the recorded seed must write files whose sha256 digests equal
``benchmark/expected_digests.json``. The benchmark pins BLAS to one thread
in its worker processes, which the recorded digests assume. The digests
also assume numpy's AVX-512 (AVX512_SKX) kernels, so a failure names
numpy's version and whether that dispatch is active."""
import subprocess
import sys
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]


def host() -> str:
    active = "active" if __cpu_features__.get("AVX512_SKX") else "not active"
    return f"numpy {np.__version__}, AVX512_SKX dispatch {active}"


def test_benchmark_outputs_match_recorded_digests():
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--verify"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, f"{host()}\n{run.stdout}{run.stderr}"
    assert "MISMATCH" not in run.stdout, f"{host()}\n{run.stdout}"
