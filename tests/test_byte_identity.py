"""The benchmark's byte-identity gate as a test: one job of each benchmark
job kind at the recorded seed must write files whose sha256 digests equal
``benchmark/expected_digests.json``. The benchmark pins BLAS to one thread
in its worker processes, which the recorded digests assume."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_outputs_match_recorded_digests():
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--verify"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "MISMATCH" not in run.stdout
