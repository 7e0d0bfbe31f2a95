"""Smoke test for the experiment scripts in ``scripts/``: each runs to exit 0
on a small corpus and prints its header line. They import the package, so an
API change that breaks them fails here."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout.splitlines()


@pytest.fixture(scope="module")
def script_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("scripts") / "corpus.txt"
    lines = run_script("make_corpus.py", path)
    assert lines == [f"wrote {path} ({path.stat().st_size} bytes)"]
    return path


def test_robustness_table(script_corpus):
    lines = run_script("robustness_table.py", script_corpus, "--seeds", "1", "--m", "2")
    assert " criterion seed       |dI|      rel  jaccard symdiff" in lines


def test_eta_sweep(script_corpus):
    lines = run_script("eta_sweep.py", script_corpus, "--etas", "0,1e-2")
    assert lines[0] == "       eta  zeroed  pruned  jaccard vs moreau"
    assert len(lines) == 3
