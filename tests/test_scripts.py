"""Smoke test for the scripts in ``scripts/``: each runs on a small corpus, or
``compare_runs.py`` on two small runs, and prints its expected lines. They
import the package, so an API change that breaks them fails here."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == code, run.stdout + run.stderr
    return run.stdout.splitlines()


def run_script(name, *args, code=0):
    return run_python(ROOT / "scripts" / name, *args, code=code)


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


def test_compare_runs(script_corpus, tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        f"[data]\ncorpus = {script_corpus}\ncalib_size = 4\nholdout_size = 2\n"
        "[train]\nepochs = 1\nsteps_per_epoch = 2\n[robustness]\ncriteria = plain\n"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    cli = ("-m", "proxprune")
    run_python(*cli, "train", "--config", cfg, "--out", a / "train")
    ckpt = ("--config", cfg, "--checkpoint", a / "train" / "model.ckpt")
    run_python(*cli, "prune", *ckpt, "--criterion", "plain", "--out", a / "prune")
    run_python(*cli, "robustness", *ckpt, "--out", a / "robustness")
    shutil.copytree(a, b)
    lines = run_script("compare_runs.py", a, b)
    assert "prune/importance.json: equal (1 prune set, tied cuts [])" in lines
    assert "robustness/robustness.json: equal (2 prune sets, no tied cuts recorded)" in lines
    assert "train/model.ckpt: bytes equal" in lines
    assert lines[-1] == "verdict: equal"

    # b: one kept group's score ties the class's highest pruned score, one
    # robustness prune set swaps an id, and the importance CSV is missing
    path = b / "prune" / "importance.json"
    doc = json.loads(path.read_text())
    groups = doc["groups"]
    top = max(g["score"] for g in groups if g["pruned"])
    kept = min((g for g in groups if not g["pruned"]), key=lambda g: g["score"])
    old_score, kept["score"] = kept["score"], top
    path.write_text(json.dumps(doc))
    path = b / "robustness" / "robustness.json"
    doc = json.loads(path.read_text())
    row = doc["rows"][0]
    dropped, added = row["prune_set_b"][0], max(row["prune_set_b"]) + 1
    row["prune_set_b"] = sorted(row["prune_set_b"][1:] + [added])
    path.write_text(json.dumps(doc))
    (b / "prune" / "importance.csv").unlink()

    lines = run_script("compare_runs.py", a, b, code=1)
    i = kept["id"]
    rel = abs(top - old_score) / max(abs(top), abs(old_score))
    assert "prune/importance.csv: only in A" in lines
    assert "prune/importance.json: differs (1 prune set, tied cuts [])" in lines
    assert (
        f"  groups[].score: 1 of {len(groups)} differ, "
        f"e.g. groups[{i}].score: {old_score!r} -> {top!r}"
    ) in lines
    assert f"  largest relative change: {rel:.3g} at groups[{i}].score ({old_score!r} -> {top!r})" in lines
    assert f"  tied cuts: A [], B ['{kept['class']}']" in lines
    assert (
        f"  prune set rows[0].prune_set_b (plain): only in A [{dropped}], only in B [{added}]"
    ) in lines
    assert "prune/pruned.ckpt: bytes equal" in lines
    assert lines[-1] == "verdict: differ"
    run_script("compare_runs.py", a, tmp_path / "missing", code=2)
