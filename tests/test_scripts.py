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

from proxprune import checkpoint, cli, data, zoo

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, code=0, stderr=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == code, run.stdout + run.stderr
    return (run.stderr if stderr else run.stdout).splitlines()


def run_script(name, *args, code=0, stderr=False):
    return run_python(ROOT / "scripts" / name, *args, code=code, stderr=stderr)


@pytest.fixture(scope="module")
def script_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("scripts") / "corpus.txt"
    lines = run_script("make_corpus.py", path)
    assert lines == [f"wrote {path} ({path.stat().st_size} bytes)"]
    return path


@pytest.fixture(scope="module")
def study(script_corpus, tmp_path_factory):
    """One run of study.py on a sharpened trained model, and a helper that
    runs a `proxprune` command on the same sharpened weights at a seed and
    returns the JSON it writes."""
    tmp_path = tmp_path_factory.mktemp("study")
    cfg = tmp_path / "study.ini"
    cfg.write_text(
        f"[data]\ncorpus = {script_corpus}\ncalib_size = 4\nholdout_size = 2\n"
        "[train]\nepochs = 1\nsteps_per_epoch = 2\n[moreau]\nsteps = 2\n[noise]\nm = 2\n"
        "[robustness]\nspecs = fp16:bf16,gaussian\ncriteria = plain,moreau\n"
    )
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    ckpt = tmp_path / "t" / "model.ckpt"
    model, params, _ = checkpoint.load(ckpt)
    params["w1"][:] *= 50
    sharp = tmp_path / "sharp.ckpt"
    checkpoint.save(sharp, model.arch(), params, model.structures(), model.groups())
    lines = run_script("study.py", "--config", cfg, "--checkpoint", ckpt,
                       "--seeds", "2", "--sharpen", "50", "--etas", "5e-6,1")

    def report(seed, *argv):
        out = tmp_path / "_".join(map(str, (seed, *argv)))
        argv = [*argv, "--config", str(cfg), "--checkpoint", str(sharp), "--seed", str(seed)]
        assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads(next(out.glob("*.json")).read_text())

    return lines, report


def test_robustness_table(study):
    """Per [robustness] spec, the study prints one row per seed and criterion
    with the distances that `proxprune robustness --seed s` writes for the
    sharpened weights, then their means over seeds."""
    lines, report = study
    header = " criterion seed       |dI|      rel  jaccard symdiff"
    rows = {seed: report(seed, "robustness")["rows"] for seed in (0, 1)}
    fp16_bf16 = [
        f"{r['criterion']:>10s} {seed:>4d} {r['importance_l2']:>10.3e} "
        f"{r['importance_rel']:>8.4f} {r['jaccard']:>8.3f} {r['symdiff']:>7d}"
        for seed in (0, 1) for r in rows[seed][:2]
    ]
    plain_rel = (rows[0][0]["importance_rel"] + rows[1][0]["importance_rel"]) / 2
    assert lines[:10] == [
        "sharpened w1 by x50", "", "fp16-roundtrip->bf16-roundtrip", header, *fp16_bf16,
        "", "mean over seeds:",
    ]
    assert lines[10].startswith(f"     plain  rel={plain_rel:.4f}  jaccard=")
    assert lines[11].startswith("    moreau  rel=")
    assert lines[12:15] == ["", "none->gaussian-ball(eps=0.01)", header]
    assert [line.split()[:2] for line in lines[15:19]] == [
        ["plain", "0"], ["moreau", "0"], ["plain", "1"], ["moreau", "1"]
    ]
    assert lines[19:21] == ["", "mean over seeds:"]


def test_eta_sweep(study):
    """After the robustness tables, the study prints one row per seed and eta
    with the groups moreau-gs zeroes and prunes and the overlap with moreau's
    prune set, as `proxprune prune --seed s` computes them."""
    lines, report = study
    assert lines[23:25] == ["", "seed        eta  zeroed  pruned  jaccard vs moreau"]
    assert [line.split()[:2] for line in lines[25:]] == [
        ["0", "5e-06"], ["0", "1"], ["1", "5e-06"], ["1", "1"]
    ]
    gs = report(1, "prune", "--criterion", "moreau-gs")
    pruned = set(gs["prune_set"])
    base = set(report(1, "prune", "--criterion", "moreau")["prune_set"])
    assert lines[27] == (f"   1      5e-06 {gs['extra']['zeroed_groups']:>7d} {len(pruned):>7d} "
                         f"{len(pruned & base) / len(pruned | base):>18.3f}")


def test_study_sharpen_needs_w1(script_corpus, tmp_path):
    """--sharpen on a model without w1 is a usage error, not a traceback."""
    model = zoo.TinyTransformer.build(data.VOCAB, 8, 2, 1, max_len=8)
    ckpt = tmp_path / "tf.ckpt"
    checkpoint.save(ckpt, model.arch(), model.init_params(0), model.structures(), model.groups())
    err = run_script("study.py", "--corpus", script_corpus, "--checkpoint", ckpt,
                     "--sharpen", "50", code=2, stderr=True)
    assert err[0].startswith("usage: study.py")
    assert err[-1] == f"study.py: error: --sharpen scales parameter w1, which {ckpt} does not hold"


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
