"""Smoke test for the scripts in ``scripts/``: each runs on a small corpus, or
``compare_runs.py`` on two small runs, and prints its expected lines. They
import the package, so an API change that breaks them fails here."""
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from proxprune import checkpoint, cli, config, data, robustness, zoo

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text("utf-8")
_SPEC = importlib.util.spec_from_file_location("study_script", ROOT / "scripts" / "study.py")
study_script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(study_script)
Z_SUM = 1.959963984540054 + 0.8416212335729143  # z_0.975 + z_0.8


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


def sharpened(ckpt, factor, out):
    """Write the checkpoint with parameter w1 scaled by factor to out."""
    model, params, _ = checkpoint.load(ckpt)
    params["w1"][:] *= factor
    checkpoint.save(out, model.arch(), params, model.structures(), model.groups())
    return out


@pytest.fixture(scope="module")
def trained(script_corpus, tmp_path_factory):
    """(config text, checkpoint) of a model that `proxprune train` wrote."""
    tmp_path = tmp_path_factory.mktemp("trained")
    text = (f"[data]\ncorpus = {script_corpus}\ncalib_size = 4\nholdout_size = 2\n"
            "[train]\nepochs = 1\nsteps_per_epoch = 2\n[noise]\nm = 2\n")
    cfg = tmp_path / "train.ini"
    cfg.write_text(text)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    return text, tmp_path / "t" / "model.ckpt"


@pytest.fixture(scope="module")
def study(trained, tmp_path_factory):
    """One run of study.py on a sharpened trained model, and a helper that
    runs a `proxprune` command on the same sharpened weights at a seed and
    returns the JSON it writes."""
    tmp_path = tmp_path_factory.mktemp("study")
    text, ckpt = trained
    cfg = tmp_path / "study.ini"
    cfg.write_text(
        text + "[moreau]\nsteps = 2\n"
        "[robustness]\nspecs = fp16:bf16,gaussian\ncriteria = plain,moreau\n"
    )
    sharp = sharpened(ckpt, 50, tmp_path / "sharp.ckpt")
    lines = run_script("study.py", "--config", cfg, "--checkpoint", ckpt,
                       "--seeds", "2", "--sharpen", "50")

    def report(seed, *argv):
        out = tmp_path / "_".join(map(str, (seed, *argv)))
        argv = [*argv, "--config", str(cfg), "--checkpoint", str(sharp), "--seed", str(seed)]
        assert cli.main([*argv, "--out", str(out)]) == 0
        return json.loads(next(out.glob("*.json")).read_text())

    return lines, report


def test_robustness_table(study):
    """Per [robustness] spec, the study prints one row per seed and criterion
    with the distances that `proxprune robustness --seed s` writes for the
    sharpened weights, then their means over seeds to 6 significant digits
    with the mean Kendall tau between the legs, and moreau's differences
    from plain, paired by seed, in rel and symdiff and then in tau, and
    then the held-out loss block."""
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
    assert lines[10].startswith(f"     plain  rel={plain_rel:.6g}  jaccard=")
    assert lines[11].startswith("    moreau  rel=")
    drel = [rows[s][1]["importance_rel"] - rows[s][0]["importance_rel"] for s in (0, 1)]
    dsym = [rows[s][1]["symdiff"] - rows[s][0]["symdiff"] for s in (0, 1)]
    assert lines[12].startswith(f"    moreau-plain  drel={(drel[0] + drel[1]) / 2:+.2e}  95% CI [")
    sd = abs(drel[0] - drel[1]) / math.sqrt(2)  # the sample SD of two values
    assert f"  n20={math.ceil((Z_SUM * sd / (0.2 * plain_rel)) ** 2)}  dsymdiff=" in lines[12]
    n = sum(d != 0 for d in dsym)
    p = 0.5 if n == 2 and dsym[0] * dsym[1] > 0 else 1.0  # both flips one way: 2 / 2**2
    assert lines[12].endswith(
        f"  dsymdiff={(dsym[0] + dsym[1]) / 2:+.2f}  sign p={p:.3f} over {n}")
    for line in lines[10:12]:
        assert -1 <= float(line.split("  tau=")[1]) <= 1
    assert lines[13].startswith("    moreau-plain  dtau=")
    assert lines[14:17] == ["", "none->gaussian-ball(eps=0.01)", header]
    assert [line.split()[:2] for line in lines[17:21]] == [
        ["plain", "0"], ["moreau", "0"], ["plain", "1"], ["moreau", "1"]
    ]
    assert lines[21:23] == ["", "mean over seeds:"]
    assert lines[25].startswith("    moreau-plain  drel=")
    assert lines[26].startswith("    moreau-plain  dtau=")
    assert lines[27:29] == ["", "held-out loss before and after pruning"]


def test_held_out_loss_table(study):
    """Per seed and criterion, the study prints the held-out loss before and
    after pruning that `proxprune prune --seed s --criterion c` writes for
    the sharpened weights, then their means over seeds and moreau's paired
    difference from plain in the loss after pruning, with n20 taken against
    plain's mean loss increase."""
    lines, report = study
    docs = {(seed, c): report(seed, "prune", "--criterion", c)
            for seed in (0, 1) for c in ("plain", "moreau")}
    loss = {key: (doc["holdout_loss_before"], doc["holdout_loss_after"])
            for key, doc in docs.items()}
    assert lines[29:34] == [
        " criterion seed     before      after",
        *(f"{c:>10s} {seed:>4d} {loss[seed, c][0]:>10.6f} {loss[seed, c][1]:>10.6f}"
          for seed in (0, 1) for c in ("plain", "moreau")),
    ]
    mean = {c: [(loss[0, c][i] + loss[1, c][i]) / 2 for i in (0, 1)] for c in ("plain", "moreau")}
    assert lines[34:38] == [
        "", "mean over seeds:",
        f"     plain  before={mean['plain'][0]:.6g}  after={mean['plain'][1]:.6g}",
        f"    moreau  before={mean['moreau'][0]:.6g}  after={mean['moreau'][1]:.6g}",
    ]
    dafter = [loss[seed, "moreau"][1] - loss[seed, "plain"][1] for seed in (0, 1)]
    damage = mean["plain"][1] - mean["plain"][0]
    sd = abs(dafter[0] - dafter[1]) / math.sqrt(2)
    assert lines[38].startswith(f"    moreau-plain  dafter={(dafter[0] + dafter[1]) / 2:+.2e}  ")
    assert lines[38].endswith(f"  n20={math.ceil((Z_SUM * sd / (0.2 * damage)) ** 2)}")
    assert len(lines) == 39


def test_paired_statistics_on_a_hand_computed_case():
    """Per-seed differences 1, 2, 3, 4 have mean 2.5 and, all four positive,
    a two-sided sign-test p of 2 / 2**4; seeds whose difference is zero carry
    no sign and drop out of the test but not out of the mean; the bootstrap
    interval is the same on every call. n20 on differences (1, 2, 3, 4) * 1e-4
    against a mean of 1e-3 is 4 seeds."""
    paired = study_script.paired
    mean, (lo, hi), p, n = paired([1, 2, 3, 4])
    assert (mean, p, n) == (2.5, 0.125, 4)
    assert 1 <= lo < mean < hi <= 4
    assert paired([1, 2, 3, 4]) == paired([1, 2, 3, 4])
    mean, _, p, n = paired([0, 1, -2, 3, 0])
    assert (mean, p, n) == (0.4, 1.0, 3)  # one sign of three: p = 2 (1 + 3) / 2**3, capped
    assert paired([0, 0])[2:] == (1.0, 0)
    assert paired([-1, -1, -1, -1, -1, 0])[2:] == (0.0625, 5)
    # sample SD 1.29e-4 of these differences, against 20% of a mean 1e-3:
    # (2.8016 * 1.29e-4 / 2e-4)**2 = 3.27 seeds, so 4
    n20 = study_script.n20
    assert n20([1e-4, 2e-4, 3e-4, 4e-4], 1e-3) == 4
    assert n20([1e-4], 1e-3) is None and n20([1e-4, 2e-4], 0.0) is None


def test_kendall_tau_on_hand_computed_cases():
    """(1, 2, 3, 4) against (1, 3, 2, 4): 5 concordant pairs, 1 discordant,
    so 4/6. (1, 1, 2) against (1, 2, 3): 2 concordant pairs, 1 tied in x, so
    2 / sqrt(2 * 3). A constant leg has no tau. Per class, the taus are
    weighted by class size, and a class without a tau is left out."""
    tau = study_script.kendall_tau_b
    assert tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-15)
    assert tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / math.sqrt(6), abs=1e-15)
    assert math.isnan(tau([5, 5], [1, 2]))
    cls_map = {0: "a", 1: "a", 2: "a", 3: "a", 4: "b", 5: "b", 6: "b", 7: "c"}
    scores_a = [1, 2, 3, 4, 1, 1, 2, 9]
    scores_b = [1, 3, 2, 4, 1, 2, 3, 9]
    row = robustness.RobustnessReport(
        "plain", "bf16-roundtrip", "fp16-roundtrip", 0.0, 0.0, 1.0, 0, 0.0, 0.0,
        group_scores_a=dict(enumerate(scores_a)), group_scores_b=dict(enumerate(scores_b)),
        cls_map=cls_map,
    )
    want = (4 * (4 / 6) + 3 * (2 / math.sqrt(6))) / 7
    assert study_script.class_tau(row) == pytest.approx(want, abs=1e-15)
    assert math.isnan(study_script.class_tau(replace(row, cls_map={7: "c"})))


def test_study_sharpen_needs_w1(script_corpus, tmp_path):
    """--sharpen on a model without w1 is a usage error, not a traceback."""
    model = zoo.TinyTransformer.build(data.VOCAB, 8, 2, 1, max_len=8)
    ckpt = tmp_path / "tf.ckpt"
    checkpoint.save(ckpt, model.arch(), model.init_params(0), model.structures(), model.groups())
    err = run_script("study.py", "--corpus", script_corpus, "--checkpoint", ckpt,
                     "--sharpen", "50", code=2, stderr=True)
    assert err[0].startswith("usage: study.py")
    assert err[-1] == f"study.py: error: --sharpen scales parameter w1, which {ckpt} does not hold"


@pytest.mark.parametrize(
    "moreau, sharpen, code",
    [("rho = 1e9\ngamma = 1e9\n", 0, cli.EXIT_OPTIMIZER), ("", 1e300, cli.EXIT_CONFIG)],
    ids=["proximal-divergence", "fp16-overflow"],
)
def test_study_fails_as_robustness_does(trained, tmp_path, capsys, moreau, sharpen, code):
    """On a config whose proximal loop diverges, and on weights sharpened past
    the fp16 range, the study exits with the code of `proxprune robustness`
    on the same config and weights, and its last stderr line is the one that
    command prints; neither ends in a traceback."""
    text, ckpt = trained
    cfg = tmp_path / "fail.ini"
    cfg.write_text(text + f"[moreau]\n{moreau}steps = 2\n[robustness]\ncriteria = plain,moreau\n")
    weights = sharpened(ckpt, sharpen, tmp_path / "sharp.ckpt") if sharpen else ckpt
    argv = ["--config", str(cfg), "--checkpoint", str(weights), "--seed", "0"]
    assert cli.main(["robustness", *argv, "--out", str(tmp_path / "r")]) == code
    expected = capsys.readouterr().err.splitlines()[-1]
    err = run_script("study.py", "--config", cfg, "--checkpoint", ckpt, "--seeds", "1",
                     "--sharpen", sharpen, code=code, stderr=True)
    assert err[-1] == expected
    assert not any("Traceback" in line for line in err)


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


@pytest.mark.parametrize(
    "damage",
    [lambda raw: raw[:-5], lambda raw: b"\xff" + raw,
     lambda raw: b"[" * 10_000 + raw + b"]" * 10_000],
    ids=["truncated", "not-utf8", "too-deep"],
)
def test_compare_runs_damaged_report(tmp_path, damage):
    """A .json file that is not UTF-8 JSON in either run, or that nests deeper
    than json loads, is compared byte for byte, and its line names the run
    whose copy is not JSON. Two damaged copies with equal bytes are equal; no
    case ends in a traceback."""
    raw = json.dumps({"prune_set": [1, 2]}).encode()
    for broken, verdict in (("A", "differ"), ("B", "differ"), ("A and B", "equal")):
        a, b = tmp_path / broken / "a", tmp_path / broken / "b"
        for side, d in (("A", a), ("B", b)):
            d.mkdir(parents=True)
            (d / "robustness.json").write_bytes(damage(raw) if side in broken else raw)
        lines = run_script("compare_runs.py", a, b, code=0 if verdict == "equal" else 1)
        assert lines == [
            f"robustness.json: bytes {verdict} (not JSON in {broken})",
            f"verdict: {verdict}",
        ]


def test_compare_runs_report_that_is_not_an_object(tmp_path):
    """A .json file whose top level is an array, not a report object, in
    either run is compared by its values and records no tied cuts; no case
    ends in a traceback."""
    report, array = json.dumps({"prune_set": [1, 2]}), json.dumps([1])
    expected = {
        "A": ["robustness.json: differs (0 prune sets, no tied cuts recorded)",
              "  [0]: 1 -> '<absent>'",
              "  prune_set[]: 2 of 2 differ, e.g. prune_set[0]: '<absent>' -> 1",
              "  prune set prune_set: only in A [], only in B [1, 2]",
              "verdict: differ"],
        "B": ["robustness.json: differs (1 prune set, no tied cuts recorded)",
              "  [0]: '<absent>' -> 1",
              "  prune_set[]: 2 of 2 differ, e.g. prune_set[0]: 1 -> '<absent>'",
              "  prune set prune_set: only in A [1, 2], only in B []",
              "verdict: differ"],
        "A and B": ["robustness.json: equal (0 prune sets, no tied cuts recorded)",
                    "verdict: equal"],
    }
    for arrays, lines in expected.items():
        a, b = tmp_path / arrays / "a", tmp_path / arrays / "b"
        for side, d in (("A", a), ("B", b)):
            d.mkdir(parents=True)
            (d / "robustness.json").write_text(array if side in arrays else report)
        code = 0 if lines[-1] == "verdict: equal" else 1
        assert run_script("compare_runs.py", a, b, code=code) == lines


@pytest.mark.parametrize(
    "doc",
    [{"groups": [{"id": 1}]}, {"groups": [1, 2]},
     {"groups": [{"id": [1], "score": 0.5, "pruned": True, "class": "channel"}]},
     {"prune_set": [[1]]}, {"prune_set": [3, "a"]}],
    ids=["group-without-score", "groups-not-objects", "unhashable-id",
         "unhashable-ids", "mixed-ids"],
)
def test_compare_runs_groups_or_prune_sets_unlike_a_report(tmp_path, doc):
    """A .json object whose ``groups`` are not an importance report's, or whose
    prune set holds ids that are not ints, in either run is compared by its
    values: exit 0 when the runs are equal and 1 when they differ, never a
    traceback."""
    report = json.dumps({"prune_set": [1, 2]})
    for odd, code in (("A", 1), ("B", 1), ("A and B", 0)):
        a, b = tmp_path / odd / "a", tmp_path / odd / "b"
        for side, d in (("A", a), ("B", b)):
            d.mkdir(parents=True)
            (d / "report.json").write_text(json.dumps(doc) if side in odd else report)
        assert run_script("compare_runs.py", a, b, code=code, stderr=True) == []


@pytest.mark.parametrize(
    "doc_a, doc_b, path, value_a, value_b",
    [({"prune_set": [], "ratio": 0.0}, {"ratio": 0.0}, "prune_set", [], "<absent>"),
     ({"extra": {}}, {"extra": []}, "extra", {}, []),
     ({"a.b": 1}, {"a": {"b": 1}}, '["a.b"]', 1, "<absent>")],
    ids=["empty-array-or-absent", "empty-object-or-array", "dotted-key-or-nested"],
)
def test_compare_runs_documents_that_are_not_equal_values(tmp_path, doc_a, doc_b, path,
                                                           value_a, value_b):
    """Two JSON documents that are not equal values differ, whichever run
    holds which: an empty array against an absent key, an empty object
    against an empty array, a dotted key against a nested one. The line
    names the path that differs, and each document is equal to itself."""
    for name, (a_doc, b_doc), code in (("ab", (doc_a, doc_b), 1), ("ba", (doc_b, doc_a), 1),
                                       ("aa", (doc_a, doc_a), 0), ("bb", (doc_b, doc_b), 0)):
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        for d, doc in ((a, a_doc), (b, b_doc)):
            d.mkdir(parents=True)
            (d / "report.json").write_text(json.dumps(doc))
        lines = run_script("compare_runs.py", a, b, code=code)
        shown = (value_a, value_b) if name == "ab" else (value_b, value_a)
        if code:
            assert f"  {path}: {shown[0]!r} -> {shown[1]!r}" in lines
            assert lines[-1] == "verdict: differ"
        else:
            assert lines[-1] == "verdict: equal"


def test_readme_ini_blocks_load(tmp_path):
    """Every INI block of README.md is a config that loads, with the corpus
    overridden as --corpus does."""
    blocks = re.findall(r"```ini\n(.*?)```", README, re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = tmp_path / f"{i}.ini"
        path.write_text(block)
        config.load_config(str(path), {"corpus": "corpus.txt"})


def test_readme_study_invocations_pass_only_listed_options():
    """Every scripts/study.py invocation in README.md, continuation lines
    included, passes only options that `study.py --help` lists."""
    listed = set(re.findall(r"--[a-z][a-z-]*", "\n".join(run_script("study.py", "--help"))))
    calls = re.findall(r"study\.py((?:\\\n|[^\n])*)", README)
    used = [set(re.findall(r"--[a-z][a-z-]*", call)) for call in calls]
    assert sum("--checkpoint" in options for options in used) >= 2
    assert all(options <= listed for options in used), [o - listed for o in used]


@pytest.mark.parametrize("ids_b, shown", [([4, 7, 11], []), ([4, 7, 12], [11, 12])],
                         ids=["same-set", "one-swap"])
def test_compare_runs_matches_prune_sets_by_path(tmp_path, ids_b, shown):
    """A prune set is matched by its path, whatever the criterion of the
    report that holds it: against a moreau report, a moreau-gs report lists
    only the ids that one of the two sets holds."""
    for side, doc in (("a", {"criterion": "moreau", "prune_set": [4, 7, 11]}),
                      ("b", {"criterion": "moreau-gs", "prune_set": ids_b})):
        (tmp_path / side).mkdir()
        (tmp_path / side / "importance.json").write_text(json.dumps(doc))
    lines = run_script("compare_runs.py", tmp_path / "a", tmp_path / "b", code=1)
    assert "  criterion: 'moreau' -> 'moreau-gs'" in lines
    assert [line for line in lines if line.startswith("  prune set ")] == (
        [f"  prune set prune_set (moreau): only in A [{shown[0]}], only in B [{shown[1]}]"]
        if shown else [])
