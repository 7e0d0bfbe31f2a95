"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest benchmark/checks.py``.
The file name keeps them out of the package's default test collection:
they run real CLI jobs in worker processes and take about half a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

from proxprune import cli  # noqa: E402


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert spec["paths"] == ["benchmark"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert workloads.DEFAULT_SEED == run.DEFAULT_SEED
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, tr.unit(name)) for name in tr.PER_LAYER
    ]
    assert len(set(tr.PER_LAYER)) == len(tr.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    files = ["corpus.txt", "exp.ini"] + (["fixture.ckpt"] if wl.fixture else [])

    def make(sub, seed):
        workloads.setup(wl, tmp_path / sub, seed)
        return {f: (tmp_path / sub / f).read_bytes() for f in files}

    first = make("a", 5)
    assert make("b", 5) == first
    assert make("c", 6)["corpus.txt"] != first["corpus.txt"]


def test_gate_fails_on_exit_code_missing_file_and_mismatch():
    gate = workloads.Gate({"k": {"f": "aa"}})
    assert gate.check("k", 0, {"f": "aa"})
    assert not gate.check("k", 0, {"f": "bb"})
    assert not gate.check("k", 2, {"f": "aa"})
    assert not gate.check("k", 0, {"f": None})
    fresh = workloads.Gate(None)
    assert not fresh.check("k", 1, {"f": "cc"})  # a failed job sets no reference
    assert fresh.check("k", 0, {"f": "dd"})
    assert not fresh.check("k", 0, {"f": "cc"})


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    times = [float(i) for i in range(30)]
    assert run.tail(times) == (19.0, 100.0 * 20 / 30)
    assert run.tail(times[:11]) == (0.0, 100.0 / 11)
    assert run.tail(times[:10]) == (9.0, 100.0)


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    """Two traced worker runs at the default seed, each one untraced cycle
    then one traced cycle, in the benchmark's own worker environment:
    output bytes depend on the BLAS thread count."""
    runs = []
    for sub in ("a", "b"):
        out = tmp_path_factory.mktemp(f"{request.param}-{sub}")
        _, result = run.spawn(
            ["--workload", request.param, "--seed", str(workloads.DEFAULT_SEED),
             "--mode", "trace", "--seconds", "0", "--dir", str(out)],
            time.monotonic() + run.DEADLINE_S,
        )
        spans = [json.loads(line) for line in (out / "spans.jsonl").read_text("utf-8").splitlines()]
        runs.append((result, spans))
    return workloads.WORKLOADS[request.param], runs


def test_traced_digests_equal_untraced_and_recorded(traced):
    wl, runs = traced
    for result, _ in runs:
        jobs = result["jobs"]
        assert all(j["ok"] for j in jobs)  # checked against expected_digests.json
        untraced = {j["kind"]: j["digests"] for j in jobs if j["phase"] == "timed"}
        assert len(untraced) == len(wl.kinds)
        assert [j["phase"] for j in jobs].count("traced") == len(wl.kinds)
        for j in jobs:
            assert j["digests"] == untraced[j["kind"]]


def test_self_times_sum_to_each_job_wall_time(traced):
    _, runs = traced
    for result, spans in runs:
        selfs = tr.self_times(spans)
        for job, j in enumerate(result["jobs"]):
            if j["phase"] != "traced":
                continue
            mine = [(rec, s) for rec, s in zip(spans, selfs) if rec[2] == job]
            roots = [rec for rec, _ in mine if rec[1] == -1]
            assert [rec[3] for rec in roots] == ["cli.main"]
            total = sum(s for _, s in mine)
            assert total == pytest.approx(roots[0][5] - roots[0][4], rel=1e-9)
            assert abs(total - j["s"]) <= 1e-3 + 0.01 * j["s"]
            assert min(s for _, s in mine) >= -1e-9
        assert result["per_layer"]["cli.main.self_s"]["value"] >= 0


def test_computed_counts_repeat_exactly(traced):
    _, ((first, _), (second, _)) = traced
    counted = [m for m in tr.PER_LAYER if m in tr.COUNTERS or m.endswith(".calls")]
    assert {m: first["per_layer"][m] for m in counted} == {
        m: second["per_layer"][m] for m in counted
    }
    assert first["per_layer"]["autodiff.tape_entries"]["value"] > 0


def test_uninstall_restores_the_program():
    from proxprune import autodiff, moreau, params, robustness, zoo

    before = (cli.main, autodiff.matmul, autodiff.Tape.record, moreau.flatten_map,
              robustness.channel_layout, params.ParamSet.add, zoo.TinyTransformer.loss)
    tracer = tr.Tracer()
    tracer.install()
    assert cli.main is not before[0]
    tracer.uninstall()
    after = (cli.main, autodiff.matmul, autodiff.Tape.record, moreau.flatten_map,
             robustness.channel_layout, params.ParamSet.add, zoo.TinyTransformer.loss)
    assert after == before


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    (tmp_path / "benchmark").mkdir()
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "benchmark")
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "tf-train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
