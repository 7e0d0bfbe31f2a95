"""The benchmark's workloads: inputs generated from a seed, and the CLI jobs run on them.

A workload is a fixed experiment configuration plus a cycle of job kinds.
Every job is one in-process ``proxprune.cli.main(argv)`` call whose output
files are hashed, so the correctness gate can require byte-identical output.
"""
from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from proxprune import checkpoint, cli, data, zoo

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "expected_digests.json"

# Workload seed whose output digests are recorded in expected_digests.json.
DEFAULT_SEED = 0

CORPUS_WORDS = ("the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "and", "runs")
CORPUS_LEN = 3000

# The transformer shared by tf-prune and tf-train.
TRANSFORMER = {"kind": "transformer", "d_model": 32, "n_heads": 4, "n_layers": 2}
MLP = {"kind": "mlp", "context": 4, "hidden": 64}


@dataclass(frozen=True)
class JobKind:
    name: str
    command: str  # proxprune subcommand
    extra: tuple[str, ...]  # further CLI flags
    outputs: tuple[str, ...]  # files the command writes into --out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ini: dict  # INI sections; [run] seed is added from the workload seed
    fixture: dict | None  # [model] section of the fixture checkpoint, if jobs read one
    kinds: tuple[JobKind, ...]  # one cycle of jobs, run in this order


PRUNE_OUT = ("pruned.ckpt", "importance.json", "importance.csv")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tf-prune",
            why=(
                "the paper's headline computation, T*m tape passes per job and dominated by "
                "autodiff; exercises gelu, softmax, the isfinite scan and draw batching"
            ),
            ini={
                "model": TRANSFORMER,
                "data": {"seq_len": 128, "calib_size": 1, "holdout_size": 1},
                "moreau": {"steps": 10},
                "noise": {"m": 4},
            },
            fixture=TRANSFORMER,
            kinds=tuple(
                JobKind(crit, "prune", ("--criterion", crit), PRUNE_OUT)
                for crit in ("moreau", "moreau-gs")
            ),
        ),
        Workload(
            name="tf-train",
            why=(
                "same autodiff primitives with one draw per step plus SGD parameter writes; "
                "no smoothing or moreau, so draw batching should leave it unchanged"
            ),
            ini={
                "model": TRANSFORMER,
                "data": {"seq_len": 128},
                "train": {"epochs": 1, "batch_size": 4, "steps_per_epoch": 8},
            },
            fixture=None,
            kinds=(JobKind("train", "train", (), ("model.ckpt",)),),
        ),
        Workload(
            name="mlp-robustness",
            why=(
                "the fp16:bf16 stability experiment on a small tape, dominated by noise "
                "sampling; covers lowprec and robustness and bypasses gelu and softmax"
            ),
            ini={
                "model": MLP,
                "data": {"calib_size": 32},
                "noise": {"m": 2, "smooth_m": 12},
                "robustness": {"specs": "fp16:bf16", "criteria": "plain,smooth,moreau,moreau-gs"},
            },
            fixture=MLP,
            kinds=(JobKind("robustness", "robustness", (), ("robustness.json", "robustness.csv")),),
        ),
    )
}


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    out: Path
    outputs: tuple[str, ...]


def _ini_text(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)


def _fixture_model(section: dict):
    if section["kind"] == "transformer":
        return zoo.TinyTransformer.build(
            data.VOCAB, section["d_model"], section["n_heads"], section["n_layers"]
        )
    return zoo.Mlp([data.mlp_feature_width(section["context"]), section["hidden"], data.VOCAB])


def setup(workload: Workload, workdir: Path, seed: int) -> list[Job]:
    """Write the corpus, INI file and fixture checkpoint for one seed.

    Everything written depends only on the workload and the seed; paths go
    on the command line, so the files themselves do not name the directory.
    """
    seed = seed % 2**32
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng((seed, 0))
    corpus = workdir / "corpus.txt"
    corpus.write_text(" ".join(rng.choice(CORPUS_WORDS, size=CORPUS_LEN)), encoding="utf-8")
    ini = workdir / "exp.ini"
    ini.write_text(_ini_text({"run": {"seed": seed}, **workload.ini}), encoding="utf-8")
    base = ["--config", str(ini), "--corpus", str(corpus)]
    if workload.fixture is not None:
        model = _fixture_model(workload.fixture)
        ckpt = workdir / "fixture.ckpt"
        checkpoint.save(ckpt, model.arch(), model.init_params(seed), model.structures(), model.groups())
        base += ["--checkpoint", str(ckpt)]
    jobs = []
    for kind in workload.kinds:
        out = workdir / f"out-{kind.name}"
        argv = (kind.command, *base, *kind.extra, "--out", str(out))
        jobs.append(Job(kind.name, argv, out, kind.outputs))
    return jobs


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_job(job: Job) -> tuple[float, int, dict[str, str | None]]:
    """(wall seconds of the cli.main call, exit code, sha256 per output file).

    Old outputs are deleted first so that a job that writes nothing cannot
    pass on a previous job's files. ``cli.main`` is looked up at call time,
    so a tracer installed on it is honoured.
    """
    for name in job.outputs:
        (job.out / name).unlink(missing_ok=True)
    with redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        rc = cli.main(list(job.argv))
        wall = perf_counter() - t0
    return wall, rc, {name: sha256(job.out / name) for name in job.outputs}


def expected_digests(workload: str, seed: int) -> dict | None:
    """The recorded digests per job kind, or None for a seed without a record."""
    if seed != DEFAULT_SEED or not DIGESTS_FILE.exists():
        return None
    return json.loads(DIGESTS_FILE.read_text("utf-8")).get(workload)


class Gate:
    """Per job kind, outputs must equal the recorded digests or, for a seed
    without a record, the first successful job of that kind in this run."""

    def __init__(self, expected: dict | None):
        self.reference = dict(expected or {})

    def check(self, kind: str, rc: int, digests: dict) -> bool:
        if rc != 0 or None in digests.values():
            return False
        return self.reference.setdefault(kind, digests) == digests
