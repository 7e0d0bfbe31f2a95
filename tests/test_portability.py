"""Outputs across BLAS thread counts and numpy dispatch levels.

tests/test_byte_identity.py pins the exact bytes of one host class: numpy's
AVX-512 kernels with OpenBLAS on one thread. Here a small transformer
`prune --criterion moreau` job and a small four-criterion MLP `robustness`
job run with numpy's full dispatch and OpenBLAS on one thread, then with
OpenBLAS on two threads and with numpy's AVX-512 dispatch disabled. Exit codes, prune sets and tie
warnings must be equal, and every float within a relative 1e-10 of the
reference.

Why 1e-10. The configurations run the same IEEE operations in the same
order but for two things: numpy's SIMD kernels of transcendental functions
differ by a few units in the last place, and threaded BLAS reductions sum
in another order, which moves a sum by at most n*u times the sum of its
magnitudes (u = 1.1e-16). Scores and losses are sums of nonnegative or
well-conditioned terms, so they move by a small multiple of u times the
depth of a pass: at most 2.4e-15 relative for these jobs, and 1.5e-14 for
the benchmark's jobs, on a 2-vCPU AVX-512 host. A distance ||I_a - I_b||
between two encodings cancels: the two score vectors agree to their
importance_rel, about 1e-3 for fp16 against bf16, so an error e relative to
the scores can become e / 1e-3 relative to the distance. The bound carries a
score-level error of 1e-13, several times the largest measured, through that
thousandfold cancellation. Decisions are held to equality, not to the bound:
exit codes, prune sets, symdiffs and tie warnings.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxprune import checkpoint, data, zoo

ROOT = Path(__file__).resolve().parents[1]


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def _blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return "unknown"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _variant(name: str) -> dict:
    """The environment of a variant, or a skip naming what the host lacks."""
    if name == "openblas-2-threads":
        if "openblas" not in _blas().lower():
            pytest.skip(f"numpy's BLAS is {_blas()}, not OpenBLAS: no OPENBLAS_NUM_THREADS=2 run")
        if _usable_cpus() < 2:
            pytest.skip("one usable CPU: OpenBLAS cannot run OPENBLAS_NUM_THREADS=2 on two")
        return {"OPENBLAS_NUM_THREADS": "2"}
    avx512 = "X86_V4 AVX512_ICL AVX512_SPR"
    if not _cpu_features().get("X86_V4"):
        pytest.skip(f"numpy dispatches no X86_V4 kernels here: NPY_DISABLE_CPU_FEATURES="
                    f"'{avx512}' would change nothing")
    return {"OPENBLAS_NUM_THREADS": "1", "NPY_DISABLE_CPU_FEATURES": avx512}


@pytest.fixture(scope="module")
def jobs(tmp_path_factory, corpus_file):
    """job -> (argv, its reference run), on untrained checkpoints; each
    reference runs once, when a test first asks for it."""
    tmp = tmp_path_factory.mktemp("portability")
    tf = zoo.TinyTransformer.build(data.VOCAB, 16, 2, 1, max_len=16)
    mlp = zoo.Mlp([data.mlp_feature_width(4), 16, data.VOCAB])
    for name, model in (("tf", tf), ("mlp", mlp)):
        checkpoint.save(tmp / f"{name}.ckpt", model.arch(), model.init_params(3),
                        model.structures(), model.groups())
    common = (f"[data]\ncorpus = {corpus_file}\nseq_len = 16\ncalib_size = 4\nholdout_size = 2\n"
              "[moreau]\nsteps = 3\n[noise]\nm = 2\nsmooth_m = 4\n")
    (tmp / "tf.ini").write_text(
        "[model]\nkind = transformer\nd_model = 16\nn_heads = 2\nn_layers = 1\n" + common)
    (tmp / "mlp.ini").write_text(
        common + "[robustness]\ncriteria = plain,smooth,moreau,moreau-gs\n")
    argv = {
        "prune": ["prune", "--criterion", "moreau", "--config", tmp / "tf.ini",
                  "--checkpoint", tmp / "tf.ckpt"],
        "robustness": ["robustness", "--config", tmp / "mlp.ini", "--checkpoint", tmp / "mlp.ckpt"],
    }
    references = {}

    def job(name):
        if name not in references:
            references[name] = _run(argv[name], {"OPENBLAS_NUM_THREADS": "1"}, tmp / name)
            code, _, reports, err = references[name]
            assert code == 0 and reports, err
        return argv[name], references[name]

    return job


def _run(argv, env: dict, out: Path):
    """(exit code, warning lines, reports, stderr) of one job in a fresh
    interpreter whose environment adds ``env`` to this one's, without its
    BLAS thread count or numpy dispatch setting."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), base.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "proxprune", *map(str, argv), "--out", str(out)],
        env={**base, **env}, capture_output=True, text=True, timeout=120,
    )
    warnings = [line for line in run.stdout.splitlines() if line.startswith("warning:")]
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
    return run.returncode, warnings, reports, run.stderr


def _assert_close(ref, got, bound: float, path="$"):
    """Equal structure and non-float values; floats within a relative ``bound``."""
    assert type(got) is type(ref), path
    if isinstance(ref, dict):
        assert got.keys() == ref.keys(), path
        for key in ref:
            _assert_close(ref[key], got[key], bound, f"{path}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), path
        for i, (a, b) in enumerate(zip(ref, got)):
            _assert_close(a, b, bound, f"{path}[{i}]")
    elif isinstance(ref, float):
        assert abs(got - ref) <= bound * max(abs(ref), abs(got)), f"{path}: {ref!r} -> {got!r}"
    else:
        assert got == ref, path


@pytest.mark.parametrize("variant", ["openblas-2-threads", "no-avx512"])
@pytest.mark.parametrize("name", ["prune", "robustness"])
def test_job_travels(jobs, tmp_path, name, variant):
    env = _variant(variant)
    argv, (code, warnings, reports, _) = jobs(name)
    got_code, got_warnings, got_reports, err = _run(argv, env, tmp_path / variant)
    assert (got_code, got_warnings) == (code, warnings), err
    _assert_close(reports, got_reports, bound=1e-10)
