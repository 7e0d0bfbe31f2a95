#!/usr/bin/env python3
"""proxprune benchmark: end-to-end and per-layer metrics of three CLI workloads.

Run from the repository root:

    python3 benchmark/run.py --workload tf-prune --seed 0 --seconds 35 --trace 0
    python3 benchmark/run.py --verify

Each workload runs in its own worker process (benchmark/worker.py) as a
closed loop: one client, jobs back to back, each job one in-process
``proxprune.cli.main(argv)`` call on inputs generated from --seed. Every job
is checked for exit code 0 and byte-identical output files. BLAS is pinned
to one thread in the workers.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced cycles of jobs, and prints the per-layer metrics. --verify runs
one job of each kind per workload at the default seed and checks the
recorded output digests, without timing. The last stdout line of a
measuring run is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_run"
# These mirror workloads.py, which run.py does not import because it needs
# numpy and the program; checks.py asserts that they agree.
WORKLOADS = ("tf-prune", "tf-train", "mlp-robustness")
DEFAULT_SEED = 0  # the seed with recorded digests

# Set-up is sampled this many times per run (SETUP_RUNS - 1 set-up-only
# workers plus the measuring worker) and reported as the median.
SETUP_RUNS = 9
DEADLINE_S = 170.0  # a run must end within 180 s

WORKER_ENV = {
    **{
        name: "1"
        for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
        )
    },
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from its start to set-up done, result)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env={**os.environ, **WORKER_ENV}, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = float(lines[0]) - start
    return ready, (json.loads(lines[-1]) if len(lines) > 1 else None)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten jobs
    beyond it. With fewer than eleven jobs no percentile qualifies, and the
    maximum is reported as percentile 100."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for i in range(SETUP_RUNS - 1):
            ready, _ = spawn([*common, "--mode", "setup", "--dir", str(work / f"setup{i}")], deadline)
            setups.append(ready)
    ready, result = spawn(
        [*common, "--mode", "trace" if args.trace else "run", "--seconds", str(args.seconds),
         "--dir", str(work / "run")],
        deadline,
    )
    setups.append(ready)

    jobs = result["jobs"]
    attempted = len(jobs)
    failed = sum(not j["ok"] for j in jobs)
    timed = [j["s"] for j in jobs if j["phase"] == "timed"]
    tail_s, tail_pct = tail(timed)
    rec = {
        "workload": args.workload,
        "why": result["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": result["python"],
        "numpy": result["numpy"],
        "worker_env": WORKER_ENV,
        "load": "closed loop, one client in one process",
        "jobs": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "timed_jobs": len(timed),
        "timed_job_s": timed,
        "tail_percentile": tail_pct,
        "setup_samples_s": setups,
    }
    if args.trace:
        rec["per_layer"] = result["per_layer"]
        rec["layer_self_s"] = result["layer_self_s"]
        rec["traced_job_s_mean"] = statistics.fmean(
            j["s"] for j in jobs if j["phase"] == "traced"
        )
        metrics = result["per_layer"]
    else:
        rec["end_to_end"] = metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_s.p50": {"value": statistics.median(timed), "unit": "s"},
            "job_s.tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    (work / "record.json").write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    return {"record": rec, "metrics": metrics, "attempted": attempted, "failed": failed}


def report(res: dict) -> None:
    rec = res["record"]
    print(f"workload {rec['workload']} seed {rec['seed']}: {rec['why']}")
    print(f"nproc {rec['nproc']}, python {rec['python']}, numpy {rec['numpy']}, "
          f"worker env {rec['worker_env']}, {rec['load']}")
    print(f"jobs {rec['jobs']}, failed {rec['failed']}, error_rate {rec['error_rate']:.4f}")
    if rec["trace"]:
        wall = rec["traced_job_s_mean"]
        print(f"self time per layer, mean per traced job of {wall:.4f} s:")
        for name, secs in sorted(rec["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:12s} {secs:9.4f} s {100 * secs / wall:6.1f}%")
    else:
        print(f"job_s.tail is p{rec['tail_percentile']:.1f} of {rec['timed_jobs']} timed jobs")
    for name, m in res["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")


def verify() -> int:
    """One job of each kind per workload at the default seed, digests checked."""
    deadline = time.monotonic() + DEADLINE_S
    actual, bad = {}, 0
    for name in WORKLOADS:
        _, result = spawn(
            ["--workload", name, "--seed", str(DEFAULT_SEED), "--mode", "verify",
             "--dir", str(WORK / "verify" / name)],
            deadline,
        )
        actual[name] = {}
        for job in result["jobs"]:
            actual[name][job["kind"]] = job["digests"]
            bad += not job["ok"]
            print(f"{name} {job['kind']}: {'ok' if job['ok'] else 'MISMATCH'}")
    print(json.dumps(actual, indent=1, sort_keys=True))
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--verify", action="store_true",
                   help="check output digests at the default seed, without timing")
    args = p.parse_args(argv)
    if not args.verify and args.workload is None:
        p.error("--workload is required unless --verify is given")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "proxprune" / "cli.py").is_file():
        print(f"no proxprune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.verify:
            return verify()
        res = measure(args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    report(res)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
