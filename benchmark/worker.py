"""One workload in one process: set up, then run jobs back to back.

Started by run.py, never by hand. The first line on stdout is the
CLOCK_MONOTONIC time at which set-up finished; in every mode but ``setup``
the last line is a JSON result. CLI output of the jobs is discarded.

Modes:
  setup   set up and exit (a set-up time sample)
  run     closed loop of untraced jobs for --seconds, whole cycles only
  trace   untraced and traced cycles in turn for --seconds
  verify  one job of each kind, untimed
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def _ready() -> None:
    print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)


def _cycles(jobs, gate, seconds, phase, records, tracer=None):
    """Run whole cycles of jobs until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    while True:
        for job in jobs:
            if tracer is not None:
                tracer.job = len(records)
            wall, rc, digests = workloads.run_job(job)
            ok = gate.check(job.kind, rc, digests)
            records.append({"kind": job.kind, "phase": phase, "s": wall, "ok": ok,
                            "digests": digests})
        if time.perf_counter() - start >= seconds:
            return


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace", "verify"))
    p.add_argument("--dir", type=Path, required=True)
    args = p.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    jobs = workloads.setup(workload, args.dir, args.seed)
    _ready()
    if args.mode == "setup":
        return 0

    expected = workloads.expected_digests(args.workload, args.seed)
    gate = workloads.Gate(expected)
    records: list[dict] = []
    result: dict = {"why": workload.why, "numpy": np.__version__, "python": sys.version.split()[0]}
    if args.mode == "verify":
        _cycles(jobs, gate, 0, "verify", records)
        if expected is None:  # no record to verify against
            for r in records:
                r["ok"] = False
    elif args.mode == "run":
        _cycles(jobs, gate, args.seconds, "timed", records)
    else:
        import tracer as tr

        # Untraced and traced cycles alternate, so both see the same machine.
        tracer = tr.Tracer()
        start = time.perf_counter()
        while True:
            _cycles(jobs, gate, 0, "timed", records)
            tracer.install()
            try:
                _cycles(jobs, gate, 0, "traced", records, tracer)
            finally:
                tracer.uninstall()
            if time.perf_counter() - start >= args.seconds:
                break
        traced = [i for i, r in enumerate(records) if r["phase"] == "traced"]
        metrics, layers = tr.summarize(tracer, traced)
        metrics["trace.overhead_ratio"] = statistics.median(
            r["s"] for r in records if r["phase"] == "traced"
        ) / statistics.median(r["s"] for r in records if r["phase"] == "timed")
        result["per_layer"] = {
            name: {"value": metrics[name], "unit": tr.unit(name)} for name in tr.PER_LAYER
        }
        result["layer_self_s"] = layers
        tracer.write(args.dir / "spans.jsonl")
    result["jobs"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
