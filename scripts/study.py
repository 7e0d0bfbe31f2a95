#!/usr/bin/env python3
"""Stability study: how far each pruning criterion's scores and prune set move
between the two weight encodings of each [robustness] spec, over seeds, and
how many channel groups moreau-gs zeroes as its group penalty eta grows.

The model is a checkpoint written by `proxprune train`, and every other
setting comes from the config. Seed s scores the calibration batch and uses
the settings that `proxprune robustness --seed s` does; its rows are the
ones that command writes, and an error exits with that command's code.
"""
import argparse
import sys
from dataclasses import replace

import numpy as np

from proxprune import cli, data, robustness


def floats(text):
    return [float(x) for x in text.split(",")]


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", help="INI config file, as for proxprune")
    p.add_argument("--corpus", help="corpus file (overrides [data] corpus)")
    p.add_argument("--checkpoint", required=True, help="a model that proxprune train wrote")
    p.add_argument("--seeds", type=int, default=5, help="run seeds 0 .. N-1")
    p.add_argument("--sharpen", type=float, default=0.0,
                   help="factor applied to parameter w1 first (0 leaves it)")
    p.add_argument("--etas", type=floats, default="0,1e-6,5e-6,1e-4,1e-2,1.0",
                   help="comma-separated moreau-gs eta values")
    args = p.parse_args()
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    sys.exit(cli.run(study, args, p))


def study(args, p):
    cfg = cli.load(args.config, {"corpus": args.corpus})
    model, params, _ = cli.load_checkpoint(args.checkpoint)
    corpus = data.load_corpus(cfg.corpus)
    if args.sharpen:
        if "w1" not in params:
            p.error(f"--sharpen scales parameter w1, which {args.checkpoint} does not hold")
        params = params.copy()
        params["w1"][:] *= args.sharpen
        print(f"sharpened w1 by x{args.sharpen:g}")

    runs = [replace(cfg, seed=s) for s in range(args.seeds)]
    batches = [cli.calibration_batch(model, corpus, run)[0] for run in runs]
    tables = [cli.robustness_rows(model, params, b, run) for b, run in zip(batches, runs)]
    for legs in zip(*tables):  # one spec's rows at each seed
        print(f"\n{legs[0][0].baseline}->{legs[0][0].perturbation}")
        print(f"{'criterion':>10s} {'seed':>4s} {'|dI|':>10s} {'rel':>8s} "
              f"{'jaccard':>8s} {'symdiff':>7s}")
        for seed, rows in enumerate(legs):
            for r in rows:
                print(f"{r.criterion:>10s} {seed:>4d} {r.importance_l2:>10.3e} "
                      f"{r.importance_rel:>8.4f} {r.jaccard:>8.3f} {r.symdiff:>7d}")
        print("\nmean over seeds:")
        for rows in zip(*legs):  # one criterion's rows at each seed
            rel, jac, sym = (np.mean([getattr(r, f) for r in rows])
                             for f in ("importance_rel", "jaccard", "symdiff"))
            print(f"{rows[0].criterion:>10s}  rel={rel:.4f}  jaccard={jac:.3f}  symdiff={sym:.2f}")

    print(f"\n{'seed':>4s} {'eta':>10s} {'zeroed':>7s} {'pruned':>7s} {'jaccard vs moreau':>18s}")
    for run, batch in zip(runs, batches):
        base = cli.prune_report(model, params, batch, replace(run, criterion="moreau")).prune_set
        for eta in args.etas:
            rep = cli.prune_report(model, params, batch,
                                   replace(run, criterion="moreau-gs", eta=eta))
            jac = robustness.jaccard(rep.prune_set, base)
            print(f"{run.seed:>4d} {eta:>10.2g} {rep.extra['zeroed_groups']:>7d} "
                  f"{len(rep.prune_set):>7d} {jac:>18.3f}")
    return cli.EXIT_OK


if __name__ == "__main__":
    main()
