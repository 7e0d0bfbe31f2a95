#!/usr/bin/env python3
"""Stability study: how far each pruning criterion's scores and prune set move
between the two weight encodings of each [robustness] spec, over seeds, and
how many channel groups moreau-gs zeroes as its group penalty eta grows.

The model is a checkpoint written by `proxprune train`, and every other
setting comes from the config. Seed s scores the calibration batch and uses
the settings that `proxprune robustness --seed s` does.
"""
import argparse
from dataclasses import replace

import numpy as np

from proxprune import checkpoint, cli, data, importance, robustness
from proxprune.config import ConfigError, load_config
from proxprune.data import CorpusError


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
    try:
        study(args)
    except (ConfigError, CorpusError, checkpoint.CheckpointError, ValueError, OSError) as e:
        p.error(str(e))


def study(args):
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    cfg = load_config(args.config, {"corpus": args.corpus})
    model, params, _ = checkpoint.load(args.checkpoint)
    corpus = data.load_corpus(cfg.corpus)
    if args.sharpen:
        if "w1" not in params:
            raise ValueError(f"--sharpen scales parameter w1, which {args.checkpoint} does not hold")
        params = params.copy()
        params["w1"][:] *= args.sharpen
        print(f"sharpened w1 by x{args.sharpen:g}")

    runs = []  # (settings, calibration batch) of each seed
    for s in range(args.seeds):
        run = replace(cfg, seed=s)
        runs.append((run, cli.calibration_batch(model, corpus, run)[0]))
    for e, (baseline, spec) in enumerate(cfg.experiments()):
        print(f"\n{baseline.label() if baseline else 'none'}->{spec.label()}")
        print(f"{'criterion':>10s} {'seed':>4s} {'|dI|':>10s} {'rel':>8s} "
              f"{'jaccard':>8s} {'symdiff':>7s}")
        agg = {c: [] for c in cfg.criteria}
        for run, batch in runs:
            baseline, spec = run.experiments()[e]
            for r in robustness.consistency_experiment(
                model, params, batch, cfg.criteria, spec, cfg.ratio, baseline_spec=baseline,
                global_pool=cfg.global_pool, settings={c: run.settings(c) for c in cfg.criteria},
            ):
                agg[r.criterion].append((r.importance_rel, r.jaccard, r.symdiff))
                print(f"{r.criterion:>10s} {run.seed:>4d} {r.importance_l2:>10.3e} "
                      f"{r.importance_rel:>8.4f} {r.jaccard:>8.3f} {r.symdiff:>7d}")
        print("\nmean over seeds:")
        for c, values in agg.items():
            rel, jac, sym = map(np.mean, zip(*values))
            print(f"{c:>10s}  rel={rel:.4f}  jaccard={jac:.3f}  symdiff={sym:.2f}")

    def report(criterion, run, batch):
        (rep,) = importance.run_criterion(criterion, model, [params], batch, cfg.ratio,
                                          global_pool=cfg.global_pool,
                                          settings=run.settings(criterion))
        return rep

    print(f"\n{'seed':>4s} {'eta':>10s} {'zeroed':>7s} {'pruned':>7s} {'jaccard vs moreau':>18s}")
    for run, batch in runs:
        base = report("moreau", run, batch).prune_set
        for eta in args.etas:
            rep = report("moreau-gs", replace(run, eta=eta), batch)
            jac = robustness.jaccard(rep.prune_set, base)
            print(f"{run.seed:>4d} {eta:>10.2g} {rep.extra['zeroed_groups']:>7d} "
                  f"{len(rep.prune_set):>7d} {jac:>18.3f}")


if __name__ == "__main__":
    main()
