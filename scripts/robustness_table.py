#!/usr/bin/env python3
"""Format-consistency table: how much does each pruning criterion's outcome
move when the weights are re-encoded (fp16 vs bf16)?

Trains a small byte-context MLP, optionally sharpens one layer, then runs the
consistency experiment per criterion and seed and prints a summary table.
"""
import argparse
from pathlib import Path

import numpy as np

from proxprune import data, robustness, zoo
from proxprune.moreau import MoreauConfig
from proxprune.robustness import PerturbSpec
from proxprune.smoothing import NoiseSpec


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("corpus", type=Path)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--context", type=int, default=4)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--sharpen", type=float, default=50.0,
                   help="factor applied to the output-side layer (0 disables)")
    p.add_argument("--ratio", type=float, default=0.2)
    p.add_argument("--calib", type=int, default=32)
    p.add_argument("--m", type=int, default=48, help="noise draws per loop step")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--criteria", default="plain,smooth,moreau,moreau-gs")
    args = p.parse_args()

    corpus = data.load_corpus(args.corpus)
    model = zoo.Mlp([args.context * 256, args.hidden, 256])
    params = model.init_params(7)
    batches = [data.make_batch(model, corpus, 16, seed=(7, 1, i))[0] for i in range(10)]
    params, info = zoo.recover_finetune(model, params, batches, args.epochs, args.lr)
    print(f"trained: epoch losses {['%.3f' % x for x in info.epoch_losses]}")
    if args.sharpen:
        params = params.copy()
        params["w1"][:] *= args.sharpen
        print(f"sharpened w1 by x{args.sharpen:g}")

    criteria = tuple(c.strip() for c in args.criteria.split(","))
    structures, groups = model.structures(), model.groups()
    print(f"\n{'criterion':>10s} {'seed':>4s} {'|dI|':>10s} {'rel':>8s} "
          f"{'jaccard':>8s} {'symdiff':>7s}")
    agg = {c: [] for c in criteria}
    for seed in range(args.seeds):
        batch, _ = data.make_batch(model, corpus, args.calib, seed=(seed, 0, 0))
        noise = NoiseSpec(scale=0.05, m=args.m, seed=seed)
        rows = robustness.consistency_experiment(
            model, params, structures, groups, batch, criteria,
            PerturbSpec(kind="bf16-roundtrip"), args.ratio,
            baseline_spec=PerturbSpec(kind="fp16-roundtrip"),
            settings={
                "smooth": NoiseSpec(scale=0.05, m=100, seed=seed),
                "moreau": MoreauConfig(rho=0.05, gamma=1e-3, steps=10, noise=noise),
                "moreau-gs": MoreauConfig(rho=0.2, gamma=2e-4, steps=10, eta=5e-6, noise=noise),
            },
        )
        for r in rows:
            agg[r.criterion].append((r.importance_rel, r.jaccard, r.symdiff))
            print(f"{r.criterion:>10s} {seed:>4d} {r.importance_l2:>10.3e} "
                  f"{r.importance_rel:>8.4f} {r.jaccard:>8.3f} {r.symdiff:>7d}")
    print("\nmean over seeds:")
    for c in criteria:
        rel = np.mean([x[0] for x in agg[c]])
        jac = np.mean([x[1] for x in agg[c]])
        sym = np.mean([x[2] for x in agg[c]])
        print(f"{c:>10s}  rel={rel:.4f}  jaccard={jac:.3f}  symdiff={sym:.2f}")


if __name__ == "__main__":
    main()
