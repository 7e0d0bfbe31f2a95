#!/usr/bin/env python3
"""Sweep the group-sparsity strength eta and report how many channel groups the
group-soft-threshold zeroes out, plus the resulting prune-set overlap with the
plain envelope criterion."""
import argparse
from pathlib import Path

from proxprune import data, importance, robustness, zoo
from proxprune.moreau import MoreauConfig
from proxprune.smoothing import NoiseSpec


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("corpus", type=Path)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--context", type=int, default=4)
    p.add_argument("--ratio", type=float, default=0.2)
    p.add_argument("--etas", default="0,1e-6,5e-6,1e-4,1e-2,1.0")
    p.add_argument("--seed", type=int, default=3)
    args = p.parse_args()

    corpus = data.load_corpus(args.corpus)
    model = zoo.Mlp([args.context * 256, args.hidden, 256])
    params = model.init_params(7)
    batches = [data.make_batch(model, corpus, 16, seed=(7, 1, i))[0] for i in range(10)]
    params, _ = zoo.recover_finetune(model, params, batches, epochs=2, lr=0.5)
    batch, _ = data.make_batch(model, corpus, 10, seed=(args.seed, 0, 0))
    structures, groups = model.structures(), model.groups()

    base = importance.run_criterion(
        "moreau", model, params, structures, groups, batch, args.ratio,
        settings=MoreauConfig(rho=0.05, gamma=1e-3, steps=10,
                              noise=NoiseSpec(scale=0.05, m=4, seed=args.seed)))
    print(f"{'eta':>10s} {'zeroed':>7s} {'pruned':>7s} {'jaccard vs moreau':>18s}")
    for eta_s in args.etas.split(","):
        eta = float(eta_s)
        cfg = MoreauConfig(rho=0.2, gamma=2e-4, steps=10, eta=eta,
                           noise=NoiseSpec(scale=0.05, m=4, seed=args.seed))
        rep = importance.run_criterion(
            "moreau-gs", model, params, structures, groups, batch, args.ratio,
            settings=cfg)
        jac = robustness.jaccard(rep.prune_set, base.prune_set)
        print(f"{eta:>10.2g} {rep.extra['zeroed_groups']:>7d} "
              f"{len(rep.prune_set):>7d} {jac:>18.3f}")


if __name__ == "__main__":
    main()
