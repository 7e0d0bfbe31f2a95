#!/usr/bin/env python3
"""Stability study: how far each pruning criterion's scores and prune set move
between the two weight encodings of each [robustness] spec, over seeds.

The model is a checkpoint written by `proxprune train`, and every other
setting comes from the config. Seed s scores the calibration batch and uses
the settings that `proxprune robustness --seed s` does; its rows are the
ones that command writes, and an error exits with that command's code.

Every criterion of a seed shares that seed's calibration batch and legs, so
with `plain` listed and two seeds or more, each other criterion is also
compared with `plain` seed by seed: the mean differences in rel and symdiff,
a 95% percentile bootstrap interval of the mean rel difference over seeds,
a two-sided exact sign test over the seeds whose rel differs, the seeds
needed to detect a 20% difference (n20), and a sign test over the seeds
whose symdiff differs. Each criterion's mean also gives tau, the Kendall
tau-b between the two legs' group scores taken within each class and
weighted by class size, and a paired line in tau against `plain` follows
the rel line, its n20 taken against `plain`'s mean 1 - tau.

Then each criterion prunes the study's own weights (sharpened, if asked)
as `proxprune prune --seed s --criterion c` does, and the held-out loss
before and after pruning is printed per seed, with its means and, against
`plain`, the paired difference in the loss after pruning. Its n20 is taken
against `plain`'s mean loss increase from pruning: the loss before is the
same for every criterion of a seed.
"""
import argparse
import math
import sys
from dataclasses import replace
from statistics import NormalDist

import numpy as np

from proxprune import cli, data

# The bootstrap's generator seed and resample count: fixed, so that a study
# prints the same interval every time.
BOOTSTRAP_SEED = 0
BOOTSTRAP_RESAMPLES = 10_000
# z quantiles of a two-sided test at 5% with 80% power, for n20
Z_SUM = NormalDist().inv_cdf(0.975) + NormalDist().inv_cdf(0.8)


def paired(deltas):
    """(mean, 95% percentile bootstrap interval (lo, hi) of the mean, two-sided
    exact sign-test p, the count of nonzero deltas it is taken over) of the
    per-seed differences ``deltas``. A zero difference is no sign, so the
    sign test drops it."""
    d = np.asarray(deltas, dtype=float)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    means = d[rng.integers(0, d.size, size=(BOOTSTRAP_RESAMPLES, d.size))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    n = int(np.count_nonzero(d))
    k = int(min(np.sum(d > 0), np.sum(d < 0)))
    p = min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n)
    return float(d.mean()), (float(lo), float(hi)), p, n


def n20(deltas, m):
    """The seeds that a paired test needs to detect a mean difference of 20%
    of ``m`` (two-sided 5%, power 80%), at the sample SD of the per-seed
    differences ``deltas``: ceil(((z_0.975 + z_0.8) s / (0.2 m))^2), so 0
    when every delta is equal. None with fewer than two deltas or when m
    is 0."""
    d = np.asarray(deltas, dtype=float)
    if d.size < 2 or m == 0:
        return None
    return math.ceil((Z_SUM * d.std(ddof=1) / (0.2 * m)) ** 2)


def kendall_tau_b(x, y):
    """Kendall's tau-b of paired scores x and y: concordant minus discordant
    pairs over the geometric mean of the pairs untied in x and in y; nan
    when either has every score equal."""
    sx = np.sign(np.subtract.outer(x, x))
    sy = np.sign(np.subtract.outer(y, y))
    denom = math.sqrt(np.sum(sx * sx) * np.sum(sy * sy))
    return float(np.sum(sx * sy) / denom) if denom else math.nan


def class_tau(row):
    """kendall_tau_b between a robustness row's two legs' group scores, per
    class, averaged with the class sizes as weights over the classes where
    it is defined; nan when it is defined in none."""
    classes = {}
    for gid, cls in row.cls_map.items():
        classes.setdefault(cls, []).append(gid)
    taus = [(len(ids), kendall_tau_b([row.group_scores_a[g] for g in ids],
                                     [row.group_scores_b[g] for g in ids]))
            for ids in classes.values()]
    taus = [(n, t) for n, t in taus if not math.isnan(t)]
    return sum(n * t for n, t in taus) / sum(n for n, _ in taus) if taus else math.nan


def paired_line(name, deltas, m, what):
    """The paired statistics of ``deltas`` against `plain`, labelled ``what``."""
    mean, (lo, hi), p, n = paired(deltas)
    k = n20(deltas, m)
    return (f"{name:>10s}-plain  {what}={mean:+.2e}  95% CI [{lo:+.2e}, {hi:+.2e}]  "
            f"sign p={p:.3f} over {n}  n20={'n/a' if k is None else k}")


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--config", help="INI config file, as for proxprune")
    p.add_argument("--corpus", help="corpus file (overrides [data] corpus)")
    p.add_argument("--checkpoint", required=True, help="a model that proxprune train wrote")
    p.add_argument("--seeds", type=int, default=5, help="run seeds 0 .. N-1")
    p.add_argument("--sharpen", type=float, default=0.0,
                   help="factor applied to parameter w1 first (0 leaves it)")
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
    tables = [cli.robustness_rows(model, params, batch, run) for run, batch in zip(runs, batches)]
    losses = {c: [held_out_losses(model, params, corpus, batch, replace(run, criterion=c))
                  for run, batch in zip(runs, batches)]
              for c in cfg.criteria}
    for legs in zip(*tables):  # one spec's rows at each seed
        print(f"\n{legs[0][0].baseline}->{legs[0][0].perturbation}")
        print(f"{'criterion':>10s} {'seed':>4s} {'|dI|':>10s} {'rel':>8s} "
              f"{'jaccard':>8s} {'symdiff':>7s}")
        for seed, rows in enumerate(legs):
            for r in rows:
                print(f"{r.criterion:>10s} {seed:>4d} {r.importance_l2:>10.3e} "
                      f"{r.importance_rel:>8.4f} {r.jaccard:>8.3f} {r.symdiff:>7d}")
        print("\nmean over seeds:")
        per_criterion = {rows[0].criterion: rows for rows in zip(*legs)}  # rows at each seed
        taus = {name: [class_tau(r) for r in rows] for name, rows in per_criterion.items()}
        for name, rows in per_criterion.items():
            rel, jac, sym = (np.mean([getattr(r, f) for r in rows])
                             for f in ("importance_rel", "jaccard", "symdiff"))
            print(f"{name:>10s}  rel={rel:.6g}  jaccard={jac:.6g}  symdiff={sym:.6g}  "
                  f"tau={np.mean(taus[name]):.6g}")
        plain = per_criterion.get("plain")
        if plain is None or len(legs) < 2:
            continue
        plain_rel = np.mean([q.importance_rel for q in plain])
        for name, rows in per_criterion.items():
            if name == "plain":
                continue
            drel = [r.importance_rel - q.importance_rel for r, q in zip(rows, plain)]
            dsym, _, psym, nsym = paired([r.symdiff - q.symdiff for r, q in zip(rows, plain)])
            print(f"{paired_line(name, drel, plain_rel, 'drel')}  dsymdiff={dsym:+.2f}  "
                  f"sign p={psym:.3f} over {nsym}")
            dtau = [t - q for t, q in zip(taus[name], taus["plain"])]
            if not np.isnan(dtau).any():  # tau is defined at every seed
                print(paired_line(name, dtau, 1 - np.mean(taus["plain"]), "dtau"))

    print("\nheld-out loss before and after pruning")
    print(f"{'criterion':>10s} {'seed':>4s} {'before':>10s} {'after':>10s}")
    for seed in range(len(runs)):
        for name, pairs in losses.items():
            print(f"{name:>10s} {seed:>4d} {pairs[seed][0]:>10.6f} {pairs[seed][1]:>10.6f}")
    print("\nmean over seeds:")
    for name, pairs in losses.items():
        before, after = np.mean(pairs, axis=0)
        print(f"{name:>10s}  before={before:.6g}  after={after:.6g}")
    plain = losses.get("plain")
    if plain is not None and len(runs) >= 2:
        damage = np.mean([after - before for before, after in plain])
        for name, pairs in losses.items():
            if name != "plain":
                dafter = [after - q_after for (_, after), (_, q_after) in zip(pairs, plain)]
                print(paired_line(name, dafter, damage, "dafter"))
    return cli.EXIT_OK


def held_out_losses(model, params, corpus, batch, run):
    """(held-out loss before, after) pruning with run.criterion, as
    `proxprune prune` takes them at run.seed; batch is its calibration batch."""
    report = cli.prune_report(model, params, batch, run)
    holdout, _ = cli.holdout_batch(model, corpus, run)
    return cli.prune_and_evaluate(model, params, report.prune_set, holdout)[2:]


if __name__ == "__main__":
    main()
