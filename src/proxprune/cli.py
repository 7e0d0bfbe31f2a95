"""Command-line workflows: train, prune, robustness, recover.

Exit codes are part of the public contract:
    0 success
    2 configuration / input-file error, including weights that overflow
      a 16-bit format in a robustness round trip, and a report that would
      hold a NaN or infinite number (no report file is written)
    3 training divergence
    4 pruning would empty a layer or attention block
    5 proximal-loop divergence, or a non-finite gradient in a Monte Carlo
      smoothing draw
    6 a --strict directional assertion failed

All commands are reproducible: the same config and input files produce
byte-identical outputs, except for the ``created`` timestamp that recover
writes into its checkpoint header.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import sys
import time
from pathlib import Path

from . import checkpoint, data, importance, reports, robustness, zoo
from .autodiff import AutodiffError
from .config import ConfigError, RunConfig, load_config
from .data import CorpusError, VOCAB
from .lowprec import PrecisionOverflowError
from .moreau import DivergenceError
from .smoothing import SmoothingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_PRUNE = 4
EXIT_OPTIMIZER = 5
EXIT_STRICT = 6

# rng stream tags so every consumer derives a distinct deterministic seed
_CALIB, _TRAIN, _HOLDOUT = 0, 1, 2


def _build_model(cfg: RunConfig):
    if cfg.model_kind == "mlp":
        widths = [data.mlp_feature_width(cfg.context), *cfg.hidden, VOCAB]
        return zoo.Mlp(widths)
    return zoo.TinyTransformer.build(
        VOCAB, cfg.d_model, cfg.n_heads, cfg.n_layers, max_len=cfg.seq_len
    )


def _batch(model, corpus, cfg: RunConfig, n: int, stream: int, index: int = 0):
    return data.make_batch(
        model, corpus, n, seed=(cfg.seed, stream, index), seq_len=cfg.seq_len
    )


def _train_batches(model, corpus, cfg: RunConfig) -> list:
    return [
        _batch(model, corpus, cfg, cfg.batch_size, _TRAIN, index=i)[0]
        for i in range(cfg.steps_per_epoch)
    ]


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(cfg: RunConfig) -> int:
    corpus = data.load_corpus(cfg.corpus)
    model = _build_model(cfg)
    params = model.init_params(cfg.seed)
    dataset = _train_batches(model, corpus, cfg)
    params, info = zoo.recover_finetune(model, params, dataset, cfg.epochs, cfg.lr)
    out = _out_dir(cfg) / "model.ckpt"
    checkpoint.save(out, model.arch(), params, model.structures(), model.groups())
    final_loss = info.epoch_losses[-1]
    print(f"initial loss {info.first_loss:.6f}")
    print(f"final loss {final_loss:.6f}")
    if info.non_decreasing:
        print("warning: epoch loss failed to decrease monotonically")
    print(f"checkpoint written to {out}")
    return EXIT_OK


def _load_ckpt(path: str):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    return checkpoint.load(p)


def cmd_prune(cfg: RunConfig, ckpt_path: str) -> int:
    model, params, _ = _load_ckpt(ckpt_path)
    corpus = data.load_corpus(cfg.corpus)
    batch, starts = _batch(model, corpus, cfg, cfg.calib_size, _CALIB)
    holdout, _ = _batch(model, corpus, cfg, cfg.holdout_size, _HOLDOUT)

    (report,) = importance.run_criterion(
        cfg.criterion,
        model,
        [params],
        batch,
        cfg.ratio,
        global_pool=cfg.global_pool,
        settings=cfg.settings(cfg.criterion),
    )
    report.extra["calibration_starts"] = starts

    new_model, new_params = importance.prune_model(model, params, report.prune_set)
    loss_before = zoo.batch_loss(model, params, holdout)
    loss_after = zoo.batch_loss(new_model, new_params, holdout)

    out = _out_dir(cfg)
    ckpt_out = out / "pruned.ckpt"
    checkpoint.save(
        ckpt_out, new_model.arch(), new_params, new_model.structures(), new_model.groups()
    )
    doc = report.to_json_dict()
    doc["param_count_before"] = params.size
    doc["param_count_after"] = new_params.size
    doc["holdout_loss_before"] = loss_before
    doc["holdout_loss_after"] = loss_after
    reports.write_json(out / "importance.json", doc)
    reports.write_csv(out / "importance.csv", report.to_csv_rows())
    print(f"parameters before {params.size}, after {new_params.size}")
    print(f"holdout loss before {loss_before:.6f}, after {loss_after:.6f}")
    print(f"pruned {len(report.prune_set)} of {len(report.group_scores)} groups")
    for cls in report.tied:
        _warn_tie(cfg.criterion, cls)
    print(f"outputs: {ckpt_out}, importance.json, importance.csv")
    return EXIT_OK


def cmd_robustness(cfg: RunConfig, ckpt_path: str, strict: bool) -> int:
    model, params, _ = _load_ckpt(ckpt_path)
    corpus = data.load_corpus(cfg.corpus)
    batch, starts = _batch(model, corpus, cfg, cfg.calib_size, _CALIB)
    rows, comparisons = [], []
    for baseline_spec, spec in cfg.experiments():
        legs = robustness.consistency_experiment(
            model,
            params,
            batch,
            cfg.criteria,
            spec,
            cfg.ratio,
            baseline_spec=baseline_spec,
            global_pool=cfg.global_pool,
            settings={c: cfg.settings(c) for c in cfg.criteria},
        )
        rows.extend(legs)
        comparisons.extend(robustness.directional_comparisons(legs))
    out = _out_dir(cfg)
    doc = {
        "rows": [r.to_json_dict() for r in rows],
        "comparisons": comparisons,
        "calibration": {"starts": starts, "size": cfg.calib_size},
    }
    reports.write_json(out / "robustness.json", doc)
    csv_rows = [list(robustness.CSV_COLUMNS)] + [r.to_csv_row() for r in rows]
    reports.write_csv(out / "robustness.csv", csv_rows)
    for r in rows:
        print(
            f"{r.criterion:10s} {r.baseline}->{r.perturbation}: "
            f"|dI|={r.importance_l2:.4g} rel={r.importance_rel:.4g} "
            f"jaccard={r.jaccard:.3f} symdiff={r.symdiff}"
        )
    for r in rows:
        for encoding, cls in r.tied:
            _warn_tie(f"{r.criterion} on {encoding}", cls)
    failed = [c for c in comparisons if not c["holds"]]
    for c in comparisons:
        print(f"directional {c['comparison']}: {'holds' if c['holds'] else 'FAILED'}")
    if strict and failed:
        return EXIT_STRICT
    return EXIT_OK


def _warn_tie(what: str, cls: str) -> None:
    print(
        f"warning: {what}: the prune cut of class {cls} falls between equal "
        "scores; the lower group ids were pruned"
    )


def cmd_recover(cfg: RunConfig, ckpt_path: str) -> int:
    model, params, meta = _load_ckpt(ckpt_path)
    dataset = _train_batches(model, data.load_corpus(cfg.corpus), cfg)
    new_params, info = zoo.recover_finetune(model, params, dataset, cfg.epochs, cfg.lr)
    out = _out_dir(cfg) / "recovered.ckpt"
    meta["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    checkpoint.save(
        out, model.arch(), new_params, model.structures(), model.groups(), meta=meta
    )
    print("epoch losses: " + ", ".join(f"{x:.6f}" for x in info.epoch_losses))
    if info.non_decreasing:
        print("warning: epoch loss failed to decrease monotonically")
    print(f"checkpoint written to {out}")
    return EXIT_OK


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed memory mapped: each gradient pass frees a tape of several
    MB, and when glibc hands it back to the system the next pass faults every
    page in again. Blocks up to 32 MiB (glibc's maximum) now come from the
    heap, which is trimmed only above 1 GiB free. No-op without mallopt."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="proxprune",
        description="toy structural-pruning lab with perturbation-robust criteria",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("train", "prune", "robustness", "recover"):
        s = sub.add_parser(name)
        s.add_argument("--config", help="INI config file")
        s.add_argument("--out", help="output directory (overrides [run] out)")
        s.add_argument("--seed", type=int, help="master seed (overrides [run] seed)")
        s.add_argument("--corpus", help="corpus file (overrides [data] corpus)")
        if name in ("prune", "robustness", "recover"):
            s.add_argument("--checkpoint", required=True)
        if name in ("prune", "robustness"):
            s.add_argument("--ratio", type=float, help="pruning ratio in [0, 1)")
        if name == "prune":
            s.add_argument("--criterion", choices=importance.CRITERIA)
        if name == "robustness":
            s.add_argument("--strict", action="store_true",
                           help="exit 6 when a directional comparison fails")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _keep_freed_heap()
    overrides = {
        "out": getattr(args, "out", None),
        "seed": getattr(args, "seed", None),
        "corpus": getattr(args, "corpus", None),
        "ratio": getattr(args, "ratio", None),
        "criterion": getattr(args, "criterion", None),
    }
    try:
        cfg = load_config(args.config, overrides)
        if not cfg.corpus:
            raise ConfigError("no corpus configured ([data] corpus or --corpus)")
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "prune":
            return cmd_prune(cfg, args.checkpoint)
        if args.command == "robustness":
            return cmd_robustness(cfg, args.checkpoint, args.strict)
        return cmd_recover(cfg, args.checkpoint)
    except (
        ConfigError,
        CorpusError,
        checkpoint.CheckpointError,
        PrecisionOverflowError,
        ValueError,
        OSError,
    ) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as e:  # e.g. a model too large for this machine
        print(f"config error: out of memory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except importance.WouldEmptyLayerError as e:
        print(f"prune error: {e}", file=sys.stderr)
        return EXIT_PRUNE
    except (DivergenceError, SmoothingError) as e:
        print(f"optimizer error: {e}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except zoo.TrainingDivergedError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return EXIT_TRAINING
    except (zoo.ZooError, AutodiffError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
