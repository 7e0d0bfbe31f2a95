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

# Data stream tags: batch i of a stream draws from key (seed, stream, i). A
# Monte Carlo draw's key is (seed, step, i), so calibration shares its stream
# with draw 0 of step 0, training batch i with draw i of step 1 and holdout
# with draw 0 of step 2. A gaussian direction draws from default_rng(seed),
# as init_params(seed) did for the initial weights.
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


def calibration_batch(model, corpus, cfg: RunConfig):
    """(batch, window starts) that prune and robustness score at cfg.seed."""
    return _batch(model, corpus, cfg, cfg.calib_size, _CALIB)


def holdout_batch(model, corpus, cfg: RunConfig):
    """(batch, window starts) on which prune takes the held-out loss at cfg.seed."""
    return _batch(model, corpus, cfg, cfg.holdout_size, _HOLDOUT)


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


def load(path: str | None, overrides: dict) -> RunConfig:
    """The config of a run: ``load_config`` and a corpus to read."""
    cfg = load_config(path, overrides)
    if not cfg.corpus:
        raise ConfigError("no corpus configured ([data] corpus or --corpus)")
    return cfg


def load_checkpoint(path: str):
    """``checkpoint.load``; a missing file is a ConfigError naming it."""
    if not Path(path).exists():
        raise ConfigError(f"checkpoint not found: {path}")
    return checkpoint.load(Path(path))


def prune_report(model, params, batch, cfg: RunConfig) -> importance.ImportanceReport:
    """The report that ``prune`` writes: cfg.criterion's scores and prune set."""
    (report,) = importance.run_criterion(
        cfg.criterion, model, [params], batch, cfg.ratio, settings=cfg.settings(cfg.criterion)
    )
    return report


def prune_and_evaluate(model, params, prune_set, holdout):
    """(pruned model, its params, held-out loss before, after): the model
    without the groups of ``prune_set``, and ``zoo.batch_loss`` on holdout."""
    new_model, new_params = importance.prune_model(model, params, prune_set)
    before = zoo.batch_loss(model, params, holdout)
    return new_model, new_params, before, zoo.batch_loss(new_model, new_params, holdout)


def robustness_rows(model, params, batch, cfg: RunConfig) -> list[list]:
    """The rows that ``robustness`` writes, one list per [robustness] spec."""
    return [
        robustness.consistency_experiment(
            model, params, batch, cfg.criteria, spec, cfg.ratio, baseline_spec=baseline_spec,
            settings={c: cfg.settings(c) for c in cfg.criteria},
        )
        for baseline_spec, spec in cfg.experiments()
    ]


def cmd_prune(cfg: RunConfig, ckpt_path: str) -> int:
    model, params, _ = load_checkpoint(ckpt_path)
    corpus = data.load_corpus(cfg.corpus)
    batch, starts = calibration_batch(model, corpus, cfg)
    holdout, _ = holdout_batch(model, corpus, cfg)

    report = prune_report(model, params, batch, cfg)
    report.extra["calibration_starts"] = starts

    new_model, new_params, loss_before, loss_after = prune_and_evaluate(
        model, params, report.prune_set, holdout
    )

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
    model, params, _ = load_checkpoint(ckpt_path)
    corpus = data.load_corpus(cfg.corpus)
    batch, starts = calibration_batch(model, corpus, cfg)
    rows, comparisons = [], []
    for legs in robustness_rows(model, params, batch, cfg):
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
    model, params, meta = load_checkpoint(ckpt_path)
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


def run(command, *args) -> int:
    """command(*args), with freed heap kept mapped; an error it raises is
    printed as one line and mapped to its exit code."""
    _keep_freed_heap()
    try:
        return command(*args)
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


def _dispatch(args, overrides: dict) -> int:
    cfg = load(args.config, overrides)
    if args.command == "train":
        return cmd_train(cfg)
    if args.command == "prune":
        return cmd_prune(cfg, args.checkpoint)
    if args.command == "robustness":
        return cmd_robustness(cfg, args.checkpoint, args.strict)
    return cmd_recover(cfg, args.checkpoint)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {
        "out": getattr(args, "out", None),
        "seed": getattr(args, "seed", None),
        "corpus": getattr(args, "corpus", None),
        "ratio": getattr(args, "ratio", None),
        "criterion": getattr(args, "criterion", None),
    }
    return run(_dispatch, args, overrides)


if __name__ == "__main__":
    sys.exit(main())
