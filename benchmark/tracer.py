"""Per-layer tracing built from outside the program.

Each public function is wrapped at the module attribute its caller looks up
(``moreau`` imports ``flatten_map`` and ``smoothed_loss_and_grad`` by name,
``robustness`` imports ``channel_layout`` by name, ``zoo`` calls primitives
through ``ad.<op>``), so the package itself is never edited. A primitive's
adjoint time comes from wrapping the ``backward`` closure handed to
``Tape.record``. Spans stay in memory, each with a parent id and a job id.
"""
from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

from proxprune import autodiff as ad
from proxprune import checkpoint, cli, data, importance, lowprec, moreau, params
from proxprune import reports, robustness, smoothing, zoo

OPS = (
    "matmul", "add", "multiply", "relu", "gelu", "softmax", "layer_norm",
    "embedding", "cross_entropy", "reshape", "transpose",
)
CRITERIA = ("plain", "smooth", "moreau", "moreau-gs")

# Per-layer metrics, each a mean per traced job. A name ending in .calls,
# .s or .self_s reads the span of that prefix; .fwd_s and .adj_s read a
# primitive's forward span and its adjoint span; the rest are counters.
PER_LAYER = [
    "autodiff.forward.calls", "autodiff.forward.s",
    "autodiff.backward.calls", "autodiff.backward.s",
    "autodiff.tape_entries",
    *(f"autodiff.{op}.{f}" for op in OPS for f in ("calls", "fwd_s", "adj_s")),
    "autodiff.matmul.flops", "autodiff.gelu.bytes", "autodiff.softmax.bytes",
    "autodiff.layer_norm.bytes",
    "zoo.loss.self_s", "zoo.batch_loss.calls", "zoo.batch_loss.s",
    "zoo.recover_finetune.s", "zoo.recover_finetune.self_s",
    "data.load_corpus.s", "data.make_batch.calls", "data.make_batch.s",
    *(f"params.ParamSet.{m}.{f}" for m in ("flatten", "unflatten", "add") for f in ("calls", "s")),
    "params.flatten_map.calls", "params.flatten_map.s", "params.unflatten_map.s",
    "params.structure_flat_indices.calls", "params.structure_flat_indices.s",
    "smoothing.smoothed_loss_and_grad.calls", "smoothing.smoothed_loss_and_grad.s",
    "smoothing.smoothed_loss_and_grad.self_s",
    "smoothing.sample_noise.calls", "smoothing.sample_noise.s", "smoothing.sample_noise.bytes",
    "moreau.proximal.calls", "moreau.proximal.s", "moreau.proximal.self_s", "moreau.steps",
    "moreau.group_soft_threshold.calls", "moreau.group_soft_threshold.s",
    "moreau.channel_layout.calls", "moreau.channel_layout.s", "moreau.zeroed_groups",
    *(f"importance.run_criterion.{c}.{f}" for c in CRITERIA for f in ("calls", "s")),
    *(
        f"importance.{fn}.s"
        for fn in (
            "element_importance", "structure_importance", "group_importance",
            "rank_and_select", "prune_model",
        )
    ),
    "lowprec.round_trip.calls", "lowprec.round_trip.s", "lowprec.round_trip.bytes",
    "robustness.perturb.calls", "robustness.perturb.s",
    "robustness.consistency_experiment.calls", "robustness.consistency_experiment.s",
    "robustness.consistency_experiment.self_s",
    *(f"checkpoint.{fn}.{f}" for fn in ("save", "load") for f in ("calls", "s", "bytes")),
    "reports.write_json.s", "reports.write_csv.s", "reports.bytes",
    "config.load_config.s", "cli.main.self_s",
    "trace.overhead_ratio",
]

# Metrics counted at the boundaries rather than read from span times; they
# are computed from shapes, file sizes and reports, so they repeat exactly.
COUNTERS = {
    "autodiff.tape_entries", "autodiff.matmul.flops", "autodiff.gelu.bytes",
    "autodiff.softmax.bytes", "autodiff.layer_norm.bytes", "smoothing.sample_noise.bytes",
    "moreau.steps", "moreau.zeroed_groups", "lowprec.round_trip.bytes",
    "checkpoint.save.bytes", "checkpoint.load.bytes", "reports.bytes",
}


def unit(metric: str) -> str:
    if metric == "trace.overhead_ratio":
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(".flops"):
        return "flop"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _size(x) -> int:
    return math.prod(getattr(x, "shape", ()))


def _matmul_flops(args, kwargs, out):
    return {"autodiff.matmul.flops": 2 * _size(out) * args[0].shape[-1]}


def _moved_bytes(op):
    # forward operands plus result, 8 bytes per float64 element
    def measure(args, kwargs, out):
        return {f"autodiff.{op}.bytes": 8 * (sum(map(_size, args)) + _size(out))}

    return measure


def _file_bytes(key):
    def measure(args, kwargs, out):
        return {key: os.path.getsize(args[0])}

    return measure


def _noise_bytes(args, kwargs, out):
    return {"smoothing.sample_noise.bytes": sum(a.nbytes for a in out.values())}


def _round_trip_bytes(args, kwargs, out):
    return {"lowprec.round_trip.bytes": 8 * _size(args[0])}


def _proximal(args, kwargs, out):
    return {"moreau.steps": len(out.trace), "moreau.zeroed_groups": len(out.zeroed_groups)}


def _criterion_name(args, kwargs):
    return f"importance.run_criterion.{args[0]}"


class Tracer:
    """Records spans [id, parent id, job id, name, start, end] and per-job
    counters while installed; ``uninstall`` restores every patched attribute."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.job = -1
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1][0] if self._stack else -1, self.job, name,
               perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, measure=None):
        def wrapped(*args, **kwargs):
            rec = self._open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
                if measure is not None:
                    self.counts[self.job].update(measure(args, kwargs, out))
            finally:
                self._close(rec)
            return out

        return wrapped

    def _patch(self, owner, attr: str, name, measure=None) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, measure))

    def _patch_record(self) -> None:
        record = ad.Tape.__dict__["record"]
        self._saved.append((ad.Tape, "record", record))

        def traced_record(tape, op, inputs, out_node, backward):
            self.counts[self.job]["autodiff.tape_entries"] += 1
            record(tape, op, inputs, out_node, self._wrap(backward, f"autodiff.{op}.adj"))

        ad.Tape.record = traced_record

    def install(self) -> None:
        p = self._patch
        p(cli, "main", "cli.main")
        p(cli, "load_config", "config.load_config")
        p(data, "load_corpus", "data.load_corpus")
        p(data, "make_batch", "data.make_batch")
        p(checkpoint, "save", "checkpoint.save", _file_bytes("checkpoint.save.bytes"))
        p(checkpoint, "load", "checkpoint.load", _file_bytes("checkpoint.load.bytes"))
        p(reports, "write_json", "reports.write_json", _file_bytes("reports.bytes"))
        p(reports, "write_csv", "reports.write_csv", _file_bytes("reports.bytes"))
        p(zoo, "batch_loss", "zoo.batch_loss")
        p(zoo, "recover_finetune", "zoo.recover_finetune")
        p(zoo.Mlp, "loss", "zoo.loss")
        p(zoo.TinyTransformer, "loss", "zoo.loss")
        p(ad, "forward", "autodiff.forward")
        p(ad, "backward", "autodiff.backward")
        for op in OPS:
            measure = None
            if op == "matmul":
                measure = _matmul_flops
            elif op in ("gelu", "softmax", "layer_norm"):
                measure = _moved_bytes(op)
            p(ad, op, f"autodiff.{op}", measure)
        self._patch_record()
        for method in ("flatten", "unflatten", "add"):
            p(params.ParamSet, method, f"params.ParamSet.{method}")
        for fn in ("flatten_map", "unflatten_map", "structure_flat_indices"):
            p(moreau, fn, f"params.{fn}")
        p(smoothing, "smoothed_loss_and_grad", "smoothing.smoothed_loss_and_grad")
        p(moreau, "smoothed_loss_and_grad", "smoothing.smoothed_loss_and_grad")
        p(smoothing, "sample_noise", "smoothing.sample_noise", _noise_bytes)
        p(moreau, "moreau_grad", "moreau.proximal", _proximal)
        p(moreau, "group_sparse_moreau_grad", "moreau.proximal", _proximal)
        p(moreau, "group_soft_threshold", "moreau.group_soft_threshold")
        p(moreau, "channel_layout", "moreau.channel_layout")
        p(robustness, "channel_layout", "moreau.channel_layout")
        p(importance, "run_criterion", _criterion_name)
        for fn in ("element_importance", "structure_importance", "group_importance",
                   "rank_and_select", "prune_model"):
            p(importance, fn, f"importance.{fn}")
        p(lowprec, "round_trip", "lowprec.round_trip", _round_trip_bytes)
        p(robustness, "perturb", "robustness.perturb")
        p(robustness, "consistency_experiment", "robustness.consistency_experiment")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    out = [rec[5] - rec[4] for rec in spans]
    for rec in spans:
        if rec[1] >= 0:
            out[rec[1]] -= rec[5] - rec[4]
    return out


def summarize(tracer: Tracer, jobs: list[int]) -> tuple[dict, dict]:
    """(per-layer metrics, self seconds per layer), both as means per job
    over the given job ids. ``trace.overhead_ratio`` is left to the caller."""
    wanted = set(jobs)
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    incl: Counter = Counter()
    excl: Counter = Counter()
    by_layer: Counter = Counter()
    for rec, self_s in zip(tracer.spans, selfs):
        if rec[2] not in wanted:
            continue
        name = rec[3]
        calls[name] += 1
        incl[name] += rec[5] - rec[4]
        excl[name] += self_s
        by_layer[layer(name)] += self_s
    counts: Counter = Counter()
    for job in jobs:
        counts.update(tracer.counts.get(job, {}))
    n = len(jobs)
    metrics = {}
    for metric in PER_LAYER:
        if metric == "trace.overhead_ratio":
            continue
        if metric in COUNTERS:
            value = counts[metric]
        else:
            span, field = metric.rsplit(".", 1)
            if field == "calls":
                value = calls[span]
            elif field == "self_s":
                value = excl[span]
            elif field == "adj_s":
                value = incl[f"{span}.adj"]
            else:  # s, fwd_s
                value = incl[span]
        metrics[metric] = value / n
    return metrics, {k: v / n for k, v in sorted(by_layer.items())}
