"""Weight-perturbation experiments: how stable is each pruning criterion?

A perturbation is either a 16-bit format round-trip or Gaussian noise
rescaled to an exact l2 radius. consistency_experiment reruns the full
importance pipeline on two weight encodings with identical seeds and
calibration data, then reports importance-vector distances and prune-set
overlap per criterion -- the desk-scale version of comparing pruning
outcomes across bfloat16 and float16 deployments.
"""
from __future__ import annotations

import math
import os
import pickle
import struct
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from . import importance as imp
from . import lowprec, smoothing
from .moreau import MoreauConfig
from .moreau import channel_layout  # noqa: F401 -- benchmark/tracer.py wraps it here by name
from .params import ParamSet
from .smoothing import NoiseSpec

KINDS = ("fp16-roundtrip", "bf16-roundtrip", "gaussian-ball")


@dataclass(frozen=True)
class PerturbSpec:
    kind: str
    epsilon: float = 0.0  # l2 radius, gaussian-ball only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"perturbation kind must be one of {KINDS}")
        if self.kind == "gaussian-ball" and not 0 <= self.epsilon < math.inf:
            raise ValueError("gaussian-ball epsilon must be >= 0 and finite")

    def label(self) -> str:
        if self.kind == "gaussian-ball":
            return f"gaussian-ball(eps={self.epsilon:g})"
        return self.kind


def perturb(params: ParamSet, spec: PerturbSpec, prunable: set[str] | None = None) -> ParamSet:
    """Apply the perturbation elementwise to every prunable parameter
    (prunable=None means all). Non-listed parameters are copied untouched."""
    names = set(params.names) if prunable is None else prunable
    if spec.kind in ("fp16-roundtrip", "bf16-roundtrip"):
        fmt = spec.kind.split("-")[0]
        return ParamSet(
            (n, _round_trip(n, a, fmt) if n in names else a.copy()) for n, a in params
        )
    # gaussian-ball: one direction over the concatenated prunable weights,
    # rescaled so the total l2 displacement is exactly epsilon
    if spec.epsilon == 0.0:
        return params.copy()
    rng = np.random.default_rng(spec.seed)
    deltas = {n: rng.standard_normal(a.shape) for n, a in params if n in names}
    norm = math.sqrt(
        math.fsum(float(np.dot(d.reshape(-1), d.reshape(-1))) for d in deltas.values())
    )
    if norm == 0.0:
        raise ValueError("gaussian-ball perturbation with epsilon > 0 needs prunable weights")
    scale = spec.epsilon / norm
    return ParamSet(
        (n, a + scale * deltas[n] if n in deltas else a.copy()) for n, a in params
    )


def _round_trip(name: str, a: np.ndarray, fmt: str) -> np.ndarray:
    """lowprec.round_trip, with the parameter's name on an overflow."""
    try:
        return lowprec.round_trip(a, fmt)
    except lowprec.PrecisionOverflowError as e:
        raise lowprec.PrecisionOverflowError(fmt, e.index, e.value, param=name) from None


@dataclass
class RobustnessReport:
    """One criterion's stability between two encodings; its fields through
    ``extra`` are its JSON keys. The rest stay in memory: the tied cuts, and
    each leg's group scores with the groups' classes."""

    criterion: str
    perturbation: str
    baseline: str
    importance_l2: float
    importance_rel: float
    jaccard: float
    symdiff: int
    delta_w_l2: float
    sensitivity: float  # ||dI|| / ||dw||, 0 when dw == 0
    prune_set_a: tuple[int, ...] = ()
    prune_set_b: tuple[int, ...] = ()
    extra: dict = field(default_factory=dict)
    tied: tuple[tuple[str, str], ...] = ()  # (encoding, class) of each tied prune cut
    group_scores_a: dict[int, float] = field(default_factory=dict)
    group_scores_b: dict[int, float] = field(default_factory=dict)
    cls_map: dict[int, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        for key in ("tied", "group_scores_a", "group_scores_b", "cls_map"):
            del doc[key]
        return doc

    def to_csv_row(self) -> list:
        """One row under CSV_COLUMNS; csv writes each float as its repr."""
        doc = self.to_json_dict()
        return [doc[c] for c in CSV_COLUMNS]


CSV_COLUMNS = [
    "criterion",
    "perturbation",
    "baseline",
    "importance_l2",
    "importance_rel",
    "jaccard",
    "symdiff",
    "delta_w_l2",
    "sensitivity",
]


def jaccard(a, b) -> float:
    """|A & B| / |A | B|; two empty sets count as identical (1.0)."""
    a, b = set(a), set(b)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def _norm(x: np.ndarray) -> float:
    """The l2 norm of x. np.linalg.norm sums squares, which overflow once an
    element passes about 1e154; math.hypot scales, so a finite vector whose
    norm is finite gets that norm."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if norm == math.inf and np.isfinite(x).all():
        norm = math.hypot(*x)
    return norm


def _prunable_vector(names: list[str], values) -> np.ndarray:
    """The arrays of ``values`` under ``names``, raveled and concatenated in that order."""
    return np.concatenate([values[n].reshape(-1) for n in names]) if names else np.zeros(0)


def consistency_experiment(
    model,
    params: ParamSet,
    batch,
    criteria,
    spec: PerturbSpec,
    ratio: float,
    *,
    baseline_spec: PerturbSpec | None = None,
    settings: Mapping[str, NoiseSpec | MoreauConfig | None] | None = None,
) -> list[RobustnessReport]:
    """Importance + prune-set stability for each criterion between two weight
    encodings: baseline_spec (None = raw weights) versus spec. Both legs share
    the calibration batch and all noise seeds, and run in lockstep in one
    ``importance.run_criterion`` call per criterion, so each noise draw is
    made once for both. ``settings`` maps each criterion to what it takes
    (plain needs none) and is passed to it, so each leg scores and ranks as
    ``prune`` would.

    Distances are measured over every element of the parameters that prune
    structures slice, in ParamSet order: the support of ``perturb``, so a
    gaussian-ball row's ``delta_w_l2`` is its epsilon.

    With two Monte Carlo criteria or more, and when ``smoothing.ForkedChild``
    lets it fork, one helper computes the last Monte Carlo criterion while
    this process computes the others in order, and its report is read back
    at that criterion's place. While it runs, no loop of either process
    forks a draw helper. Both run the same code on the same operands, so
    the reports are those of one process. When the helper fails or dies
    this process computes that criterion itself, so the first error in
    criteria order is raised as without a helper; an earlier criterion that
    raises kills and reaps the helper first.
    """
    if not criteria:
        raise ValueError("need at least one criterion")
    prunable = {s.param for st in model.structures() for s in st.slices}
    params_a = perturb(params, baseline_spec, prunable) if baseline_spec else params
    params_b = perturb(params, spec, prunable)
    names = [n for n in params.names if n in prunable]
    dw = _norm(_prunable_vector(names, params_a) - _prunable_vector(names, params_b))

    def report(criterion: str) -> RobustnessReport:
        rep_a, rep_b = imp.run_criterion(
            criterion, model, (params_a, params_b), batch, ratio,
            settings=(settings or {}).get(criterion),
        )
        i_a = _prunable_vector(names, rep_a.element_scores)
        i_b = _prunable_vector(names, rep_b.element_scores)
        di = _norm(i_a - i_b)
        denom = max(_norm(i_a), _norm(i_b))
        rel = di / denom if denom > 0 else 0.0
        sym = len(set(rep_a.prune_set) ^ set(rep_b.prune_set))
        label_a = baseline_spec.label() if baseline_spec else "none"
        return RobustnessReport(
            criterion=criterion,
            perturbation=spec.label(),
            baseline=label_a,
            importance_l2=di,
            importance_rel=rel,
            jaccard=jaccard(rep_a.prune_set, rep_b.prune_set),
            symdiff=sym,
            delta_w_l2=dw,
            sensitivity=di / dw if dw > 0 else 0.0,
            prune_set_a=rep_a.prune_set,
            prune_set_b=rep_b.prune_set,
            extra={"a": rep_a.extra, "b": rep_b.extra},
            tied=tuple((label_a, c) for c in rep_a.tied)
            + tuple((spec.label(), c) for c in rep_b.tied),
            group_scores_a=rep_a.group_scores,
            group_scores_b=rep_b.group_scores,
            cls_map=rep_a.cls_map,
        )

    # with two Monte Carlo criteria or more a forked helper computes the
    # last of them while this process runs the others
    monte_carlo = [i for i, c in enumerate(criteria) if c in imp.MONTE_CARLO]
    helper = None
    if len(monte_carlo) >= 2:
        helper = _fork_report(report, criteria[monte_carlo[-1]])
    reports = []
    try:
        for i, criterion in enumerate(criteria):
            sent = None
            if helper is not None and i == monte_carlo[-1]:
                sent = _take_report(helper)
                helper.close()
                helper = None
            # a criterion's scores are freed before the next one runs
            reports.append(report(criterion) if sent is None else sent)
    finally:
        if helper is not None:  # an earlier criterion raised
            helper.close()
    return reports


def _fork_report(report, criterion: str) -> smoothing.ForkedChild | None:
    """Fork a helper that sends ``report(criterion)`` back, pickled after
    its length; None when ``ForkedChild.fork`` refuses. A helper that fails
    sends nothing."""

    def serve(child: smoothing.ForkedChild) -> None:
        payload = pickle.dumps(report(criterion))
        with os.fdopen(child.replies, "wb", closefd=False) as out:
            out.write(struct.pack("q", len(payload)) + payload)

    return smoothing.ForkedChild.fork(serve)


def _take_report(helper: smoothing.ForkedChild) -> RobustnessReport | None:
    """The helper's report, once it has ended; None when it failed or died."""
    with os.fdopen(helper.replies, "rb", closefd=False) as replies:
        sent = replies.read()
    if len(sent) < 8 or struct.unpack_from("q", sent)[0] != len(sent) - 8:
        return None
    return pickle.loads(sent[8:])


def directional_comparisons(reports: list[RobustnessReport]) -> list[dict]:
    """Stability comparisons of each envelope-based criterion against the
    plain gradient: smaller relative importance distance AND no larger
    prune-set symmetric difference."""
    by_crit = {r.criterion: r for r in reports}
    plain = by_crit.get("plain")
    out = []
    if plain is None:
        return out
    for name in imp.MONTE_CARLO:
        r = by_crit.get(name)
        if r is None:
            continue
        out.append(
            {
                "comparison": f"{name}<=plain",
                "importance_rel": [r.importance_rel, plain.importance_rel],
                "symdiff": [r.symdiff, plain.symdiff],
                "holds": bool(
                    r.importance_rel <= plain.importance_rel and r.symdiff <= plain.symdiff
                ),
            }
        )
    return out
