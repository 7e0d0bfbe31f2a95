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
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import importance as imp
from . import lowprec
from .moreau import MoreauConfig, channel_layout
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
        if self.kind == "gaussian-ball" and self.epsilon < 0:
            raise ValueError("gaussian-ball epsilon must be >= 0")

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
            (n, lowprec.round_trip(a, fmt) if n in names else a.copy()) for n, a in params
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


@dataclass
class RobustnessReport:
    criterion: str
    spec_label: str
    baseline_label: str
    importance_l2: float
    importance_rel: float
    jaccard: float
    symdiff: int
    delta_w_l2: float
    sensitivity: float  # ||dI|| / ||dw||, 0 when dw == 0
    prune_set_a: tuple[int, ...] = ()
    prune_set_b: tuple[int, ...] = ()
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "perturbation": self.spec_label,
            "baseline": self.baseline_label,
            "importance_l2": self.importance_l2,
            "importance_rel": self.importance_rel,
            "jaccard": self.jaccard,
            "symdiff": self.symdiff,
            "delta_w_l2": self.delta_w_l2,
            "sensitivity": self.sensitivity,
            "prune_set_a": list(self.prune_set_a),
            "prune_set_b": list(self.prune_set_b),
            "extra": self.extra,
        }

    def to_csv_row(self) -> list:
        """One row under CSV_COLUMNS."""
        return [
            self.criterion,
            self.spec_label,
            self.baseline_label,
            repr(self.importance_l2),
            repr(self.importance_rel),
            repr(self.jaccard),
            self.symdiff,
            repr(self.delta_w_l2),
            repr(self.sensitivity),
        ]


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


def _prunable_vector(params: ParamSet, layout, values: dict[str, np.ndarray]) -> np.ndarray:
    flat = np.concatenate([np.asarray(values[n]).reshape(-1) for n, _ in params])
    return flat[layout.indices]


def consistency_experiment(
    model,
    params: ParamSet,
    structures,
    groups,
    batch,
    criteria,
    spec: PerturbSpec,
    ratio: float,
    *,
    baseline_spec: PerturbSpec | None = None,
    agg: str = "sum",
    settings: Mapping[str, NoiseSpec | MoreauConfig | None] | None = None,
) -> list[RobustnessReport]:
    """Importance + prune-set stability for each criterion between two weight
    encodings: baseline_spec (None = raw weights) versus spec. Both legs share
    the calibration batch and all noise seeds. ``settings`` maps each
    criterion to the settings ``importance.run_criterion`` takes for it;
    plain needs none.

    Distances are measured over the elements covered by prune structures --
    exactly the coordinates that decide what gets removed.
    """
    if not criteria:
        raise ValueError("need at least one criterion")
    prunable = {s.param for st in structures for s in st.slices}
    params_a = perturb(params, baseline_spec, prunable) if baseline_spec else params
    params_b = perturb(params, spec, prunable)
    # one layout serves both legs of every criterion: perturbations keep shapes
    layout = channel_layout(params, structures)

    w_a = _prunable_vector(params, layout, {n: a for n, a in params_a})
    w_b = _prunable_vector(params, layout, {n: a for n, a in params_b})
    dw = float(np.linalg.norm(w_a - w_b))

    reports = []
    for criterion in criteria:
        def run(p: ParamSet) -> imp.ImportanceReport:
            return imp.run_criterion(
                criterion,
                model,
                p,
                structures,
                groups,
                batch,
                ratio,
                agg=agg,
                settings=(settings or {}).get(criterion),
                layout=layout,
            )

        rep_a = run(params_a)
        rep_b = run(params_b)
        i_a = _prunable_vector(params, layout, rep_a.element_scores)
        i_b = _prunable_vector(params, layout, rep_b.element_scores)
        di = float(np.linalg.norm(i_a - i_b))
        denom = max(float(np.linalg.norm(i_a)), float(np.linalg.norm(i_b)))
        rel = di / denom if denom > 0 else 0.0
        sym = len(set(rep_a.prune_set) ^ set(rep_b.prune_set))
        reports.append(
            RobustnessReport(
                criterion=criterion,
                spec_label=spec.label(),
                baseline_label=baseline_spec.label() if baseline_spec else "none",
                importance_l2=di,
                importance_rel=rel,
                jaccard=jaccard(rep_a.prune_set, rep_b.prune_set),
                symdiff=sym,
                delta_w_l2=dw,
                sensitivity=di / dw if dw > 0 else 0.0,
                prune_set_a=rep_a.prune_set,
                prune_set_b=rep_b.prune_set,
                extra={"a": rep_a.extra, "b": rep_b.extra},
            )
        )
    return reports


def directional_comparisons(reports: list[RobustnessReport]) -> list[dict]:
    """Stability comparisons of each envelope-based criterion against the
    plain gradient: smaller relative importance distance AND no larger
    prune-set symmetric difference."""
    by_crit = {r.criterion: r for r in reports}
    plain = by_crit.get("plain")
    out = []
    if plain is None:
        return out
    for name in ("smooth", "moreau", "moreau-gs"):
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
