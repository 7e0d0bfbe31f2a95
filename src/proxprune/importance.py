"""Importance scoring, group ranking and physical slice removal.

Element scores are |gradient-like * w|; structures sum their elements;
groups sum their member structures. Selection happens per structural class
(heads against heads, channels against channels) and removal is physical:
slices are deleted, never masked.
"""
from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import moreau as _moreau
from . import smoothing as _smoothing
from . import autodiff as ad
from .params import ParamSet
from .smoothing import NoiseSpec

CRITERIA = ("plain", "smooth", "moreau", "moreau-gs")
# the settings each criterion other than plain takes (see run_criterion)
_SETTINGS = {"smooth": NoiseSpec, "moreau": _moreau.MoreauConfig, "moreau-gs": _moreau.MoreauConfig}
MONTE_CARLO = tuple(_SETTINGS)  # the criteria that draw noise


class PruningError(Exception):
    pass


class WouldEmptyLayerError(PruningError):
    def __init__(self, block: str):
        super().__init__(f"pruning would remove every structure in block {block!r}")
        self.block = block


def element_importance(grad_like: Mapping[str, np.ndarray], params: ParamSet) -> dict[str, np.ndarray]:
    """|g * w| per element; grad_like must name every parameter."""
    scores = {}
    for name, w in params:
        g = np.asarray(grad_like[name], dtype=np.float64)
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != weight shape {w.shape} for {name!r}")
        scores[name] = np.abs(g * w)
    return scores


def structure_importance(
    element_scores: Mapping[str, np.ndarray], structures
) -> dict[int, float]:
    """Sum of element scores over each structure's slices."""
    out = {}
    for st in structures:
        if not st.slices:
            warnings.warn(f"structure {st.id} has no slices; importance 0")
            out[st.id] = 0.0
            continue
        total = 0.0
        for s in st.slices:
            arr = element_scores[s.param]
            if s.axis >= arr.ndim or s.stop > arr.shape[s.axis] or s.start < 0:
                raise ValueError(
                    f"structure {st.id}: slice [{s.start}:{s.stop}] out of bounds "
                    f"for {s.param!r} with shape {arr.shape}"
                )
            total += float(arr[s.indexer(arr.ndim)].sum())
        out[st.id] = total
    return out


def group_importance(structure_scores: Mapping[int, float], groups) -> dict[int, float]:
    """Sum of member structure scores, a left fold in ascending structure-id
    order (builtin sum compensates on Python >= 3.12 and could change bytes)."""
    out = {}
    for g in groups:
        acc = 0.0
        for sid in sorted(g.structures):
            acc += structure_scores[sid]
        out[g.id] = acc
    return out


def rank_and_select(
    group_scores: Mapping[int, float], ratio: float, cls_map: Mapping[int, str]
) -> tuple[int, ...]:
    """floor(ratio * class size) lowest-scoring groups per class; ties break
    toward the lower group id.

    The product is taken exactly on the ratio as written in decimal (its
    shortest repr), so 0.29 of 100 groups is 29: the float product
    0.29 * 100 is 28.999999999999996."""
    if not (0.0 <= ratio < 1.0):
        raise ValueError(f"pruning ratio must be in [0, 1), got {ratio}")
    num, den = _decimal_fraction(ratio)
    selected: list[int] = []
    for _, ids in sorted(_classes(group_scores, cls_map).items()):
        k = num * len(ids) // den
        ranked = sorted(ids, key=lambda g: (group_scores[g], g))
        selected.extend(ranked[:k])
    return tuple(sorted(selected))


def tied_cuts(
    group_scores: Mapping[int, float], prune_set, cls_map: Mapping[int, str]
) -> tuple[str, ...]:
    """The classes whose prune cut falls between equal scores, where the
    group id alone decided what was pruned."""
    chosen = set(prune_set)
    tied = []
    for key, ids in sorted(_classes(group_scores, cls_map).items()):
        pruned = [group_scores[g] for g in ids if g in chosen]
        kept = [group_scores[g] for g in ids if g not in chosen]
        if pruned and kept and max(pruned) == min(kept):
            tied.append(key)
    return tuple(tied)


def _classes(group_scores, cls_map) -> dict[str, list[int]]:
    classes: dict[str, list[int]] = {}
    for gid in group_scores:
        classes.setdefault(cls_map[gid], []).append(gid)
    return classes


def _decimal_fraction(x: float) -> tuple[int, int]:
    """x >= 0 as written in decimal by its shortest repr ("0.29", "1e-05"),
    as an exact numerator and denominator. Parsed by hand: the fractions
    module imports decimal, about 0.3 MB of resident memory per process."""
    mantissa, _, exp = repr(float(x)).partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = len(frac) - int(exp or 0)
    num = int(whole + frac)
    return (num, 10**shift) if shift >= 0 else (num * 10**-shift, 1)


def prune_model(model, params: ParamSet, prune_set) -> tuple[object, ParamSet]:
    """Physically delete the slices of every structure in the selected groups.

    Returns the rebuilt (smaller) model and its ParamSet. Raises
    WouldEmptyLayerError if a block would lose all of its structures.
    """
    prune_set = set(prune_set)
    structures = model.structures()
    by_id = {st.id: st for st in structures}
    group_by_id = {g.id: g for g in model.groups()}
    for gid in prune_set:
        if gid not in group_by_id:
            raise PruningError(f"unknown group id {gid}")
    removed_sids = {sid for gid in prune_set for sid in group_by_id[gid].structures}

    block_removed: Counter[str] = Counter()
    drop: dict[tuple[str, int], list[int]] = {}  # indices to delete per (param, axis)
    for sid in removed_sids:
        st = by_id[sid]
        block_removed[st.block] += 1
        for s in st.slices:
            drop.setdefault((s.param, s.axis), []).extend(range(s.start, s.stop))
    block_total = Counter(st.block for st in structures)
    for block, n in block_removed.items():
        if n >= block_total[block]:
            raise WouldEmptyLayerError(block)

    new_items = []
    for name, arr in params:
        for axis in range(arr.ndim):
            if (name, axis) in drop:
                arr = np.delete(arr, drop[(name, axis)], axis=axis)
        new_items.append((name, arr))
    return model.shrink(block_removed), ParamSet(new_items)


@dataclass
class ImportanceReport:
    criterion: str
    ratio: float
    element_scores: dict[str, np.ndarray]
    structure_scores: dict[int, float]
    group_scores: dict[int, float]
    cls_map: dict[int, str]
    prune_set: tuple[int, ...]
    extra: dict = field(default_factory=dict)
    tied: tuple[str, ...] = ()  # tied_cuts of the prune set; not in the JSON

    def to_json_dict(self) -> dict:
        """JSON form: structure/group granularity (element scores stay on the
        in-memory report; their per-parameter totals are included)."""
        return {
            "criterion": self.criterion,
            "ratio": self.ratio,
            "agg": "sum",  # the group fold; kept until the report schema changes
            "element_score_totals": {
                name: float(arr.sum()) for name, arr in sorted(self.element_scores.items())
            },
            "structures": [
                {"id": sid, "score": score}
                for sid, score in sorted(self.structure_scores.items())
            ],
            "groups": [
                {
                    "id": gid,
                    "class": self.cls_map[gid],
                    "score": score,
                    "pruned": gid in self.prune_set,
                }
                for gid, score in sorted(self.group_scores.items())
            ],
            "prune_set": list(self.prune_set),
            "extra": self.extra,
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["group_id", "class", "score", "pruned"]]
        for gid, score in sorted(self.group_scores.items()):
            rows.append([gid, self.cls_map[gid], repr(float(score)), int(gid in self.prune_set)])
        return rows


def run_criterion(
    criterion: str,
    model,
    legs: Sequence[ParamSet],
    batch,
    ratio: float,
    *,
    settings: NoiseSpec | _moreau.MoreauConfig | None = None,
) -> list[ImportanceReport]:
    """Full deterministic pipeline: criterion -> scores -> ranked prune set
    over the model's own structures and groups, one report per leg.

    ``settings`` is what the criterion needs besides the batch (see
    ``RunConfig.settings``): nothing for plain, a NoiseSpec for smooth and a
    MoreauConfig for moreau and moreau-gs. Only moreau-gs builds a channel
    layout, from the first leg, and it needs disjoint prune structures.

    ``legs`` are weight sets with the same names and shapes: each noise draw
    is made once and evaluated at every leg, and each leg's report equals
    the report of a call on that leg alone."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; known: {CRITERIA}")
    legs = list(legs)
    structures, groups = model.structures(), model.groups()
    need = _SETTINGS.get(criterion)
    if need is not None and not isinstance(settings, need):
        raise ValueError(f"criterion {criterion!r} needs a {need.__name__}, got {settings!r}")
    if criterion == "plain":
        grad_likes = [ad.gradient(model.loss, dict(p), batch)[1] for p in legs]
        extras = [{} for _ in legs]
    elif criterion == "smooth":
        grad_likes = _smoothing.smoothed_grad(model, legs, batch, settings)
        extras = [{"noise": vars(settings)} for _ in legs]
    else:
        if criterion == "moreau":
            res = _moreau.moreau_grad(model, legs, batch, settings)
        else:
            try:
                layout = _moreau.channel_layout(legs[0], structures)
            except ValueError as e:
                raise ValueError(f"moreau-gs needs disjoint prune structures: {e}") from None
            res = _moreau.group_sparse_moreau_grad(model, legs, batch, settings, layout)
        grad_likes = [r.mg for r in res.legs]
        extras = [
            {"rho": settings.rho, "gamma": settings.gamma, "steps": settings.steps}
            for _ in legs
        ]
        if criterion == "moreau-gs":
            for extra, r in zip(extras, res.legs):
                extra.update(eta=settings.eta, zeroed_groups=len(r.zeroed_groups))
    cls = {g.id: g.cls for g in groups}
    reports = []
    for p, grad_like, extra in zip(legs, grad_likes, extras):
        elem = element_importance(grad_like, p)
        struct = structure_importance(elem, structures)
        group = group_importance(struct, groups)
        selected = rank_and_select(group, ratio, cls)
        reports.append(
            ImportanceReport(
                criterion=criterion,
                ratio=ratio,
                element_scores=elem,
                structure_scores=struct,
                group_scores=group,
                cls_map=cls,
                prune_set=selected,
                extra=extra,
                tied=tied_cuts(group, selected, cls),
            )
        )
    return reports
