"""Importance scoring, group ranking and physical slice removal.

Element scores are |gradient-like * w|; structures sum their elements;
groups fold member structures with a configurable aggregator. Selection
happens per structural class (heads and channels keep separate pools by
default) and removal is physical: slices are deleted, never masked.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import moreau as _moreau
from . import smoothing as _smoothing
from . import autodiff as ad
from .params import ParamSet
from .smoothing import NoiseSpec

CRITERIA = ("plain", "smooth", "moreau", "moreau-gs")
AGGREGATORS = ("sum", "max", "prod")


class PruningError(Exception):
    pass


class WouldEmptyLayerError(PruningError):
    def __init__(self, block: str):
        super().__init__(f"pruning would remove every structure in block {block!r}")
        self.block = block


def element_importance(grad_like: Mapping[str, np.ndarray], params: ParamSet) -> dict[str, np.ndarray]:
    """|g * w| per element; parameters absent from grad_like score zero."""
    scores = {}
    for name, w in params:
        if name in grad_like:
            g = np.asarray(grad_like[name], dtype=np.float64)
            if g.shape != w.shape:
                raise ValueError(f"gradient shape {g.shape} != weight shape {w.shape} for {name!r}")
            scores[name] = np.abs(g * w)
        else:
            scores[name] = np.zeros_like(w)
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


def group_importance(
    structure_scores: Mapping[int, float], groups, agg: str = "sum"
) -> dict[int, float]:
    """Fold member structure scores in ascending structure-id order."""
    if agg not in AGGREGATORS:
        raise ValueError(f"agg must be one of {AGGREGATORS}")
    out = {}
    for g in groups:
        members = [structure_scores[sid] for sid in sorted(g.structures)]
        if agg == "sum":
            acc = 0.0
            for v in members:
                acc += v
        elif agg == "max":
            acc = members[0]
            for v in members[1:]:
                acc = max(acc, v)
        else:
            acc = 1.0
            for v in members:
                acc *= v
        out[g.id] = acc
    return out


def rank_and_select(
    group_scores: Mapping[int, float],
    ratio: float,
    cls_map: Mapping[int, str],
    global_pool: bool = False,
) -> tuple[int, ...]:
    """floor(ratio * class size) lowest-scoring groups per class; ties break
    toward the lower group id. global_pool=True ranks one shared pool."""
    if not (0.0 <= ratio < 1.0):
        raise ValueError(f"pruning ratio must be in [0, 1), got {ratio}")
    pools: dict[str, list[int]] = {}
    for gid in group_scores:
        key = "all" if global_pool else cls_map[gid]
        pools.setdefault(key, []).append(gid)
    selected: list[int] = []
    for _, ids in sorted(pools.items()):
        k = int(ratio * len(ids))
        ranked = sorted(ids, key=lambda g: (group_scores[g], g))
        selected.extend(ranked[:k])
    return tuple(sorted(selected))


def prune_model(
    model,
    params: ParamSet,
    structures,
    groups,
    prune_set,
) -> tuple[object, ParamSet, dict[str, dict[int, np.ndarray]]]:
    """Physically delete the slices of every structure in the selected groups.

    Returns the rebuilt (smaller) model, its ParamSet and per-parameter
    index maps {param: {axis: kept old indices}}. Raises
    WouldEmptyLayerError if a block would lose all of its structures.
    """
    prune_set = set(prune_set)
    by_id = {st.id: st for st in structures}
    group_by_id = {g.id: g for g in groups}
    for gid in prune_set:
        if gid not in group_by_id:
            raise PruningError(f"unknown group id {gid}")
    removed_sids = {
        sid for gid in prune_set for sid in group_by_id[gid].structures
    }

    block_total: dict[str, int] = {}
    block_removed: dict[str, int] = {}
    for st in structures:
        block_total[st.block] = block_total.get(st.block, 0) + 1
    for sid in removed_sids:
        b = by_id[sid].block
        block_removed[b] = block_removed.get(b, 0) + 1
    for block, removed in block_removed.items():
        if removed >= block_total[block]:
            raise WouldEmptyLayerError(block)

    # indices to drop, per (param, axis)
    drop: dict[tuple[str, int], set[int]] = {}
    for sid in removed_sids:
        for s in by_id[sid].slices:
            drop.setdefault((s.param, s.axis), set()).update(range(s.start, s.stop))

    new_items = []
    index_maps: dict[str, dict[int, np.ndarray]] = {}
    for name, arr in params:
        out = arr
        for axis in range(arr.ndim):
            dropped = drop.get((name, axis))
            kept = np.arange(arr.shape[axis])
            if dropped:
                kept = np.array([i for i in kept if i not in dropped], dtype=np.int64)
                out = np.take(out, kept, axis=axis)
            index_maps.setdefault(name, {})[axis] = kept
        new_items.append((name, out))

    new_model = model.shrink(block_removed)
    return new_model, ParamSet(new_items), index_maps


@dataclass
class ImportanceReport:
    criterion: str
    ratio: float
    agg: str
    element_scores: dict[str, np.ndarray]
    structure_scores: dict[int, float]
    group_scores: dict[int, float]
    cls_map: dict[int, str]
    prune_set: tuple[int, ...]
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """JSON form: structure/group granularity (element scores stay on the
        in-memory report; their per-parameter totals are included)."""
        return {
            "criterion": self.criterion,
            "ratio": self.ratio,
            "agg": self.agg,
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


def criterion_grad_like(
    criterion: str,
    model,
    params: ParamSet,
    batch,
    *,
    moreau_config: _moreau.MoreauConfig | None = None,
    smooth_spec: NoiseSpec | None = None,
    layout: _moreau.GroupLayout | None = None,
) -> tuple[dict[str, np.ndarray], dict]:
    """Gradient-like vector for one pruning criterion, plus extra report data."""
    if criterion == "plain":
        _, grads = ad.gradient(model.loss, dict(params), batch)
        return grads, {}
    if criterion == "smooth":
        spec = smooth_spec or NoiseSpec(scale=0.05, m=100, seed=0)
        return _smoothing.smoothed_grad(model, params, batch, spec), {"noise": vars(spec)}
    if criterion == "moreau":
        cfg = moreau_config or _moreau.MoreauConfig()
        if cfg.mode != "plain":
            raise ValueError("criterion 'moreau' needs a plain-mode config")
        res = _moreau.moreau_grad(model, params, batch, cfg)
        return res.mg, {"rho": cfg.rho, "gamma": cfg.gamma, "steps": cfg.steps}
    if criterion == "moreau-gs":
        cfg = moreau_config or _moreau.MoreauConfig.group_sparse()
        if cfg.mode != "group-sparse":
            raise ValueError("criterion 'moreau-gs' needs a group-sparse config")
        if layout is None:
            raise ValueError("criterion 'moreau-gs' needs a GroupLayout")
        res = _moreau.group_sparse_moreau_grad(model, params, batch, cfg, layout)
        extra = {
            "rho": cfg.rho,
            "gamma": cfg.gamma,
            "steps": cfg.steps,
            "eta": cfg.eta,
            "zeroed_groups": len(res.zeroed_groups),
        }
        return res.mg, extra
    raise ValueError(f"unknown criterion {criterion!r}; known: {CRITERIA}")


def run_criterion(
    criterion: str,
    model,
    params: ParamSet,
    structures,
    groups,
    batch,
    ratio: float,
    *,
    agg: str = "sum",
    global_pool: bool = False,
    moreau_config: _moreau.MoreauConfig | None = None,
    smooth_spec: NoiseSpec | None = None,
    layout: _moreau.GroupLayout | None = None,
) -> ImportanceReport:
    """Full deterministic pipeline: criterion -> scores -> ranked prune set.

    ``layout`` is the channel layout of the structures for moreau-gs; it is
    built here when not given."""
    if criterion == "moreau-gs" and layout is None:
        layout = _moreau.channel_layout(params, structures)
    grad_like, extra = criterion_grad_like(
        criterion,
        model,
        params,
        batch,
        moreau_config=moreau_config,
        smooth_spec=smooth_spec,
        layout=layout,
    )
    elem = element_importance(grad_like, params)
    struct = structure_importance(elem, structures)
    cls = {g.id: g.cls for g in groups}
    group = group_importance(struct, groups, agg)
    selected = rank_and_select(group, ratio, cls, global_pool=global_pool)
    return ImportanceReport(
        criterion=criterion,
        ratio=ratio,
        agg=agg,
        element_scores=elem,
        structure_scores=struct,
        group_scores=group,
        cls_map=cls,
        prune_set=selected,
        extra=extra,
    )
