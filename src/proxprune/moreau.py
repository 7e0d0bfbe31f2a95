"""Envelope-gradient estimation via the damped proximal-gradient loop.

For regularization weight rho the loop minimizes

    g_sigma(v) + ||v - w||^2 / (2 rho) [+ eta * ||v - w||_{2,1}]

by T fixed-size gradient steps from v = w, where g_sigma is the Monte Carlo
Gaussian smoothing of the model loss. Only ``group_sparse_moreau_grad``,
which is given the groups, applies the bracketed group penalty. The
returned ``mg`` field stores displacement / rho = (v_T - w) / rho. Note
this is the negative of the envelope's gradient at w; every downstream
consumer takes absolute values, so only magnitudes matter, and validation
against closed forms compares magnitudes.

With the group penalty each step re-centers the displacement through the
group soft-threshold operator, the proximal map of the scaled l2,1 norm.

Both entry points take a sequence of legs, weight sets that share names and
shapes: their loops run in lockstep, so each noise draw is made once for
all of them, and each leg's result equals a call on it alone.
"""
from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .params import ParamSet, stack_flat, structure_flat_indices, unflatten_map
from .params import flatten_map  # noqa: F401 -- benchmark/tracer.py wraps it here by name
from .smoothing import MonteCarloLoop, NoiseSpec, smoothed_loss_and_grad


class DivergenceError(Exception):
    def __init__(self, step: int, norm: float, limit: float):
        super().__init__(
            f"proximal iterate diverged at step {step}: "
            f"||v - w|| = {norm:.3g} exceeds guard {limit:.3g}"
        )
        self.step = step


@dataclass(frozen=True)
class MoreauConfig:
    """Hyperparameters of the proximal loop.

    gamma <= rho keeps the damping factor (1 - gamma/rho) inside [0, 1);
    steps is fixed (no convergence criterion) -- pass a large steps / small
    gamma pair explicitly when validating against closed forms. eta > 0
    weights the group penalty, which needs ``group_sparse_moreau_grad``.
    """

    rho: float = 0.05
    gamma: float = 1e-3
    steps: int = 10
    eta: float = 0.0
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec(scale=0.05, m=4, seed=0))

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if not (0 < self.gamma <= self.rho):
            raise ValueError("gamma must satisfy 0 < gamma <= rho")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 <= self.eta < math.inf:
            raise ValueError("eta must be >= 0 and finite")


class GroupLayout:
    """Disjoint index subsets over the flattened parameter vector, one per
    channel-level structure; ``labels`` carries the structure ids."""

    def __init__(self, subsets, labels, size: int):
        self.subsets = [np.asarray(s, dtype=np.int64) for s in subsets]
        self.labels = list(labels)
        if len(self.labels) != len(self.subsets):
            raise ValueError("labels must align with subsets")
        # sort every index together with the subset it came from: a value
        # shared by two subsets shows up as equal neighbours with different
        # owners (repeats inside one subset are allowed)
        flat = np.concatenate(self.subsets) if self.subsets else np.zeros(0, dtype=np.int64)
        owner = np.repeat(np.arange(len(self.subsets)), [s.size for s in self.subsets])
        order = np.argsort(flat, kind="stable")
        flat, owner = flat[order], owner[order]
        shared = np.flatnonzero((flat[1:] == flat[:-1]) & (owner[1:] != owner[:-1]))
        if shared.size:
            k = shared[0]
            a, b = self.labels[owner[k]], self.labels[owner[k + 1]]
            raise ValueError(f"layout subsets must be disjoint: {a!r} and {b!r} share index {flat[k]}")
        if flat.size and flat[-1] >= size:
            raise ValueError("layout index out of range")

    def __len__(self) -> int:
        return len(self.subsets)


def channel_layout(params: ParamSet, structures) -> GroupLayout:
    """Layout whose subsets are the flat indices of each prune structure."""
    offsets = params.offsets()
    return GroupLayout(
        [structure_flat_indices(params, st, offsets) for st in structures],
        labels=[st.id for st in structures],
        size=params.size,
    )


def group_soft_threshold(
    v: np.ndarray, layout: GroupLayout, alpha: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Proximal map of alpha * ||.||_{2,1}: subsets with l2 norm <= alpha are
    zeroed, the rest shrink by (1 - alpha/norm); indices outside every
    subset pass through unchanged. alpha = 0 is the identity.

    The result goes into ``out`` when given (``out=v`` works in place,
    since disjoint subsets never change each other's norms)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if out is None:
        out = np.array(v, dtype=np.float64)
    elif out is not v:
        np.copyto(out, v)
    if alpha == 0.0:
        return out
    for s in layout.subsets:
        vs = out[s]
        norm = math.sqrt(float(np.dot(vs, vs)))
        if norm <= alpha:
            out[s] = 0.0
        else:
            vs *= 1.0 - alpha / norm
            out[s] = vs
    return out


@dataclass
class MoreauResult:
    mg: dict[str, np.ndarray]
    trace: list[float]
    zeroed_groups: tuple[int, ...] = ()


@dataclass
class MoreauLegs:
    """The results of one lockstep loop over several legs, in leg order."""

    legs: list[MoreauResult]

    @property
    def trace(self) -> list[tuple[float, ...]]:
        """One entry per step: the objective of every leg."""
        return list(zip(*(r.trace for r in self.legs)))

    @property
    def zeroed_groups(self) -> tuple[int, ...]:
        """The zeroed groups of every leg, leg after leg."""
        return tuple(label for r in self.legs for label in r.zeroed_groups)


def _proximal_loop(model, legs: list[ParamSet], batch, config: MoreauConfig, layout):
    """Run the loop from each leg's weights; one MoreauResult per leg.

    Per leg only w0, v and the smoothed gradient g are held, as rows of
    (k, P) arrays; the d scratch is shared, and every step's draws go
    through one MonteCarloLoop, so a helper process, when the loop forks
    one, serves all of its steps."""
    params = legs[0]  # names and shapes, shared by every leg
    w0 = stack_flat(legs)
    guards = [1e3 * float(np.linalg.norm(row)) + 1e3 for row in w0]
    v = w0.copy()
    g = np.empty_like(w0)
    d = np.empty(w0.shape[1])  # v - w0 of one leg
    traces: list[list[float]] = [[] for _ in legs]
    alpha = config.gamma * config.eta
    damping = 1.0 - config.gamma / config.rho
    with closing(MonteCarloLoop(model, params, batch, config.noise, config.steps)) as loop:
        for t in range(config.steps):
            _, losses = smoothed_loss_and_grad(loop, v, g)
            for j, (vj, gj, w0j) in enumerate(zip(v, g, w0)):
                # v = damping * v - gamma * (g - w0 / rho), in this grouping:
                # IEEE arithmetic is not associative and outputs must stay
                # byte-identical. w0 / rho goes through d, which is free until
                # the distance below
                np.divide(w0j, config.rho, out=d)
                gj -= d
                gj *= config.gamma
                vj *= damping
                vj -= gj
                if layout is not None and alpha > 0.0:
                    # v = w0 + gst(v - w0)
                    vj -= w0j
                    group_soft_threshold(vj, layout, alpha, out=vj)
                    vj += w0j
                np.subtract(vj, w0j, out=d)
                dist2 = float(np.dot(d, d))
                traces[j].append(losses[j] + dist2 / (2.0 * config.rho))
                if math.sqrt(dist2) > guards[j]:
                    raise DivergenceError(t, math.sqrt(dist2), guards[j])
    # mg = (v - w0) / rho of the last step, into g, which the loop no
    # longer needs
    mg = np.subtract(v, w0, out=g)
    mg /= config.rho
    results = []
    for mgj, trace in zip(mg, traces):
        zeroed: tuple[int, ...] = ()
        if layout is not None:
            zeroed = tuple(
                label
                for label, s in zip(layout.labels, layout.subsets)
                if s.size > 0 and not np.any(mgj[s])
            )
        results.append(
            MoreauResult(mg=unflatten_map(params, mgj), trace=trace, zeroed_groups=zeroed)
        )
    return results


def moreau_grad(model, legs: Sequence[ParamSet], batch, config: MoreauConfig) -> MoreauLegs:
    """Envelope-gradient estimate without the group penalty, one result per leg."""
    if config.eta != 0.0:
        raise ValueError("moreau_grad needs eta == 0; group_sparse_moreau_grad applies eta")
    return MoreauLegs(_proximal_loop(model, list(legs), batch, config, layout=None))


def group_sparse_moreau_grad(
    model, legs: Sequence[ParamSet], batch, config: MoreauConfig, layout: GroupLayout
) -> MoreauLegs:
    """Group-sparse envelope gradient, one result per leg: every layout
    subset of mg comes out exactly zero or untouched by the threshold.
    eta = 0 follows the plain code path bit-for-bit."""
    return MoreauLegs(_proximal_loop(model, list(legs), batch, config, layout))
