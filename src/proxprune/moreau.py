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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ParamSet, flatten_map, structure_flat_indices, unflatten_map
from .smoothing import NoiseSpec, smoothed_loss_and_grad


class MoreauError(Exception):
    pass


class DivergenceError(MoreauError):
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
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not (0 < self.gamma <= self.rho):
            raise ValueError("gamma must satisfy 0 < gamma <= rho")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")


class GroupLayout:
    """Disjoint index subsets over the flattened parameter vector, one per
    channel-level structure; ``labels`` carries the structure ids and
    ``indices`` every covered index in ascending order."""

    def __init__(self, subsets, labels=None, size: int | None = None):
        self.subsets = [np.asarray(s, dtype=np.int64) for s in subsets]
        self.labels = list(labels) if labels is not None else list(range(len(self.subsets)))
        if len(self.labels) != len(self.subsets):
            raise ValueError("labels must align with subsets")
        # sort every index together with the subset it came from: a value
        # shared by two subsets shows up as equal neighbours with different
        # owners (repeats inside one subset are allowed)
        flat = np.concatenate(self.subsets) if self.subsets else np.zeros(0, dtype=np.int64)
        owner = np.repeat(np.arange(len(self.subsets)), [s.size for s in self.subsets])
        order = np.argsort(flat, kind="stable")
        flat, owner = flat[order], owner[order]
        if np.any((flat[1:] == flat[:-1]) & (owner[1:] != owner[:-1])):
            raise ValueError("layout subsets must be disjoint")
        if size is not None and flat.size and flat[-1] >= size:
            raise ValueError("layout index out of range")
        self.indices = flat

    def __len__(self) -> int:
        return len(self.subsets)


def channel_layout(params: ParamSet, structures) -> GroupLayout:
    """Layout whose subsets are the flat indices of each prune structure."""
    return GroupLayout(
        [structure_flat_indices(params, st) for st in structures],
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
    w_final: ParamSet
    displacement: dict[str, np.ndarray]
    mg: dict[str, np.ndarray]
    trace: list[float]
    zeroed_groups: tuple[int, ...] = ()

    def mg_flat(self, like: ParamSet) -> np.ndarray:
        return flatten_map(like, self.mg)


def _proximal_loop(model, params: ParamSet, batch, config: MoreauConfig, layout) -> MoreauResult:
    w0 = params.flatten()
    guard = 1e3 * float(np.linalg.norm(w0)) + 1e3
    v = w0.copy()
    g = np.empty_like(w0)  # flat smoothed gradient at v
    d = np.empty_like(w0)  # v - w0
    work = np.empty((2, w0.size))  # smoothing scratch, reused every step
    trace: list[float] = []
    alpha = config.gamma * config.eta
    damping = 1.0 - config.gamma / config.rho
    w0_rho = w0 / config.rho
    for t in range(config.steps):
        _, loss_est = smoothed_loss_and_grad(
            model, params, batch, config.noise, step=t, w=v, out=g, work=work
        )
        # v = damping * v - gamma * (g - w0 / rho), in this grouping: IEEE
        # arithmetic is not associative and outputs must stay byte-identical
        g -= w0_rho
        g *= config.gamma
        v *= damping
        v -= g
        if layout is not None and alpha > 0.0:
            # v = w0 + gst(v - w0)
            v -= w0
            group_soft_threshold(v, layout, alpha, out=v)
            v += w0
        np.subtract(v, w0, out=d)
        dist2 = float(np.dot(d, d))
        trace.append(loss_est + dist2 / (2.0 * config.rho))
        if math.sqrt(dist2) > guard:
            raise DivergenceError(t, math.sqrt(dist2), guard)
    displacement = d  # v - w0 of the last step
    mg_vec = displacement / config.rho
    zeroed: tuple[int, ...] = ()
    if layout is not None:
        zeroed = tuple(
            label
            for label, s in zip(layout.labels, layout.subsets)
            if s.size > 0 and not np.any(mg_vec[s])
        )
    return MoreauResult(
        w_final=ParamSet(unflatten_map(params, v).items()),
        displacement=unflatten_map(params, displacement),
        mg=unflatten_map(params, mg_vec),
        trace=trace,
        zeroed_groups=zeroed,
    )


def moreau_grad(model, params: ParamSet, batch, config: MoreauConfig) -> MoreauResult:
    """Envelope-gradient estimate without the group penalty."""
    if config.eta != 0.0:
        raise ValueError("moreau_grad needs eta == 0; group_sparse_moreau_grad applies eta")
    return _proximal_loop(model, params, batch, config, layout=None)


def group_sparse_moreau_grad(
    model, params: ParamSet, batch, config: MoreauConfig, layout: GroupLayout
) -> MoreauResult:
    """Group-sparse envelope gradient: every layout subset of mg comes out
    exactly zero or untouched by the threshold. eta = 0 follows the plain
    code path bit-for-bit."""
    return _proximal_loop(model, params, batch, config, layout=layout)


ORACLE_IDS = ("quadratic", "linear", "scaled-abs")


def closed_form_oracle(function_id: str, w: np.ndarray, rho: float, u=None, beta: float = 1.0):
    """Exact (proximal point, envelope gradient) for the validation functions.

    quadratic 0.5||w||^2 : prox = w/(1+rho),        grad = w/(1+rho)
    linear    u.w        : prox = w - rho*u,        grad = u
    scaled-abs beta||w||_1: prox = soft-threshold by rho*beta,
                            grad = sign(w)*min(|w|/rho, beta)  (per coordinate)
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    if rho <= 0:
        raise ValueError("rho must be positive")
    if function_id == "quadratic":
        prox = w / (1.0 + rho)
        return prox, prox.copy()
    if function_id == "linear":
        if u is None:
            raise ValueError("linear oracle needs the coefficient vector u")
        u = np.broadcast_to(np.asarray(u, dtype=np.float64), w.shape)
        return w - rho * u, u.copy()
    if function_id == "scaled-abs":
        thresh = rho * beta
        prox = np.sign(w) * np.maximum(np.abs(w) - thresh, 0.0)
        grad = np.sign(w) * np.minimum(np.abs(w) / rho, beta)
        return prox, grad
    raise ValueError(f"unknown oracle function id {function_id!r}; known: {ORACLE_IDS}")


@dataclass
class ProbeReport:
    ratios: list[float]
    adjusted: list[float]  # ratio minus its slack
    max_ratio: float
    max_adjusted: float
    bound: float
    skipped: int
    passed: bool
    vacuous: bool  # every pair was coincident


def lipschitz_probe(grad_fn, pairs, bound: float, slack=0.0) -> ProbeReport:
    """Empirical gradient-smoothness probe: per pair (w1, w2) the ratio
    ||grad_fn(w1) - grad_fn(w2)|| / ||w1 - w2||, passed iff every ratio
    stays within bound after subtracting its Monte Carlo slack.

    ``slack`` is additive, scalar or per-pair. Coincident pairs are skipped
    and counted; if nothing remains the probe passes vacuously.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("lipschitz_probe: need at least one pair")
    if bound <= 0:
        raise ValueError("lipschitz_probe: bound must be positive")
    slacks = np.broadcast_to(np.asarray(slack, dtype=np.float64), (len(pairs),))
    ratios: list[float] = []
    adjusted: list[float] = []
    skipped = 0
    for (w1, w2), s in zip(pairs, slacks):
        w1 = np.atleast_1d(np.asarray(w1, dtype=np.float64))
        w2 = np.atleast_1d(np.asarray(w2, dtype=np.float64))
        dw = float(np.linalg.norm(w1 - w2))
        if dw == 0.0:
            skipped += 1
            continue
        dg = float(np.linalg.norm(np.asarray(grad_fn(w1)) - np.asarray(grad_fn(w2))))
        ratios.append(dg / dw)
        adjusted.append(dg / dw - float(s))
    vacuous = not ratios
    max_ratio = max(ratios) if ratios else 0.0
    max_adjusted = max(adjusted) if adjusted else 0.0
    return ProbeReport(
        ratios=ratios,
        adjusted=adjusted,
        max_ratio=max_ratio,
        max_adjusted=max_adjusted,
        bound=bound,
        skipped=skipped,
        passed=vacuous or max_adjusted <= bound,
        vacuous=vacuous,
    )
