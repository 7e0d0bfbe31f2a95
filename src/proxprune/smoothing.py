"""Gaussian smoothing of the loss in weight space.

Noise comes in two flavours: ``relative`` scales each element's std by the
magnitude of the weight it perturbs (the pipeline default), ``absolute``
uses one constant std everywhere (the mode the Lipschitz bounds are probed
in). Draws are keyed by (seed, step, draw index), so every consumer that
shares a seed sees identical noise, and each optimization step redraws
fresh vectors.

A draw is one standard-normal stream over the flattened weight vector, in
ParamSet order (``rng.standard_normal(P)``). Determinism relies on this:
the same seed, step and draw index give the same noise element for element,
and with numpy's ``Generator`` the flat stream equals per-parameter draws
concatenated in ParamSet order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradMap
from .params import ParamSet, unflatten_map

MODES = ("relative", "absolute")


class SmoothingError(Exception):
    def __init__(self, msg: str, draw_index: int):
        super().__init__(msg)
        self.draw_index = draw_index


@dataclass(frozen=True)
class NoiseSpec:
    """scale: relative factor s (std = s*|w|) or absolute std; m: draw count."""

    scale: float = 0.05
    m: int = 1
    seed: int = 0
    mode: str = "relative"

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("noise scale must be >= 0")
        if self.m < 1:
            raise ValueError("noise sample count m must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"noise mode must be one of {MODES}")
        if self.seed < 0:
            raise ValueError("noise seed must be a non-negative integer")


def _draw(spec: NoiseSpec, draw_index: int, step: int, out: np.ndarray) -> None:
    """Fill ``out`` with the standard-normal stream of one draw."""
    if draw_index >= spec.m:
        raise ValueError(f"draw_index {draw_index} out of range for m={spec.m}")
    np.random.default_rng((spec.seed, step, draw_index)).standard_normal(out=out)


def _scale(spec: NoiseSpec, w: np.ndarray, out: np.ndarray | None = None):
    """Per-element std of a draw around the flat weights w."""
    if spec.mode == "relative":
        s = np.abs(w, out=out)
        s *= spec.scale
        return s
    return spec.scale


def sample_noise(
    params: ParamSet, spec: NoiseSpec, draw_index: int, step: int = 0
) -> dict[str, np.ndarray]:
    """One noise draw shaped like params, deterministic in (seed, step, draw).

    In relative mode elements with w == 0 receive exactly zero noise.
    """
    z = np.empty(params.size)
    _draw(spec, draw_index, step, z)
    z *= _scale(spec, params.flatten())
    return unflatten_map(params, z)


def smoothed_loss_and_grad(
    model,
    params: ParamSet,
    batch,
    spec: NoiseSpec,
    step: int = 0,
    *,
    w: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> tuple[GradMap, float]:
    """Monte Carlo smoothed gradient: mean over m noisy gradient evaluations,
    accumulated in ascending draw order. Also returns the mean noisy loss.

    scale == 0 short-circuits to a single exact evaluation, which makes
    (m=1, scale=0) reduce to the plain gradient bit-exactly.

    ``w`` is the flat weight vector to evaluate at (default
    ``params.flatten()``; params then only supply names and shapes).
    The mean gradient is written into the flat vector ``out`` (allocated
    when absent) and returned as per-parameter views of it; parameters the
    loss does not reach get a zero gradient. Each draw is scaled and added
    in place into one buffer the tape sees as per-parameter views, and the
    draw gradients are summed in place into ``out``. ``work`` is scratch of
    shape (2, P) for callers that evaluate repeatedly (allocated when absent).
    """
    if w is None:
        w = params.flatten()
    if out is None:
        out = np.empty(w.size)
    mean = unflatten_map(params, out)
    if spec.scale == 0.0:
        loss, grads = _eval(model, unflatten_map(params, w), batch, draw=0)
        _store(mean, grads)
        return mean, loss
    if work is None:
        work = np.empty((2, w.size))
    scale = _scale(spec, w, out=work[0])
    noisy = work[1]
    leaves = unflatten_map(params, noisy)
    losses = []
    for i in range(spec.m):
        _draw(spec, i, step, noisy)
        noisy *= scale
        noisy += w
        loss, grads = _eval(model, leaves, batch, draw=i)
        losses.append(loss)
        if i == 0:
            _store(mean, grads)
        else:
            for name, g in grads.items():
                mean[name] += g
    out /= spec.m
    return mean, math.fsum(losses) / spec.m


def _store(dest: dict[str, np.ndarray], grads: GradMap) -> None:
    for name, d in dest.items():
        if name in grads:
            np.copyto(d, grads[name])
        else:
            d.fill(0.0)


def _eval(model, leaves: dict[str, np.ndarray], batch, draw: int):
    try:
        loss, grads = ad.gradient(model.loss, leaves, batch)
    except ad.NonFiniteError as e:
        raise SmoothingError(f"non-finite gradient in draw {draw}: {e}", draw) from e
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise SmoothingError(f"non-finite gradient for {name!r} in draw {draw}", draw)
    return loss, grads


def smoothed_grad(model, params: ParamSet, batch, spec: NoiseSpec, step: int = 0) -> GradMap:
    """The smoothed-gradient pruning criterion; see smoothed_loss_and_grad."""
    grads, _ = smoothed_loss_and_grad(model, params, batch, spec, step)
    return grads
