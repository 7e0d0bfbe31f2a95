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

Draws are filled on one worker thread one ahead of their use
(``draw_stream``): a buffer is refilled only when the next draw is asked
for, and closing the stream joins the worker. Each draw is evaluated at
every leg of a call: k weight vectors that share names and shapes, such as
the two encodings of a robustness experiment.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradMap
from .params import ParamSet, stack_flat, unflatten_map


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
        if not 0 <= self.scale < math.inf:
            raise ValueError("noise scale must be >= 0 and finite")
        if self.m < 1:
            raise ValueError("noise sample count m must be >= 1")
        if self.mode not in ("relative", "absolute"):
            raise ValueError("noise mode must be relative or absolute")
        if self.seed < 0:
            raise ValueError("noise seed must be a non-negative integer")


def _draw(spec: NoiseSpec, draw_index: int, step: int, out: np.ndarray) -> None:
    """Fill ``out`` with the standard-normal stream of one draw."""
    np.random.default_rng((spec.seed, step, draw_index)).standard_normal(out=out)


def draw_stream(spec: NoiseSpec, steps, size: int) -> Iterator[np.ndarray]:
    """The draws (step, i) of every step in ``steps`` and every i < spec.m,
    in that order, as buffers of ``size`` values filled on one worker thread
    one draw ahead of the consumer.

    Asking for draw n sets the worker on draw n+1 in the buffer of draw n-1,
    which the consumer no longer reads, so thread timing cannot change what
    it reads. A draw's exception is raised by the ``next`` that asks for that
    draw, and asking past the last draw raises IndexError. Closing the stream
    joins the worker; a stream that is never asked starts no thread.
    """
    keys = [(t, i) for t in steps for i in range(spec.m)]
    bufs = (np.empty(size), np.empty(size))
    with ThreadPoolExecutor(1, thread_name_prefix="proxprune-draws") as pool:

        def fill(n):
            step, draw_index = keys[n]
            return pool.submit(_draw, spec, draw_index, step, bufs[n % 2])

        pending = fill(0)
        for n in range(len(keys)):
            ahead = fill(n + 1) if n + 1 < len(keys) else None
            pending.result()
            yield bufs[n % 2]
            pending = ahead
    raise IndexError(f"all {len(keys)} draws were taken")


def sample_noise(
    params: ParamSet, spec: NoiseSpec, draw_index: int, step: int = 0
) -> dict[str, np.ndarray]:
    """One noise draw shaped like params, deterministic in (seed, step, draw).

    In relative mode elements with w == 0 receive exactly zero noise.
    """
    if draw_index >= spec.m:
        raise ValueError(f"draw_index {draw_index} out of range for m={spec.m}")
    z = np.empty(params.size)
    _draw(spec, draw_index, step, z)
    z *= np.abs(params.flatten()) * spec.scale if spec.mode == "relative" else spec.scale
    return unflatten_map(params, z)


def smoothed_loss_and_grad(
    model,
    params: ParamSet,
    batch,
    spec: NoiseSpec,
    step: int = 0,
    *,
    w: np.ndarray,
    out: np.ndarray | None = None,
    draws: Iterator[np.ndarray] | None = None,
    noisy: np.ndarray | None = None,
) -> tuple[list[GradMap], list[float]]:
    """Monte Carlo smoothed gradient at each of k legs: the mean over m noisy
    gradient evaluations, accumulated in ascending draw order, and the mean
    noisy loss.

    ``w`` of shape (k, P) holds the flat weight vectors of the legs; params
    only supply names and shapes. Each draw is made once and evaluated at
    every leg before the next, so each leg's result equals a call on that
    leg alone. The mean gradients are written into ``out`` (w's shape,
    allocated when absent) and returned as a list of k per-parameter maps of
    views of it, with a list of k losses; each map names every parameter, as
    ``autodiff.backward`` gives a gradient for every leaf (zero where the
    loss does not reach it).

    scale == 0 short-circuits to a single exact evaluation, which makes
    (m=1, scale=0) reduce to the plain gradient bit-exactly.

    The draws of this step come from ``draws``, a ``draw_stream``, when
    given (a caller that evaluates repeatedly streams every step's draws
    from one worker), else from a stream of this call. Each noisy point is
    formed in ``noisy`` (scratch of P values, allocated when absent), which
    the tape sees as per-parameter views, and the draw gradients are summed
    in place into ``out``.
    """
    if out is None:
        out = np.empty(w.shape)
    means = [unflatten_map(params, row) for row in out]
    if spec.scale == 0.0:
        losses = []
        for wj, mean in zip(w, means):
            loss, grads = _eval(model, unflatten_map(params, wj), batch, draw=0)
            _store(mean, grads)
            losses.append(loss)
    else:
        # a stream of its own unless given one; unasked, it starts no thread
        with closing(draw_stream(spec, [step], w.shape[1])) as own:
            stream = own if draws is None else draws
            losses = _accumulate(model, params, batch, spec, w, means, stream, noisy)
        out /= spec.m
    return means, losses


def _accumulate(model, params, batch, spec, legs, means, draws, noisy) -> list[float]:
    """Sum the m draw gradients of every leg into its map; return the mean
    noisy loss of each leg."""
    if noisy is None:
        noisy = np.empty(legs.shape[1])
    leaves = unflatten_map(params, noisy)
    losses: list[list[float]] = [[] for _ in legs]
    for i in range(spec.m):
        z = next(draws)
        for j, wj in enumerate(legs):
            # noisy = w + z*(s*|w|) (relative) or w + z*s (absolute), as
            # |w|, *= s, *= z, += w: the same IEEE operations on the same
            # operands, with z read only here
            if spec.mode == "relative":
                np.abs(wj, out=noisy)
                noisy *= spec.scale
                noisy *= z
            else:
                np.multiply(z, spec.scale, out=noisy)
            noisy += wj
            loss, grads = _eval(model, leaves, batch, draw=i)
            losses[j].append(loss)
            if i == 0:
                _store(means[j], grads)
            else:
                for name, g in grads.items():
                    means[j][name] += g
    return [math.fsum(ls) / spec.m for ls in losses]


def _store(dest: dict[str, np.ndarray], grads: GradMap) -> None:
    for name, d in dest.items():
        np.copyto(d, grads[name])


def _eval(model, leaves: dict[str, np.ndarray], batch, draw: int):
    try:
        loss, grads = ad.gradient(model.loss, leaves, batch)
    except ad.NonFiniteError as e:
        raise SmoothingError(f"non-finite gradient in draw {draw}: {e}", draw) from e
    for name, g in grads.items():
        if not ad.all_finite(g):
            raise SmoothingError(f"non-finite gradient for {name!r} in draw {draw}", draw)
    return loss, grads


def smoothed_grad(
    model, legs: Sequence[ParamSet], batch, spec: NoiseSpec, step: int = 0
) -> list[GradMap]:
    """The smoothed-gradient pruning criterion, one gradient map per leg; see
    smoothed_loss_and_grad."""
    legs = list(legs)
    return smoothed_loss_and_grad(model, legs[0], batch, spec, step, w=stack_flat(legs))[0]
