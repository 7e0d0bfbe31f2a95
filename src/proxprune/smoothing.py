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

Draws are filled on one worker thread ahead of their use (``Draws``), and
each draw is evaluated at every leg of a call: k weight vectors that share
names and shapes, such as the two encodings of a robustness experiment.
"""
from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass
from typing import Sequence

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
    if draw_index >= spec.m:
        raise ValueError(f"draw_index {draw_index} out of range for m={spec.m}")
    np.random.default_rng((spec.seed, step, draw_index)).standard_normal(out=out)


class Draws:
    """Keyed draws of P values filled on one worker thread, up to two ahead.

    ``keys`` lists the (step, draw index) of each draw in the order the
    consumer takes them. ``take()`` waits until the worker has finished the
    next draw and returns its buffer; ``give_back()`` returns the buffer once
    the consumer no longer reads it. The worker refills a buffer only after
    it is given back, so thread timing cannot change what the consumer reads.
    An exception raised by a draw is raised again by the ``take()`` of that
    draw and by every later one. Leaving the ``with`` block stops the worker
    and joins it.
    """

    def __init__(self, spec: NoiseSpec, keys, size: int):
        self._spec = spec
        self._keys = list(keys)
        self._taken = 0
        self._held: np.ndarray | None = None  # the buffer the consumer reads
        self._free: queue.SimpleQueue = queue.SimpleQueue()  # buffers to fill; None stops
        self._filled: queue.SimpleQueue = queue.SimpleQueue()  # in key order, or an exception
        self._free.put(np.empty(size))
        self._free.put(np.empty(size))
        self._thread = threading.Thread(target=self._fill, name="proxprune-draws", daemon=True)

    def __enter__(self) -> "Draws":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._free.put(None)
        self._thread.join()

    def _fill(self) -> None:
        for step, draw_index in self._keys:
            buf = self._free.get()
            if buf is None:
                return
            try:
                _draw(self._spec, draw_index, step, buf)
            except Exception as e:
                self._filled.put(e)
                return
            self._filled.put(buf)

    def take(self) -> np.ndarray:
        if self._taken >= len(self._keys):
            raise IndexError(f"all {len(self._keys)} draws were taken")
        item = self._filled.get()
        if isinstance(item, Exception):
            self._filled.put(item)  # for every later take
            raise item
        self._taken += 1
        self._held = item
        return item

    def give_back(self) -> None:
        self._free.put(self._held)


def sample_noise(
    params: ParamSet, spec: NoiseSpec, draw_index: int, step: int = 0
) -> dict[str, np.ndarray]:
    """One noise draw shaped like params, deterministic in (seed, step, draw).

    In relative mode elements with w == 0 receive exactly zero noise.
    """
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
    draws: Draws | None = None,
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

    The draws of this step come from ``draws`` when given (a caller that
    evaluates repeatedly fills every step's draws on one worker), else from
    a worker of this call. Each noisy point is formed in ``noisy`` (scratch
    of P values, allocated when absent), which the tape sees as
    per-parameter views, and the draw gradients are summed in place into
    ``out``.
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
        if draws is None:
            with Draws(spec, [(step, i) for i in range(spec.m)], w.shape[1]) as own:
                losses = _accumulate(model, params, batch, spec, w, means, own, noisy)
        else:
            losses = _accumulate(model, params, batch, spec, w, means, draws, noisy)
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
        z = draws.take()
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
            if j == len(legs) - 1:
                draws.give_back()
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
        if not np.all(np.isfinite(g)):
            raise SmoothingError(f"non-finite gradient for {name!r} in draw {draw}", draw)
    return loss, grads


def smoothed_grad(
    model, legs: Sequence[ParamSet], batch, spec: NoiseSpec, step: int = 0
) -> list[GradMap]:
    """The smoothed-gradient pruning criterion, one gradient map per leg; see
    smoothed_loss_and_grad."""
    legs = list(legs)
    return smoothed_loss_and_grad(model, legs[0], batch, spec, step, w=stack_flat(legs))[0]
