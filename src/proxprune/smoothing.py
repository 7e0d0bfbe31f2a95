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
    draw. Leaving the ``with`` block stops the worker and joins it.
    """

    def __init__(self, spec: NoiseSpec, keys, size: int):
        self._spec = spec
        self._keys = list(keys)
        self._bufs = (np.empty(size), np.empty(size))
        self._cv = threading.Condition()
        self._done = 0  # draws the worker has finished
        self._given = 0  # draws the consumer has given back
        self._error: Exception | None = None  # raised by draw number _done
        self._closed = False
        self._thread = threading.Thread(target=self._fill, name="proxprune-draws", daemon=True)

    def __enter__(self) -> "Draws":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        self._thread.join()

    def _fill(self) -> None:
        for n, (step, draw_index) in enumerate(self._keys):
            with self._cv:
                # buffer n % 2 is free once draw n - 2 has been given back
                while n - self._given >= 2 and not self._closed:
                    self._cv.wait()
                if self._closed:
                    return
            try:
                _draw(self._spec, draw_index, step, self._bufs[n % 2])
            except Exception as e:
                with self._cv:
                    self._error = e
                    self._cv.notify_all()
                return
            with self._cv:
                self._done = n + 1
                self._cv.notify_all()

    def take(self) -> np.ndarray:
        n = self._given
        if n >= len(self._keys):
            raise IndexError(f"all {len(self._keys)} draws were taken")
        with self._cv:
            while self._done <= n and self._error is None:
                self._cv.wait()
            if self._done <= n:
                raise self._error
        return self._bufs[n % 2]

    def give_back(self) -> None:
        with self._cv:
            self._given += 1
            self._cv.notify_all()


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
    w: np.ndarray | None = None,
    out: np.ndarray | None = None,
    draws: Draws | None = None,
    noisy: np.ndarray | None = None,
):
    """Monte Carlo smoothed gradient: mean over m noisy gradient evaluations,
    accumulated in ascending draw order. Also returns the mean noisy loss.

    scale == 0 short-circuits to a single exact evaluation, which makes
    (m=1, scale=0) reduce to the plain gradient bit-exactly.

    ``w`` is the flat weight vector to evaluate at (default
    ``params.flatten()``; params then only supply names and shapes). The
    mean gradient is written into the flat vector ``out`` (allocated when
    absent) and returned as per-parameter views of it; it names every
    parameter, as ``autodiff.backward`` gives a gradient for every leaf
    (zero where the loss does not reach it).

    ``w`` of shape (k, P) holds k legs: each draw is made once and evaluated
    at every leg before the next, ``out`` has w's shape, and the result is a
    list of k gradient maps and a list of k losses, each equal to a
    single-leg call at that leg.

    The draws of this step come from ``draws`` when given (a caller that
    evaluates repeatedly fills every step's draws on one worker), else from
    a worker of this call. Each noisy point is formed in ``noisy`` (scratch
    of P values, allocated when absent), which the tape sees as
    per-parameter views, and the draw gradients are summed in place into
    ``out``.
    """
    if w is None:
        w = params.flatten()
    if out is None:
        out = np.empty(w.shape)
    legs, sums = w.reshape(-1, w.shape[-1]), out.reshape(-1, w.shape[-1])
    means = [unflatten_map(params, row) for row in sums]
    if spec.scale == 0.0:
        losses = []
        for wj, mean in zip(legs, means):
            loss, grads = _eval(model, unflatten_map(params, wj), batch, draw=0)
            _store(mean, grads)
            losses.append(loss)
    else:
        if draws is None:
            with Draws(spec, [(step, i) for i in range(spec.m)], w.shape[-1]) as own:
                losses = _accumulate(model, params, batch, spec, legs, means, own, noisy)
        else:
            losses = _accumulate(model, params, batch, spec, legs, means, draws, noisy)
        sums /= spec.m
    if w.ndim == 1:
        return means[0], losses[0]
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
    model, params: ParamSet | Sequence[ParamSet], batch, spec: NoiseSpec, step: int = 0
) -> GradMap | list[GradMap]:
    """The smoothed-gradient pruning criterion; see smoothed_loss_and_grad.
    A sequence of legs gives one gradient map per leg."""
    if isinstance(params, ParamSet):
        return smoothed_loss_and_grad(model, params, batch, spec, step)[0]
    legs = list(params)
    return smoothed_loss_and_grad(model, legs[0], batch, spec, step, w=stack_flat(legs))[0]
