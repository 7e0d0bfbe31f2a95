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

Every smoothed gradient is one step of a ``MonteCarloLoop``: the
``smooth`` criterion steps a one-step loop, and a proximal loop of T steps
steps one loop of T steps. The loop alone keys its draws: its draw n is
(seed, n // m, n % m). Each draw is evaluated at every leg of a step: k
weight vectors that share names and shapes, such as the two encodings of a
robustness experiment. A loop makes every one of its draws, in draw order,
on the thread that evaluates it. A loop of two draws or more per step asks
``ForkedChild.fork``, before its first draw, for one helper that makes and
evaluates the odd draws of every step while the parent makes and evaluates
the even ones; the fork lets a process tree run one helper at a time.
Either way the parent folds every draw into the mean in ascending draw
order.
"""
from __future__ import annotations

import gc
import math
import mmap
import os
import signal
import struct
import threading
from contextlib import closing
from dataclasses import dataclass
from functools import partial
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
    np.random.default_rng((spec.seed, step, draw_index)).standard_normal(out=out)


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
    loop: MonteCarloLoop, w: np.ndarray, out: np.ndarray
) -> tuple[list[GradMap], list[float]]:
    """Monte Carlo smoothed gradient at each of k legs, from the next step of
    ``loop``: the mean over its m noisy gradient evaluations, accumulated in
    ascending draw order, and the mean noisy loss.

    ``w`` of shape (k, P) holds the flat weight vectors of the legs; the
    loop's params only supply names and shapes. Each draw is made once and
    evaluated at every leg before the next, so each leg's result equals a
    call on that leg alone. The draw gradients are summed in place into
    ``out`` (w's shape), and the means are returned as a list of k
    per-parameter maps of views of it, with a list of k losses; each map
    names every parameter, as ``autodiff.backward`` gives a gradient for
    every leaf (zero where the loss does not reach it).

    scale == 0 short-circuits to a single exact evaluation per leg that
    makes no draw and takes no step of the loop, so that it reduces to the
    plain gradient bit-exactly at any m.
    """
    means = [unflatten_map(loop.params, row) for row in out]
    if loop.spec.scale == 0.0:
        losses = []
        for wj, mean in zip(w, means):
            loss, grads = _eval(loop.model, unflatten_map(loop.params, wj), loop.batch, draw=0)
            _store(mean, grads)
            losses.append(loss)
    else:
        losses = loop.step(w, means)
        out /= loop.spec.m
    return means, losses


class MonteCarloLoop:
    """The draws of one Monte Carlo loop, m for each of its ``steps``, and
    the processes that evaluate them at the legs.

    Draw n of the loop is keyed (seed, n // m, n % m): draw ``n % m`` of
    step ``n // m``. ``_make`` is the one place a draw is keyed and made,
    into the loop's one draw buffer, right before its passes. The loop owns
    the noisy point its passes are evaluated at. At its first step, before
    any draw is made, a loop of two draws or more per step asks
    ``ForkedChild.fork`` for one helper process that makes and evaluates the
    odd draws of every step, while the parent makes the even ones; when the
    fork is refused, the parent makes every draw. The parent folds each draw
    into the sums in ascending draw order.

    The helper's slot (``ForkedChild``) holds the legs' current points,
    which the parent writes at the start of each step, then k gradients and
    k losses. The parent asks for one draw at a time, by its index n, and
    for the next only after it has folded the last. The helper (``_serve``)
    makes draw n with ``_make`` and evaluates it at every leg at its
    inherited copy of the noisy point, into the slot. Draws are keyed and
    both processes run the same code on the same operands, so the helper
    cannot change a byte.
    When the helper fails a draw or dies, which the parent reads as EOF, the
    parent stops it and makes and evaluates that draw and every later one
    itself; a genuine error is then raised by the parent's own evaluation.
    Closing the loop kills and reaps the helper.
    """

    def __init__(self, model, params: ParamSet, batch, spec: NoiseSpec, steps: int):
        self.model, self.params, self.batch, self.spec = model, params, batch, spec
        self.steps = steps
        self.taken = 0  # draws the steps so far have used
        self.z = np.empty(params.size)
        self.noisy = np.empty(params.size)
        self.leaves = unflatten_map(params, self.noisy)  # what the tape sees
        self.helper: ForkedChild | None = None

    def close(self) -> None:
        if self.helper is not None:
            self.helper.close()
            self.helper = None

    def step(self, legs: np.ndarray, means) -> list[float]:
        """Sum the m draw gradients of the loop's next step at every leg into
        its map; return the mean noisy loss of each leg."""
        if self.taken == self.steps * self.spec.m:
            raise IndexError(f"all {self.steps} steps were taken")
        k = len(legs)
        if self.taken == 0 and self.spec.m > 1:  # a step has odd draws
            self.helper = ForkedChild.fork(partial(self._serve, k), (2 * legs.shape[1] + 1) * k)
            if self.helper is not None:
                self.shared = self._shared(self.helper, k)
        first = self.taken
        self.taken += self.spec.m
        losses: list[list[float]] = [[] for _ in legs]
        if self.helper is not None:
            points, grads, slot_losses = self.shared
            np.copyto(points, legs)
            self.helper.ask(first + 1)
        for i in range(self.spec.m):
            n = first + i
            if self.helper is not None and i % 2:
                if self.helper.answered():
                    _fold(i, zip(slot_losses, grads), means, losses)
                    if i + 2 < self.spec.m:
                        self.helper.ask(n + 2)  # its slot is free again
                    continue
                self.close()  # failed or died: the parent makes the rest
            z = self._make(n)
            _fold(i, self._passes(i, z, legs), means, losses)
        return [math.fsum(ls) / self.spec.m for ls in losses]

    def _make(self, n: int) -> np.ndarray:
        """Make draw n of the loop into its draw buffer."""
        t, i = divmod(n, self.spec.m)
        _draw(self.spec, i, t, self.z)
        return self.z

    def _passes(self, i, z, legs):
        """(loss, gradient map) of draw i, noise z, at every leg in turn."""
        for wj in legs:
            _noisy_point(self.spec, wj, z, self.noisy)
            yield _eval(self.model, self.leaves, self.batch, draw=i)

    def _shared(self, child: ForkedChild, k: int):
        """The slot's parts: the k legs' points, a gradient map per leg and
        the k losses."""
        points, rows = child.slot[:-k].reshape(2, k, -1)
        return points, [unflatten_map(self.params, row) for row in rows], child.slot[-k:]

    def _serve(self, k: int, child: ForkedChild) -> None:
        """The helper's life: evaluate each requested draw until EOF."""
        points, grads, losses = self._shared(child, k)
        for n in child.requested():
            z = self._make(n)
            for j, (loss, g) in enumerate(self._passes(n % self.spec.m, z, points)):
                losses[j] = loss
                _store(grads[j], g)


def _spare_cpu() -> bool:
    """Whether a helper would have a CPU of its own: the host can fork, two
    CPUs or more are usable, and this process runs one thread. Any other
    thread, a BLAS pool above all, already keeps the other CPUs busy (a
    pool's workers spin between calls), and a fork copies only the thread
    that calls it. Threads are counted where the system lists them
    (/proc/self/task), which includes those Python did not start, else
    Python's own."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    return cpus >= 2 and threads == 1


class ForkedChild:
    """A forked child process, the parent's ends of two pipes to it
    (``requests`` the child reads and ``replies`` it writes), and ``slot``,
    shared anonymous memory mapped right before the fork.

    ``fork`` is the one gate of every helper process: a process tree runs at
    most one child at a time, and only on a CPU of its own. ``live`` counts
    the children forked and not yet closed; a child inherits its parent's
    count, so it forks none of its own. The child runs ``serve`` on its own
    ends and then exits at once with ``os._exit``, whatever ``serve``
    raised, so that it never returns into the caller's stack; the parent
    reads its death as EOF on ``replies``. Objects inherited from the parent
    are never collected in the child, so no finalizer of theirs runs twice.
    Closing kills and reaps the child.

    A helper works piece by piece: the parent asks for piece n (``ask``),
    the child answers each in turn into the slot (``requested``), and the
    parent reads EOF, a failed piece or a dead child, as no answer.
    """

    live = 0

    def __init__(self, pid: int, requests: int, replies: int, slot: np.ndarray | None):
        self.pid, self.requests, self.replies, self.slot = pid, requests, replies, slot

    @classmethod
    def may_fork(cls) -> bool:
        """Whether ``fork`` will try: no child of this process tree runs and
        the host has a CPU to spare (``_spare_cpu``)."""
        return not cls.live and _spare_cpu()

    @classmethod
    def fork(cls, serve, size: int = 0) -> ForkedChild | None:
        """Fork a child that runs ``serve(child)`` on a ForkedChild of its own
        pipe ends and a shared slot of ``size`` float64 values; None unless
        ``may_fork``, or when the system refuses (no memory, fds or pids)."""
        if not cls.may_fork():
            return None
        try:
            slot = np.frombuffer(mmap.mmap(-1, 8 * size)) if size else None
        except OSError:
            return None
        cls.live += 1  # before the fork, so that the child inherits it
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            cls.live -= 1
            for fd in fds:
                os.close(fd)
            return None
        requests_r, requests_w, replies_r, replies_w = fds
        if pid == 0:
            try:
                gc.freeze()
                os.close(requests_w)
                os.close(replies_r)
                serve(cls(0, requests_r, replies_w, slot))
            finally:
                os._exit(0)
        os.close(requests_r)
        os.close(replies_w)
        return cls(pid, requests_w, replies_r, slot)

    def at(self, offset: int, shape) -> np.ndarray:
        """The slot's values from ``offset`` on as an array of ``shape``."""
        return self.slot[offset : offset + math.prod(shape)].reshape(shape)

    def ask(self, n: int) -> None:
        try:
            os.write(self.requests, struct.pack("q", n))
        except OSError:  # a dead child: the answer reads EOF
            pass

    def answered(self) -> bool:
        """Whether the child did the piece last asked for."""
        try:
            return os.read(self.replies, 1) == b"\1"
        except OSError:
            return False

    def requested(self):
        """In the child: each piece asked for until EOF, answered once the loop
        body for it has run; a body that raises ends the child unanswered."""
        while request := os.read(self.requests, 8):
            yield struct.unpack("q", request)[0]
            os.write(self.replies, b"\1")

    def close(self) -> None:
        ForkedChild.live -= 1
        os.close(self.requests)
        os.close(self.replies)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _noisy_point(spec: NoiseSpec, wj: np.ndarray, z: np.ndarray, noisy: np.ndarray) -> None:
    # noisy = w + z*(s*|w|) (relative) or w + z*s (absolute), as |w|, *= s,
    # *= z, += w: the same IEEE operations on the same operands wherever a
    # draw is evaluated
    if spec.mode == "relative":
        np.abs(wj, out=noisy)
        noisy *= spec.scale
        noisy *= z
    else:
        np.multiply(z, spec.scale, out=noisy)
    noisy += wj


def _fold(i: int, results, means, losses) -> None:
    """Add draw i's (loss, gradient map) of each leg to that leg's sums."""
    for j, (loss, grads) in enumerate(results):
        losses[j].append(loss)
        if i == 0:
            _store(means[j], grads)
        else:
            for name, g in grads.items():
                means[j][name] += g


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


def smoothed_grad(model, legs: Sequence[ParamSet], batch, spec: NoiseSpec) -> list[GradMap]:
    """The smoothed-gradient pruning criterion, one gradient map per leg: the
    one step of a one-step loop; see smoothed_loss_and_grad."""
    legs = list(legs)
    w = stack_flat(legs)
    with closing(MonteCarloLoop(model, legs[0], batch, spec, 1)) as loop:
        return smoothed_loss_and_grad(loop, w, np.empty(w.shape))[0]
