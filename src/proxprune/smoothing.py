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

Each draw is evaluated at every leg of a call: k weight vectors that share
names and shapes, such as the two encodings of a robustness experiment. A
``MonteCarloLoop`` (one smoothing call, or one proximal loop across all of
its steps) makes every one of its draws, walking its keys in order, on the
thread that evaluates it. When its first draw shows that the loop's
gradient passes outweigh the cost of a process, it forks one helper that
makes and evaluates the odd draws of every step while the parent makes and
evaluates the even ones. Either way the parent folds every draw into the
mean in ascending draw order.
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
from time import perf_counter
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradMap
from .params import ParamSet, stack_flat, unflatten_map

# A loop forks a helper when the passes of its first draw, times the draws
# still to evaluate, take at least this long. On a 2-vCPU Xeon VM a helper
# costs about 1.6 ms to fork, 2.5 ms to kill and reap, and some 3,800 page
# faults in the parent and 2,450 in the helper while both write pages they
# shared; a pass also runs about 19% slower while the other process computes.
# Forced on the benchmark's mlp-robustness loops (99% of products below
# 0.053 s) a helper made the job 30-45% slower, while tf-prune loops (0.150 s
# and up) gain about a quarter of a job. 0.09 s keeps a margin of 1.6x or
# more to both (README "Performance notes").
HELPER_MIN_S = 0.09


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
    model,
    params: ParamSet,
    batch,
    spec: NoiseSpec,
    step: int = 0,
    *,
    w: np.ndarray,
    out: np.ndarray | None = None,
    loop: MonteCarloLoop | None = None,
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

    The draws are evaluated by ``loop``, a ``MonteCarloLoop`` over the same
    model, params, batch and spec, when given: a caller that evaluates
    repeatedly runs every step through one loop, which walks its own keys
    and ignores ``step``. Without one the draws of ``step`` are evaluated by
    a loop of this call. The draw gradients are summed in place into ``out``.
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
    elif loop is not None:
        losses = loop.step(w, means)
        out /= spec.m
    else:
        with closing(MonteCarloLoop(model, params, batch, spec, [step])) as own:
            losses = own.step(w, means)
        out /= spec.m
    return means, losses


class MonteCarloLoop:
    """The draws of one Monte Carlo loop, m for each step of ``steps``, and
    the processes that evaluate them at the legs.

    Draw n of the loop is key n of ``keys``, and ``_make`` is the one place
    it is made, into the loop's one draw buffer, right before its passes.
    The loop owns the noisy point its passes are evaluated at. The first
    draw is made and evaluated on the caller's thread. Its passes, times the
    draws still to evaluate, then decide: at ``HELPER_MIN_S`` or more the
    loop forks one helper process that makes and evaluates the odd draws of
    every step, while the parent makes the even ones; else the parent makes
    every draw. The parent folds each draw into the sums in ascending draw
    order. Draws are keyed and both processes run the same code on the same
    operands, so the helper cannot change a byte. When the helper fails a
    draw or dies, the parent stops it and makes and evaluates that draw and
    every later one itself; a genuine error is then raised by the parent's
    own evaluation. Closing the loop kills and reaps the helper.
    """

    def __init__(self, model, params: ParamSet, batch, spec: NoiseSpec, steps):
        self.model, self.params, self.batch, self.spec = model, params, batch, spec
        self.keys = [(t, i) for t in steps for i in range(spec.m)]
        self.taken = 0  # draws the steps so far have used
        self.z = np.empty(params.size)
        self.noisy = np.empty(params.size)
        self.leaves = unflatten_map(params, self.noisy)  # what the tape sees
        self.helper: _Helper | None = None

    def close(self) -> None:
        if self.helper is not None:
            self.helper.close()
            self.helper = None

    def step(self, legs: np.ndarray, means) -> list[float]:
        """Sum the m draw gradients of the loop's next step at every leg into
        its map; return the mean noisy loss of each leg."""
        if self.taken == len(self.keys):
            raise IndexError(f"all {len(self.keys) // self.spec.m} steps were taken")
        first = self.taken
        self.taken += self.spec.m
        losses: list[list[float]] = [[] for _ in legs]
        if self.helper is not None:
            self.helper.start_step(first, legs)
        for i in range(self.spec.m):
            n = first + i
            if self.helper is not None and i % 2:
                results = self.helper.take()
                if results is not None:
                    _fold(i, results, means, losses)
                    if i + 2 < self.spec.m:
                        self.helper.request(n + 2)  # its slot is free again
                    continue
                self.helper.close()  # failed or died: the parent makes the rest
                self.helper = None
            z = self._make(n)
            start = perf_counter()
            _fold(i, self._passes(i, z, legs), means, losses)
            if n == 0:
                self._decide(legs, perf_counter() - start)
        return [math.fsum(ls) / self.spec.m for ls in losses]

    def _make(self, n: int) -> np.ndarray:
        """Make draw n of the loop into its draw buffer."""
        t, i = self.keys[n]
        _draw(self.spec, i, t, self.z)
        return self.z

    def _passes(self, i, z, legs):
        """(loss, gradient map) of draw i, noise z, at every leg in turn."""
        for wj in legs:
            _noisy_point(self.spec, wj, z, self.noisy)
            yield _eval(self.model, self.leaves, self.batch, draw=i)

    def _decide(self, legs: np.ndarray, seconds: float) -> None:
        """After the loop's first draw, which took ``seconds`` to evaluate:
        fork the helper when the draws still to come outweigh its cost."""
        rest = len(self.keys) - 1
        if self.spec.m >= 2 and seconds * rest >= HELPER_MIN_S and _spare_cpu():
            self.helper = _Helper.fork(self, legs.shape[0])
            if self.helper is not None:
                self.helper.start_step(0, legs)


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
    """A forked child process and the parent's ends of two pipes to it:
    ``requests`` the child reads and ``replies`` it writes.

    The child runs ``serve`` on its own ends and then exits at once with
    ``os._exit``, whatever ``serve`` raised, so that it never returns into
    the caller's stack; the parent reads its death as EOF on ``replies``.
    Objects inherited from the parent are never collected in the child, so
    no finalizer of theirs runs twice. Closing kills and reaps the child.
    """

    def __init__(self, pid: int, requests: int, replies: int):
        self.pid, self.requests, self.replies = pid, requests, replies

    @classmethod
    def fork(cls, serve) -> ForkedChild | None:
        """Fork a child that runs ``serve(child)`` on a ForkedChild of its own
        pipe ends; None when the system refuses (no memory, descriptors or
        processes left)."""
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        requests_r, requests_w, replies_r, replies_w = fds
        if pid == 0:
            try:
                gc.freeze()
                os.close(requests_w)
                os.close(replies_r)
                serve(cls(0, requests_r, replies_w))
            finally:
                os._exit(0)
        os.close(requests_r)
        os.close(replies_w)
        return cls(pid, requests_w, replies_r)

    def close(self) -> None:
        os.close(self.requests)
        os.close(self.replies)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


class _Helper:
    """A forked process that evaluates the odd draws of a ``MonteCarloLoop``.

    Shared anonymous memory holds the legs' current points, which the parent
    writes at the start of each step, and one slot of k gradients and k
    losses. The parent asks for one draw at a time, as the loop's draw index
    n on the child's request pipe, and for the next only after it has folded
    the last; the helper makes draw n with the loop's ``_make``, evaluates it
    at every leg at its inherited copy of the loop's noisy point, into the
    slot, and answers one byte on the reply pipe. Any failure ends the
    helper, which the parent reads as EOF. It is forked, not spawned, so
    that it inherits the model and the batch instead of rebuilding or
    unpickling them; the loop forks only while a single thread runs.
    """

    def __init__(self, child: ForkedChild, shared: np.ndarray, params: ParamSet, k: int):
        self.child = child
        size = params.size
        self.points = shared[: k * size].reshape(k, size)
        rows = shared[k * size : 2 * k * size].reshape(k, size)
        self.grads = [unflatten_map(params, row) for row in rows]
        self.losses = shared[2 * k * size :]

    @classmethod
    def fork(cls, loop: MonteCarloLoop, k: int) -> _Helper | None:
        """Start a helper for ``loop``'s k legs; None when the system refuses."""
        try:
            shared = np.frombuffer(mmap.mmap(-1, 8 * (2 * k * loop.params.size + k)))
        except OSError:
            return None
        child = ForkedChild.fork(lambda c: cls(c, shared, loop.params, k).serve(loop))
        return None if child is None else cls(child, shared, loop.params, k)

    def serve(self, loop: MonteCarloLoop) -> None:
        """The helper's life: evaluate each requested draw until EOF."""
        while request := os.read(self.child.requests, 8):
            (n,) = struct.unpack("q", request)
            z = loop._make(n)
            for j, (loss, grads) in enumerate(loop._passes(loop.keys[n][1], z, self.points)):
                self.losses[j] = loss
                _store(self.grads[j], grads)
            os.write(self.child.replies, b"\1")

    def start_step(self, first: int, legs: np.ndarray) -> None:
        """Take the legs of the step whose first draw is ``first``; ask for
        the one after it."""
        np.copyto(self.points, legs)
        self.request(first + 1)

    def request(self, n: int) -> None:
        try:
            os.write(self.child.requests, struct.pack("q", n))
        except OSError:  # a dead helper: the next take reads EOF
            pass

    def take(self) -> list[tuple[float, GradMap]] | None:
        """(loss, gradient map) at every leg of the draw last asked for, or
        None when the helper failed it or died."""
        try:
            done = os.read(self.child.replies, 1) == b"\1"
        except OSError:
            done = False
        if not done:
            return None
        return [(float(loss), grads) for loss, grads in zip(self.losses, self.grads)]

    def close(self) -> None:
        self.child.close()


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


def smoothed_grad(
    model, legs: Sequence[ParamSet], batch, spec: NoiseSpec, step: int = 0
) -> list[GradMap]:
    """The smoothed-gradient pruning criterion, one gradient map per leg; see
    smoothed_loss_and_grad."""
    legs = list(legs)
    return smoothed_loss_and_grad(model, legs[0], batch, spec, step, w=stack_flat(legs))[0]
