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
its steps) makes its first draw on the caller's thread. When that draw shows
that the loop's gradient passes outweigh the cost of a process, it forks one
helper that makes and evaluates the odd draws of every step while the parent
does the even ones; else the later draws are filled on one worker thread one
ahead of their use (``draw_stream``). Either way the parent folds every draw
into the mean in ascending draw order.
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
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradMap
from .params import ParamSet, stack_flat, unflatten_map

# A loop forks a helper when the passes of its first draw, times the draws
# still to evaluate, take at least this long. On a 2-vCPU Xeon VM a helper
# costs about 1.6 ms to fork, 2.5 ms to kill and reap, and some 3,800 page
# faults in the parent and 2,450 in the helper while both write pages they
# shared; a pass also runs about 19% slower while the other process computes.
# Forced on the benchmark's mlp-robustness loops (products up to 0.1 s) a
# helper made the job 30-45% slower, while tf-prune loops (0.29 s and up)
# gain about a quarter of a job. 0.16 s keeps a margin of 1.6x or more to
# both (README "Performance notes").
HELPER_MIN_S = 0.16


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


def draw_stream(
    spec: NoiseSpec, keys: Sequence[tuple[int, int]], size: int
) -> Iterator[np.ndarray]:
    """The draws of ``keys``, (step, draw index) pairs, in that order, as
    buffers of ``size`` values filled on one worker thread one draw ahead of
    the consumer.

    Asking for draw n sets the worker on draw n+1 in the buffer of draw n-1,
    which the consumer no longer reads, so thread timing cannot change what
    it reads. A draw's exception is raised by the ``next`` that asks for that
    draw, and asking past the last draw raises IndexError. Closing the stream
    joins the worker; a stream that is never asked starts no thread and
    imports no executor.
    """
    from concurrent.futures import ThreadPoolExecutor

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
    loop: MonteCarloLoop | None = None,
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

    The draws of this step are evaluated by ``loop``, a ``MonteCarloLoop``
    over the same model, params, batch and spec, when given (a caller that
    evaluates repeatedly runs every step through one loop), else by a loop
    of this call. Each noisy point is formed in ``noisy`` (scratch of P
    values, allocated when absent), which the tape sees as per-parameter
    views, and the draw gradients are summed in place into ``out``.
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
        # a loop of its own unless given one; unasked, it starts nothing
        with closing(MonteCarloLoop(model, params, batch, spec, [step])) as own:
            losses = (own if loop is None else loop).step(step, w, means, noisy)
        out /= spec.m
    return means, losses


class MonteCarloLoop:
    """The draws of one Monte Carlo loop, m for each step of ``steps``, and
    the processes that evaluate them at the legs.

    The first draw is made and evaluated on the caller's thread. Its passes,
    times the draws still to evaluate, then decide while no other thread
    runs: at ``HELPER_MIN_S`` or more the loop forks one helper process that
    makes and evaluates the odd draws of every step, while the parent does
    the even ones; else one ``draw_stream`` fills the later draws when two or
    more remain. The parent folds each draw into the sums in ascending draw
    order. Draws are keyed and both processes run the same code on the same
    operands, so the helper cannot change a byte. When the helper fails a
    draw or dies, the parent stops it and makes and evaluates that draw and
    every later one itself; a genuine error is then raised by the parent's
    own evaluation. Closing the loop closes the stream or kills and reaps the
    helper.
    """

    def __init__(self, model, params: ParamSet, batch, spec: NoiseSpec, steps):
        self.model, self.params, self.batch, self.spec = model, params, batch, spec
        self.keys = [(t, i) for t in steps for i in range(spec.m)]
        self.z: np.ndarray | None = None  # the buffer of draws made in place
        self.stream: Iterator[np.ndarray] | None = None
        self.helper: _Helper | None = None

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()
        if self.helper is not None:
            self.helper.close()
            self.helper = None

    def step(self, t: int, legs: np.ndarray, means, noisy: np.ndarray | None) -> list[float]:
        """Sum the m draw gradients of step t at every leg into its map;
        return the mean noisy loss of each leg."""
        if noisy is None:
            noisy = np.empty(legs.shape[1])
        leaves = unflatten_map(self.params, noisy)
        losses: list[list[float]] = [[] for _ in legs]
        if self.helper is not None:
            self.helper.start_step(t, legs)
        for i in range(self.spec.m):
            if self.helper is not None and i % 2:
                results = self.helper.take()
                if results is not None:
                    _fold(i, results, means, losses)
                    if i + 2 < self.spec.m:
                        self.helper.request(t, i + 2)  # its slot is free again
                    continue
                self.helper.close()  # failed or died: the parent makes the rest
                self.helper = None
            z = next(self.stream) if self.stream is not None else self._draw_inline(t, i)
            start = perf_counter()
            _fold(i, self._passes(i, z, legs, leaves, noisy), means, losses)
            if (t, i) == self.keys[0]:
                del z  # held by self.z alone, which a stream frees
                self._decide(t, legs, perf_counter() - start)
        return [math.fsum(ls) / self.spec.m for ls in losses]

    def _draw_inline(self, t: int, i: int) -> np.ndarray:
        """Make draw (t, i) on this thread."""
        if self.z is None:
            self.z = np.empty(self.params.size)
        _draw(self.spec, i, t, self.z)
        return self.z

    def _passes(self, i, z, legs, leaves, noisy):
        """(loss, gradient map) of draw i, noise z, at every leg in turn."""
        for wj in legs:
            _noisy_point(self.spec, wj, z, noisy)
            yield _eval(self.model, leaves, self.batch, draw=i)

    def _decide(self, t: int, legs: np.ndarray, seconds: float) -> None:
        """After the loop's first draw, which took ``seconds`` to evaluate:
        fork the helper, or stream the draws still to come."""
        rest = len(self.keys) - 1
        if self.spec.m >= 2 and seconds * rest >= HELPER_MIN_S and _spare_cpu():
            self.helper = _Helper.fork(self, legs.shape[0])
        if self.helper is not None:
            self.helper.start_step(t, legs)
        elif rest >= 2:  # a stream of one draw would not be ahead of its use
            self.z = None  # freed before the stream allocates its two buffers
            self.stream = draw_stream(self.spec, self.keys[1:], self.params.size)


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


class _Helper:
    """A forked process that evaluates the odd draws of a ``MonteCarloLoop``.

    Shared anonymous memory holds the legs' current points, which the parent
    writes at the start of each step, and one slot of k gradients and k
    losses. The parent asks for one draw at a time, as (step, i) on one
    pipe, and for the next only after it has folded the last; the helper
    makes the keyed draw, evaluates it at every leg into the slot and
    answers one byte on the other pipe. Any failure ends the helper, which
    the parent reads as EOF. It is forked, not spawned, so that it inherits
    the model and the batch instead of rebuilding or unpickling them; the
    loop forks only while a single thread runs.
    """

    def __init__(
        self, pid: int, requests: int, replies: int, shared: np.ndarray, params: ParamSet, k: int
    ):
        self.pid, self.requests, self.replies = pid, requests, replies
        size = params.size
        self.points = shared[: k * size].reshape(k, size)
        rows = shared[k * size : 2 * k * size].reshape(k, size)
        self.grads = [unflatten_map(params, row) for row in rows]
        self.losses = shared[2 * k * size :]

    @classmethod
    def fork(cls, loop: MonteCarloLoop, k: int) -> _Helper | None:
        """Start a helper for ``loop``'s k legs; None when the system refuses
        (no memory, descriptors or processes left)."""
        fds: list[int] = []
        try:
            shared = np.frombuffer(mmap.mmap(-1, 8 * (2 * k * loop.params.size + k)))
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
                # objects inherited from the parent are never collected here,
                # so no finalizer of theirs runs twice
                gc.freeze()
                os.close(requests_w)
                os.close(replies_r)
                cls(0, requests_r, replies_w, shared, loop.params, k).serve(loop)
            finally:
                os._exit(0)
        os.close(requests_r)
        os.close(replies_w)
        return cls(pid, requests_w, replies_r, shared, loop.params, k)

    def serve(self, loop: MonteCarloLoop) -> None:
        """The helper's life: evaluate each requested draw until EOF."""
        noisy = np.empty(loop.params.size)
        leaves = unflatten_map(loop.params, noisy)
        while request := os.read(self.requests, 16):
            t, i = struct.unpack("2q", request)
            z = loop._draw_inline(t, i)
            for j, (loss, grads) in enumerate(loop._passes(i, z, self.points, leaves, noisy)):
                self.losses[j] = loss
                _store(self.grads[j], grads)
            os.write(self.replies, b"\1")

    def start_step(self, t: int, legs: np.ndarray) -> None:
        np.copyto(self.points, legs)
        self.request(t, 1)

    def request(self, t: int, i: int) -> None:
        try:
            os.write(self.requests, struct.pack("2q", t, i))
        except OSError:  # a dead helper: the next take reads EOF
            pass

    def take(self) -> list[tuple[float, GradMap]] | None:
        """(loss, gradient map) at every leg of the draw last asked for, or
        None when the helper failed it or died."""
        try:
            done = os.read(self.replies, 1) == b"\1"
        except OSError:
            done = False
        if not done:
            return None
        return [(float(loss), grads) for loss, grads in zip(self.losses, self.grads)]

    def close(self) -> None:
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


def smoothed_grad(
    model, legs: Sequence[ParamSet], batch, spec: NoiseSpec, step: int = 0
) -> list[GradMap]:
    """The smoothed-gradient pruning criterion, one gradient map per leg; see
    smoothed_loss_and_grad."""
    legs = list(legs)
    return smoothed_loss_and_grad(model, legs[0], batch, spec, step, w=stack_flat(legs))[0]
