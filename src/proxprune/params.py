"""Named parameter sets and the structure/group tables that drive pruning.

Flattening order is part of the public contract: parameters concatenate in
ParamSet order, each raveled row-major. Group layouts, checkpoints and the
proximal loop all rely on this order being bit-stable across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np


class ParamSet:
    """Ordered mapping name -> float64 array; the model weight vector w."""

    def __init__(self, items: Iterable[tuple[str, np.ndarray]]):
        self._arrays: dict[str, np.ndarray] = {}  # in insertion order
        for name, arr in items:
            if name in self._arrays:
                raise ValueError(f"duplicate parameter name {name!r}")
            self._arrays[name] = np.ascontiguousarray(arr, dtype=np.float64)

    @property
    def names(self) -> list[str]:
        return list(self._arrays)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._arrays.items())

    def __len__(self) -> int:
        return len(self._arrays)

    def items(self):
        return iter(self)

    @property
    def size(self) -> int:
        return sum(a.size for a in self._arrays.values())

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {n: a.shape for n, a in self}

    def copy(self) -> "ParamSet":
        return ParamSet((n, a.copy()) for n, a in self)

    def flatten(self) -> np.ndarray:
        if not self._arrays:
            return np.zeros(0)
        return np.concatenate([a.reshape(-1) for a in self._arrays.values()])

    def unflatten(self, vec: np.ndarray) -> "ParamSet":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.size,):
            raise ValueError(f"expected flat vector of length {self.size}, got {vec.shape}")
        out = []
        pos = 0
        for n, a in self:
            out.append((n, vec[pos : pos + a.size].reshape(a.shape).copy()))
            pos += a.size
        return ParamSet(out)

    def offsets(self) -> dict[str, int]:
        """Start offset of each parameter inside the flattened vector."""
        off, pos = {}, 0
        for n, a in self:
            off[n] = pos
            pos += a.size
        return off

    def add(self, delta: Mapping[str, np.ndarray], scale: float = 1.0) -> "ParamSet":
        """Return self + scale * delta; delta must name every parameter."""
        return ParamSet((n, a + scale * np.asarray(delta[n])) for n, a in self)


def flatten_map(ps: ParamSet, mapping: Mapping[str, np.ndarray]) -> np.ndarray:
    """Flatten a ParamSet-shaped mapping in ps order; the mapping must name
    every parameter of ps, each with its shape."""
    chunks = []
    for n, a in ps:
        m = np.asarray(mapping[n], dtype=np.float64)
        if m.shape != a.shape:
            raise ValueError(f"shape mismatch for {n!r}: {m.shape} vs {a.shape}")
        chunks.append(m.reshape(-1))
    return np.concatenate(chunks) if chunks else np.zeros(0)


def stack_flat(legs: Sequence[ParamSet]) -> np.ndarray:
    """The flat weights of k legs as the rows of a (k, P) array; every leg
    must have the first one's names and shapes, in the same order."""
    if not legs:
        raise ValueError("need at least one leg")
    layout = list(legs[0].shapes().items())
    out = np.empty((len(legs), legs[0].size))
    for row, ps in zip(out, legs):
        if list(ps.shapes().items()) != layout:
            raise ValueError("legs must share parameter names, order and shapes")
        row[:] = ps.flatten()
    return out


def unflatten_map(ps: ParamSet, vec: np.ndarray) -> dict[str, np.ndarray]:
    """Per-parameter views (not copies) of a flat vector, in ps order."""
    vec = np.asarray(vec)
    out = {}
    pos = 0
    for n, a in ps:
        out[n] = vec[pos : pos + a.size].reshape(a.shape)
        pos += a.size
    return out


@dataclass(frozen=True)
class Slice:
    """A contiguous index range along one axis of one parameter (full extent
    on every other axis)."""

    param: str
    axis: int
    start: int
    stop: int

    def indexer(self, ndim: int):
        ix = [slice(None)] * ndim
        ix[self.axis] = slice(self.start, self.stop)
        return tuple(ix)


@dataclass(frozen=True)
class PruneStructure:
    """Smallest removable unit: coupled slices that leave the model well-formed
    when deleted together (a hidden channel or one attention head)."""

    id: int
    slices: tuple[Slice, ...]
    block: str  # which layer/block the structure lives in, for survival checks
    cls: str  # "channel" | "head"


@dataclass(frozen=True)
class PruneGroup:
    """Structures that must be removed together; ``cls`` pools groups of the
    same kind when per-class pruning ratios are applied."""

    id: int
    structures: tuple[int, ...]
    cls: str  # "channel" | "head"


def structure_flat_indices(
    ps: ParamSet, structure: PruneStructure, offsets: Mapping[str, int] | None = None
) -> np.ndarray:
    """Flat-vector indices (ParamSet order) covered by a structure's slices.
    A caller that walks many structures passes ``offsets``, ``ps.offsets()``
    computed once."""
    if offsets is None:
        offsets = ps.offsets()
    parts = []
    for s in structure.slices:
        shape = ps[s.param].shape
        # row-major: index = (o * extent + j) * inner + i, so for each o the
        # slice covers one run of (stop - start) * inner indices
        extent, inner = shape[s.axis], math.prod(shape[s.axis + 1 :])
        step = extent * inner
        first = offsets[s.param] + s.start * inner
        starts = np.arange(first, first + math.prod(shape[: s.axis]) * step, step, dtype=np.int64)
        run = np.arange((s.stop - s.start) * inner, dtype=np.int64)
        parts.append((starts[:, None] + run).reshape(-1))
    return np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)
