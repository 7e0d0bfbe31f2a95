"""Binary checkpoint format.

Layout: 8-byte magic ``MPRUNE01``, little-endian uint64 header length, a
UTF-8 JSON header (format version, architecture descriptor, parameter
names/shapes, group table, free-form meta), then the raw little-endian
float64 parameter data concatenated in header order. Round-trips are
bit-exact; the optional ``meta["created"]`` timestamp is the only field a
rewriting command may touch.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .params import (
    ParamSet,
    PruneGroup,
    PruneStructure,
    Slice,
    validate_groups,
    validate_structures,
)
from .zoo import model_from_arch

MAGIC = b"MPRUNE01"
FORMAT_VERSION = 1


class CheckpointError(Exception):
    pass


def _group_table(structures, groups) -> dict:
    return {
        "structures": [
            [st.id, st.block, [[s.param, s.axis, s.start, s.stop] for s in st.slices]]
            for st in structures
        ],
        "groups": [[g.id, g.cls, list(g.structures)] for g in groups],
    }


def _parse_group_table(table: dict):
    structures = [
        PruneStructure(
            id=int(sid),
            slices=tuple(Slice(p, int(ax), int(lo), int(hi)) for p, ax, lo, hi in slices),
            block=block,
        )
        for sid, block, slices in table.get("structures", [])
    ]
    groups = [
        PruneGroup(id=int(gid), structures=tuple(int(s) for s in sids), cls=cls)
        for gid, cls, sids in table.get("groups", [])
    ]
    return structures, groups


def save(path, arch: dict, params: ParamSet, structures, groups, meta: dict | None = None) -> None:
    header = {
        "version": FORMAT_VERSION,
        "arch": arch,
        "params": [{"name": n, "shape": list(a.shape)} for n, a in params],
        "group_table": _group_table(structures, groups),
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, a in params:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load(path):
    """Returns (arch, ParamSet, structures, groups, meta), after checking
    that the parameter names and shapes are the ones ``arch`` builds and
    that the structure and group tables fit them."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad magic in {path}")
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
    pos = 16 + hlen
    items = []
    for spec in header["params"]:
        shape = tuple(int(s) for s in spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(shape)
        items.append((spec["name"], arr.astype(np.float64)))
        pos += count * 8
    arch, params = header["arch"], ParamSet(items)
    got, want = params.shapes(), model_from_arch(arch).init_params(0).shapes()
    if list(got) != list(want):
        raise CheckpointError(
            f"{path}: parameters {list(got)} do not match the architecture's {list(want)}"
        )
    for name, shape in want.items():
        if got[name] != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {got[name]}, the architecture's is {shape}"
            )
    structures, groups = _parse_group_table(header.get("group_table", {}))
    try:
        validate_structures(params, structures)
        validate_groups(structures, groups)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from e
    return arch, params, structures, groups, header.get("meta", {})
