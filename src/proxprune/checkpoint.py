"""Binary checkpoint format.

Layout: 8-byte magic ``MPRUNE01``, little-endian uint64 header length, a
UTF-8 JSON header (format version, architecture descriptor, parameter
names/shapes, group table, free-form meta), then the raw little-endian
float64 parameter data concatenated in header order, and nothing after it.
Every stored value must be finite. Round-trips are bit-exact; the optional
``meta["created"]`` timestamp is the only field a rewriting command may
touch.
"""
from __future__ import annotations

import json
import math
import struct
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .params import ParamSet
from .zoo import ZooError, model_from_arch

MAGIC = b"MPRUNE01"
FORMAT_VERSION = 1
# what interpreting a damaged header can raise, besides CheckpointError itself
_MALFORMED = (struct.error, LookupError, TypeError, AttributeError, ValueError,
              ArithmeticError, ZooError)


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


def _first_difference(stored: dict, want: dict) -> str:
    """Names the first entry in which a stored group table differs from the
    architecture's own."""
    for key in ("structures", "groups"):
        for i, (got, own) in enumerate(zip_longest(stored[key], want[key])):
            if got != own:
                return (f"group table {key[:-1]} entry {i} is {json.dumps(got)}, "
                        f"the architecture's is {json.dumps(own)}")
    return f"group table keys {sorted(stored)} are not {sorted(want)}"


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
    """Returns (model, ParamSet, meta). The model is built from the header's
    ``arch``; the parameter names and shapes and the group table must be
    exactly the ones it defines."""
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad magic in {path}")
    try:
        return _parse(path, raw)
    except _MALFORMED as e:
        raise CheckpointError(f"{path}: malformed checkpoint: {e!r}") from e


def _parse(path, raw: bytes):
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
    names = [spec["name"] for spec in header["params"]]
    shapes = [tuple(int(s) for s in spec["shape"]) for spec in header["params"]]
    sizes = [math.prod(shape) for shape in shapes]
    end = 16 + hlen + 8 * sum(sizes)
    if len(raw) != end:
        raise CheckpointError(f"{path}: file is {len(raw)} bytes, its header describes {end}")
    flat = np.frombuffer(raw, dtype="<f8", count=sum(sizes), offset=16 + hlen)
    items, pos = [], 0
    for name, shape, size in zip(names, shapes, sizes):
        arr = flat[pos : pos + size]
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise CheckpointError(
                f"{path}: parameter {name!r} holds {arr[bad[0]]} at flat index {bad[0]}"
            )
        items.append((name, arr.reshape(shape).astype(np.float64)))
        pos += size
    model, params = model_from_arch(header["arch"]), ParamSet(items)
    got, want = params.shapes(), model.init_params(0).shapes()
    if list(got) != list(want):
        raise CheckpointError(
            f"{path}: parameters {list(got)} do not match the architecture's {list(want)}"
        )
    for name, shape in want.items():
        if got[name] != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {got[name]}, the architecture's is {shape}"
            )
    stored, table = header["group_table"], _group_table(model.structures(), model.groups())
    if stored != table:
        raise CheckpointError(f"{path}: {_first_difference(stored, table)}")
    return model, params, dict(header.get("meta", {}))
