"""Simulated float16 / bfloat16 rounding of float64 values.

round_trip rounds each value to nearest-even on the target's grid, whose
spacing at any exponent is a power of two: scale by that power (exact in
float64), np.rint (half to even, sign of zero kept), scale back (exact). So
each value is rounded once, straight from float64, with no float32 step.
Subnormal targets keep their fixed grid instead of flushing to zero. Values
that would overflow the target's finite range raise, carrying the flat index
of the first offender.
"""
from __future__ import annotations

import numpy as np

# format -> (mantissa bits, exponent bits)
FORMATS = {"fp16": (10, 5), "bf16": (7, 8)}


class PrecisionOverflowError(Exception):
    def __init__(self, fmt: str, index: int, value: float, param: str | None = None):
        where = "" if param is None else f"parameter {param!r}: "
        super().__init__(
            f"{where}value {value!r} at flat index {index} overflows the finite {fmt} range"
        )
        self.fmt = fmt
        self.index = index
        self.value = value


def round_trip(x, fmt: str):
    """Nearest-even 16-bit quantization of float64 input. With e from
    np.frexp, the grid spacing is 2**s for s = max(e - 1, 1 - bias) - mant.
    ldexp(a, -s) is exact (it scales down only into [2**mant, 2**(mant + 1)),
    far from float64's subnormals), rint rounds it once, half to even, and
    ldexp(., s) is exact again. Grid points scale to integers, so the round
    trip is idempotent."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; known: {sorted(FORMATS)}")
    mant, ebits = FORMATS[fmt]
    arr = np.asarray(x, dtype=np.float64)
    a = arr.reshape(-1)
    if not np.all(np.isfinite(a)):
        bad = int(np.flatnonzero(~np.isfinite(a))[0])
        raise ValueError(f"round_trip: non-finite input at flat index {bad}")

    bias = (1 << (ebits - 1)) - 1
    fmax = (2.0 - 2.0 ** (-mant)) * 2.0**bias
    _, e = np.frexp(a)
    s = np.maximum(e - 1, 1 - bias) - mant
    out = np.ldexp(np.rint(np.ldexp(a, -s)), s)
    over = np.abs(out) > fmax
    if over.any():
        idx = int(np.flatnonzero(over)[0])
        raise PrecisionOverflowError(fmt, idx, float(a[idx]))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
