"""Simulated float16 / bfloat16 rounding of float64 values.

round_trip converts each 64-bit value to the 16-bit format and back using
round-to-nearest-even directly on the float64 significand (no intermediate
float32 step, so no double rounding). Subnormal targets are honoured, not
flushed to zero. Values that would overflow the target's finite range raise,
carrying the flat index of the first offender.
"""
from __future__ import annotations

import numpy as np

# format -> (mantissa bits, exponent bits)
FORMATS = {"fp16": (10, 5), "bf16": (7, 8)}


class PrecisionOverflowError(Exception):
    def __init__(self, fmt: str, index: int, value: float):
        super().__init__(
            f"value {value!r} at flat index {index} overflows the finite {fmt} range"
        )
        self.fmt = fmt
        self.index = index
        self.value = value


def round_trip(x, fmt: str):
    """Nearest-even 16-bit quantization of float64 input; idempotent by
    construction (representable values have zero rounding remainder)."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; known: {sorted(FORMATS)}")
    mant, ebits = FORMATS[fmt]
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    if not np.all(np.isfinite(a)):
        bad = int(np.flatnonzero(~np.isfinite(a))[0])
        raise ValueError(f"round_trip: non-finite input at flat index {bad}")

    bias = (1 << (ebits - 1)) - 1
    emax = bias  # largest unbiased exponent of a normal target value
    emin = 1 - bias
    fmax = (2.0 - 2.0 ** (-mant)) * 2.0**emax

    bits = a.view(np.uint64)
    sign = np.where(bits >> np.uint64(63) != 0, -1.0, 1.0)
    exp_field = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    frac = bits & np.uint64((1 << 52) - 1)

    is_sub = exp_field == 0
    e = np.where(is_sub, -1022, exp_field - 1023)
    sig = np.where(is_sub, frac, frac | np.uint64(1 << 52)).astype(np.uint64)

    shift = (52 - mant) + np.maximum(0, emin - e)
    shift = np.minimum(shift, 54).astype(np.uint64)

    one = np.uint64(1)
    half = one << (shift - one)
    rem = sig & ((one << shift) - one)
    keep = sig >> shift
    round_up = (rem > half) | ((rem == half) & ((keep & one) == one))
    keep = keep + round_up.astype(np.uint64)

    out = sign * np.ldexp(keep.astype(np.float64), (e - 52 + shift.astype(np.int64)))
    over = np.abs(out) > fmax
    if over.any():
        idx = int(np.flatnonzero(over)[0])
        raise PrecisionOverflowError(fmt, idx, float(a.reshape(-1)[idx]))
    # preserve the sign of zero
    out = np.where((keep == 0), sign * 0.0, out)
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)
