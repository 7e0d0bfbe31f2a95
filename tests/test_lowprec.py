import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxprune import lowprec
from proxprune.lowprec import PrecisionOverflowError, round_trip


def rtne_oracle(x: float, mant: int, ebits: int) -> float:
    """Independent round-to-nearest-even on the exact binary expansion."""
    if x == 0:
        return math.copysign(0.0, x)
    bias = (1 << (ebits - 1)) - 1
    emin = 1 - bias
    fx = abs(Fraction(x))
    e = 0
    while fx >= 2:
        fx /= 2
        e += 1
    while fx < 1:
        fx *= 2
        e -= 1
    quantum = Fraction(2) ** (max(e, emin) - mant)
    ratio = abs(Fraction(x)) / quantum
    lo = ratio.numerator // ratio.denominator
    frac = ratio - lo
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and lo % 2 == 1):
        lo += 1
    return float(math.copysign(1.0, x) * lo * quantum)


def test_pinned_examples():
    assert round_trip(0.5, "fp16") == 0.5
    assert round_trip(0.5, "bf16") == 0.5
    assert round_trip(0.1, "fp16") == 0.0999755859375
    assert round_trip(0.1, "bf16") == 0.10009765625


def test_matches_numpy_float16_everywhere():
    rng = np.random.default_rng(0)
    xs = np.concatenate([
        rng.normal(size=20000) * 10.0 ** rng.integers(-8, 4, size=20000),
        np.array([0.0, -0.0, 6e-8, 5.96e-8, 65504.0, -65504.0, 2.0**-24, 2.0**-25, 2.0**-24 * 1.5]),
    ])
    mine = round_trip(xs, "fp16")
    ref = np.float16(xs).astype(np.float64)
    assert np.array_equal(mine, ref)
    assert np.array_equal(np.signbit(mine), np.signbit(ref))


def test_matches_rational_oracle_both_formats():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=300) * 10.0 ** rng.integers(-12, 4, size=300)
    for v in vals:
        assert round_trip(float(v), "fp16") == rtne_oracle(float(v), 10, 5)
        assert round_trip(float(v), "bf16") == rtne_oracle(float(v), 7, 8)


def test_bf16_subnormals():
    # smallest bf16 subnormal is 2^-133
    assert round_trip(2.0**-133, "bf16") == 2.0**-133
    assert round_trip(2.0**-135, "bf16") == 0.0
    assert round_trip(2.0**-133 * 1.5, "bf16") == 2.0**-132  # ties-to-even


@given(st.floats(min_value=-60000, max_value=60000, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_idempotent(x):
    for fmt in ("fp16", "bf16"):
        once = round_trip(x, fmt)
        assert round_trip(once, fmt) == once


@given(
    st.floats(min_value=0, max_value=60000, allow_nan=False),
    st.floats(min_value=0, max_value=60000, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_rounding_is_monotone_for_positive_inputs(a, b):
    lo, hi = sorted((a, b))
    for fmt in ("fp16", "bf16"):
        assert round_trip(lo, fmt) <= round_trip(hi, fmt)


def test_overflow_carries_index():
    with pytest.raises(PrecisionOverflowError) as exc:
        round_trip(np.array([1.0, 2.0, 1e10]), "fp16")
    assert exc.value.index == 2
    # bf16 has float32-like range, 1e10 is fine there
    assert np.isfinite(round_trip(np.array([1e10]), "bf16")).all()


def test_overflow_in_2d_input_carries_flat_index_and_value():
    arr = np.array([[1.0, 2.0, 3.0], [4.0, -7e4, 6.0]])
    with pytest.raises(PrecisionOverflowError) as exc:
        round_trip(arr, "fp16")
    assert exc.value.index == 4
    assert exc.value.value == -7e4
    assert exc.value.fmt == "fp16"


def test_rounding_up_to_max_is_not_overflow():
    # values below the overflow threshold round down to the format max
    fmax16 = 65504.0
    assert round_trip(65519.0, "fp16") == fmax16
    with pytest.raises(PrecisionOverflowError):
        round_trip(65520.0, "fp16")  # exact halfway rounds up to 2^16 -> inf


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        round_trip(np.array([1.0, np.inf]), "fp16")
    with pytest.raises(ValueError):
        round_trip(float("nan"), "bf16")


def test_unknown_format():
    with pytest.raises(ValueError):
        round_trip(1.0, "fp8")


def test_shape_and_scalar_handling():
    arr = np.array([[0.1, 0.2], [0.3, 0.4]])
    out = round_trip(arr, "bf16")
    assert out.shape == arr.shape
    assert isinstance(round_trip(0.1, "fp16"), float)
