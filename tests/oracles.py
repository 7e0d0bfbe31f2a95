"""Test oracles: objectives with closed-form proximal maps, the empirical
Lipschitz probe and the finite-difference gradient check.

Only the tests use these. The module name does not match ``test_*.py``, so
pytest imports it from the test files but does not collect it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from proxprune import autodiff as ad
from proxprune.params import ParamSet


def sum_all(x: ad.Tensor) -> ad.Tensor:
    """Scalar sum of all entries, composed from reshape + matmul with a ones vector."""
    n = x.data.size
    row = ad.reshape(x, (1, n))
    total = ad.matmul(row, np.ones((n, 1)))
    return ad.reshape(total, ())


def _vec(w) -> np.ndarray:
    return np.atleast_1d(np.asarray(w, dtype=np.float64))


def wrap(w) -> ParamSet:
    return ParamSet([("w", _vec(w))])


# The objectives behave like zoo models: a ``loss(params, batch)`` method over
# the single parameter "w" (the batch is ignored), so the full optimization
# pipeline runs on functions whose envelopes are known. ``prox(w, rho)``
# returns the exact (proximal point, envelope gradient) at w.


class Quadratic:
    """g(w) = 0.5 * ||w||^2."""

    def loss(self, p, batch):
        w = p["w"]
        return ad.multiply(sum_all(ad.multiply(w, w)), 0.5)

    def prox(self, w, rho: float):
        """prox = grad = w / (1 + rho)."""
        prox = _vec(w) / (1.0 + rho)
        return prox, prox.copy()


class Linear:
    """g(w) = u . w for a fixed coefficient vector u."""

    def __init__(self, u):
        self.u = _vec(u)

    def loss(self, p, batch):
        return sum_all(ad.multiply(p["w"], self.u))

    def prox(self, w, rho: float):
        """prox = w - rho * u, grad = u."""
        return _vec(w) - rho * self.u, self.u.copy()


class ScaledAbs:
    """g(w) = beta * ||w||_1, built as beta * sum(relu(w) + relu(-w))."""

    def __init__(self, beta: float = 1.0):
        self.beta = float(beta)

    def loss(self, p, batch):
        w = p["w"]
        absval = ad.add(ad.relu(w), ad.relu(ad.multiply(w, -1.0)))
        return ad.multiply(sum_all(absval), self.beta)

    def prox(self, w, rho: float):
        """prox = soft-threshold by rho * beta,
        grad = sign(w) * min(|w| / rho, beta) per coordinate."""
        w = _vec(w)
        prox = np.sign(w) * np.maximum(np.abs(w) - rho * self.beta, 0.0)
        grad = np.sign(w) * np.minimum(np.abs(w) / rho, self.beta)
        return prox, grad


@dataclass
class ProbeReport:
    max_ratio: float
    max_adjusted: float  # largest ratio minus its slack
    skipped: int
    passed: bool
    vacuous: bool  # every pair was coincident


def lipschitz_probe(grad_fn, pairs, bound: float, slack=0.0) -> ProbeReport:
    """Empirical gradient-smoothness probe: per pair (w1, w2) the ratio
    ||grad_fn(w1) - grad_fn(w2)|| / ||w1 - w2||, passed iff every ratio
    stays within bound after subtracting its Monte Carlo slack.

    ``slack`` is additive, scalar or per-pair. Coincident pairs are skipped
    and counted; if nothing remains the probe passes vacuously.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("lipschitz_probe: need at least one pair")
    slacks = np.broadcast_to(np.asarray(slack, dtype=np.float64), (len(pairs),))
    ratios: list[float] = []
    adjusted: list[float] = []
    for (w1, w2), s in zip(pairs, slacks):
        w1, w2 = _vec(w1), _vec(w2)
        dw = float(np.linalg.norm(w1 - w2))
        if dw == 0.0:
            continue
        dg = float(np.linalg.norm(np.asarray(grad_fn(w1)) - np.asarray(grad_fn(w2))))
        ratios.append(dg / dw)
        adjusted.append(dg / dw - float(s))
    max_adjusted = max(adjusted, default=0.0)
    return ProbeReport(
        max_ratio=max(ratios, default=0.0),
        max_adjusted=max_adjusted,
        skipped=len(pairs) - len(ratios),
        passed=not ratios or max_adjusted <= bound,
        vacuous=not ratios,
    )


@dataclass
class GradCheckReport:
    per_param_max: dict[str, float]
    max_rel_err: float
    checked: int
    excluded: list[tuple[str, int]]
    passed: bool


def grad_check(
    program,
    params: Mapping[str, np.ndarray],
    batch=None,
    step: float = 1e-5,
    tolerance: float = 1e-5,
    n_coords: int = 50,
    seed: int = 0,
) -> GradCheckReport:
    """Compare reverse-mode gradients against central finite differences.

    Relative error uses |a-b| / max(|a|, |b|, 1): at tiny gradient scales it
    degrades to absolute error, keeping the finite-difference noise floor
    (~1e-11 at step 1e-5) well below any meaningful tolerance. Coordinates
    whose +/-step evaluations land on different sides of a relu kink are
    excluded and listed in the report. Programs must call relu as
    ``ad.relu`` for their kinks to be seen.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    _, grads = ad.gradient(program, params, batch)
    coords: list[tuple[str, int]] = []
    for name, arr in params.items():
        coords.extend((name, i) for i in range(np.asarray(arr).size))
    rng = np.random.default_rng(seed)
    if len(coords) > n_coords:
        picked = rng.choice(len(coords), size=n_coords, replace=False)
        coords = [coords[i] for i in sorted(picked)]

    relu = ad.relu

    def eval_at(name, idx, delta):
        """Loss at the shifted point and the sign mask of each relu call,
        recorded by swapping ``ad.relu`` for a wrapper while it runs."""
        shifted = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
        shifted[name].reshape(-1)[idx] += delta
        masks: list[np.ndarray] = []

        def recording_relu(x):
            out = relu(x)
            masks.append(out.data > 0.0)  # > 0 exactly where the input is
            return out

        ad.relu = recording_relu
        try:
            loss, _ = ad.forward(program, shifted, batch)
        finally:
            ad.relu = relu
        return loss, masks

    per_param: dict[str, float] = {name: 0.0 for name in params}
    excluded: list[tuple[str, int]] = []
    checked = 0
    for name, idx in coords:
        lo, signs_lo = eval_at(name, idx, -step)
        hi, signs_hi = eval_at(name, idx, +step)
        if any(not np.array_equal(a, b) for a, b in zip(signs_lo, signs_hi)):
            excluded.append((name, idx))
            continue
        fd = (hi - lo) / (2.0 * step)
        an = float(np.asarray(grads[name]).reshape(-1)[idx])
        err = abs(an - fd) / max(abs(an), abs(fd), 1.0)
        per_param[name] = max(per_param[name], err)
        checked += 1
    max_err = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(
        per_param_max=per_param,
        max_rel_err=max_err,
        checked=checked,
        excluded=excluded,
        passed=max_err < tolerance,
    )
