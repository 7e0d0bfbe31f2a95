import math

import numpy as np
import pytest

from proxprune import smoothing, zoo
from proxprune.smoothing import NoiseSpec, sample_noise, smoothed_grad

import oracles


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(scale=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(m=0)
    with pytest.raises(ValueError):
        NoiseSpec(mode="cauchy")
    with pytest.raises(ValueError, match="noise scale must be >= 0"):
        NoiseSpec(scale=float("nan"))
    with pytest.raises(ValueError, match="noise scale must be >= 0 and finite"):
        NoiseSpec(scale=float("inf"))


def test_zero_scale_gives_zero_noise():
    ps = oracles.wrap([1.0, -2.0, 3.0])
    noise = sample_noise(ps, NoiseSpec(scale=0.0, m=1, seed=1), 0)
    assert np.array_equal(noise["w"], np.zeros(3))


def test_zero_weight_gets_zero_noise_in_relative_mode():
    ps = oracles.wrap([0.0, 2.0, 0.0])
    noise = sample_noise(ps, NoiseSpec(scale=0.05, m=1, seed=1), 0)
    assert noise["w"][0] == 0.0 and noise["w"][2] == 0.0
    assert noise["w"][1] != 0.0


def test_draw_index_range_checked():
    ps = oracles.wrap([1.0])
    with pytest.raises(ValueError):
        sample_noise(ps, NoiseSpec(scale=0.1, m=2, seed=0), 2)


def test_noise_std_matches_gaussian_parameter():
    """Monte Carlo sanity check of the relative scale: std(noise) ~ s*|w|."""
    ps = oracles.wrap(np.full(50, 2.0))
    spec = NoiseSpec(scale=0.05, m=2000, seed=7)
    draws = np.concatenate([sample_noise(ps, spec, i)["w"] for i in range(spec.m)])
    assert draws.std() == pytest.approx(0.1, rel=0.02)


def test_seed_determinism():
    ps = oracles.wrap([1.0, 2.0])
    spec = NoiseSpec(scale=0.1, m=3, seed=9)
    a = sample_noise(ps, spec, 2, step=5)
    b = sample_noise(ps, spec, 2, step=5)
    assert np.array_equal(a["w"], b["w"])
    c = sample_noise(ps, spec, 2, step=6)  # fresh draws each optimization step
    assert not np.array_equal(a["w"], c["w"])


def test_reduction_to_plain_gradient_is_bit_exact():
    model = zoo.Mlp([4, 5, 3])
    params = model.init_params(1)
    rng = np.random.default_rng(0)
    batch = (rng.normal(size=(4, 4)), rng.integers(0, 3, size=4))
    from proxprune import autodiff as ad

    _, plain = ad.gradient(model.loss, dict(params), batch)
    (smooth,) = smoothed_grad(model, [params], batch, NoiseSpec(scale=0.0, m=1, seed=3))
    assert set(plain) == set(smooth)
    for n in plain:
        assert np.array_equal(plain[n], smooth[n]), n


def test_smoothed_grad_fixed_seed_reproducible():
    model = zoo.Mlp([4, 5, 3])
    params = model.init_params(1)
    rng = np.random.default_rng(0)
    batch = (rng.normal(size=(4, 4)), rng.integers(0, 3, size=4))
    spec = NoiseSpec(scale=0.05, m=5, seed=21)
    (g1,) = smoothed_grad(model, [params], batch, spec)
    (g2,) = smoothed_grad(model, [params], batch, spec)
    for n in g1:
        assert np.array_equal(g1[n], g2[n])


def test_linear_loss_smoothing_is_exact():
    """The gradient of a linear map is constant, so every noisy draw returns
    exactly u and the average has no Monte Carlo error at all."""
    u = np.array([0.5, -1.5, 2.0])
    ps = oracles.wrap([0.2, 0.4, -0.6])
    (grads,) = smoothed_grad(oracles.Linear(u), [ps], None, NoiseSpec(scale=0.3, m=50, seed=2))
    assert np.allclose(grads["w"], u, atol=1e-12)


def test_quadratic_smoothed_grad_within_monte_carlo_error():
    """E[grad 0.5 w^2 at w+z] = w; the m-sample mean must land within 3 sigma."""
    w = np.array([0.7])
    sigma, m = 0.5, 1000
    spec = NoiseSpec(scale=sigma, m=m, seed=11, mode="absolute")
    (grads,) = smoothed_grad(oracles.Quadratic(), [oracles.wrap(w)], None, spec)
    se = sigma / math.sqrt(m)
    assert abs(grads["w"][0] - w[0]) < 3 * se


def test_smoothed_grad_lipschitz_bound_on_abs():
    """For g = beta*|w| with absolute noise std sigma, the smoothed gradient
    is (beta/sigma)-Lipschitz; checked on sampled pairs with 3 pooled-std
    slack for the Monte Carlo estimates."""
    beta, sigma = 1.0, 0.5
    obj = oracles.ScaledAbs(beta)
    rng = np.random.default_rng(17)
    reps, m = 5, 200

    def estimate(w):
        vals = []
        for r in range(reps):
            spec = NoiseSpec(scale=sigma, m=m, seed=100 + r, mode="absolute")
            vals.append(smoothed_grad(obj, [oracles.wrap([w])], None, spec)[0]["w"][0])
        return np.mean(vals), np.std(vals, ddof=1) / math.sqrt(reps)

    for _ in range(12):
        w1 = rng.uniform(-1.5, 1.5)
        w2 = w1 + rng.choice([-1, 1]) * rng.uniform(0.3, 1.5)
        g1, se1 = estimate(w1)
        g2, se2 = estimate(w2)
        slack = 3 * math.sqrt(se1**2 + se2**2)
        assert abs(g1 - g2) <= (beta / sigma) * abs(w1 - w2) + slack


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_draw_reports_index():
    class Explodes:
        def loss(self, p, batch):
            from proxprune import autodiff as ad

            big = ad.multiply(p["w"], 1e300)
            return oracles.sum_all(ad.multiply(big, big))

    with pytest.raises(smoothing.SmoothingError) as exc:
        smoothed_grad(Explodes(), [oracles.wrap([1e5])], None, NoiseSpec(scale=0.1, m=2, seed=0))
    assert exc.value.draw_index == 0


@pytest.mark.filterwarnings("ignore:overflow")
def test_infinite_draw_gradient_behind_a_finite_loss_reports_index():
    """The forward pass is finite (about 1e290), so autodiff raises nothing;
    the adjoint 1e300 * 1e300 overflows, and the per-draw gradient check
    must name the parameter and the draw."""

    class InfiniteGradient:
        def loss(self, p, batch):
            from proxprune import autodiff as ad

            return oracles.sum_all(ad.multiply(ad.multiply(p["w"], 1e300), 1e300))

    legs = [oracles.wrap([1e-310, 2e-310])]
    with pytest.raises(smoothing.SmoothingError, match="non-finite gradient for 'w' in draw 0") as exc:
        smoothed_grad(InfiniteGradient(), legs, None, NoiseSpec(scale=0.1, m=2, seed=0))
    assert exc.value.draw_index == 0
