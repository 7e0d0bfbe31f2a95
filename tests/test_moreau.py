import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from proxprune import data, moreau, zoo
from proxprune.moreau import (
    GroupLayout,
    MoreauConfig,
    channel_layout,
    group_soft_threshold,
    group_sparse_moreau_grad,
    moreau_grad,
)
from proxprune.smoothing import NoiseSpec

import oracles

EXACT = NoiseSpec(scale=0.0, m=1, seed=0)


def convergence_cfg(rho, steps=200, **kw):
    return MoreauConfig(rho=rho, gamma=rho / 4, steps=steps, noise=EXACT, **kw)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            MoreauConfig(rho=0.0)
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            MoreauConfig(rho=float("inf"))
        with pytest.raises(ValueError):
            MoreauConfig(rho=0.1, gamma=0.2)  # gamma > rho breaks the damping factor
        with pytest.raises(ValueError):
            MoreauConfig(steps=0)
        with pytest.raises(ValueError):
            MoreauConfig(eta=-1e-9)
        with pytest.raises(ValueError, match="eta must be >= 0"):
            MoreauConfig(eta=float("nan"))
        with pytest.raises(ValueError, match="eta must be >= 0 and finite"):
            MoreauConfig(eta=float("inf"))


class TestGroupSoftThreshold:
    def test_below_threshold_zeroes_group(self):
        lay = GroupLayout([[0, 1]], labels=[0], size=2)
        out = group_soft_threshold(np.array([0.3, 0.0]), lay, 0.5)
        assert np.array_equal(out, np.zeros(2))

    def test_scaling_branch_hand_value(self):
        lay = GroupLayout([[0, 1]], labels=[0], size=2)
        out = group_soft_threshold(np.array([3.0, 4.0]), lay, 2.5)
        assert np.allclose(out, [1.5, 2.0], atol=1e-15)

    def test_alpha_zero_is_identity(self):
        v = np.random.default_rng(0).normal(size=7)
        lay = GroupLayout([[0, 1, 2], [5, 6]], labels=[0, 1], size=7)
        assert np.array_equal(group_soft_threshold(v, lay, 0.0), v)

    def test_indices_outside_subsets_pass_through(self):
        v = np.array([10.0, 0.1, 0.1])
        lay = GroupLayout([[1, 2]], labels=[0], size=3)
        out = group_soft_threshold(v, lay, 5.0)
        assert out[0] == 10.0 and np.array_equal(out[1:], np.zeros(2))

    def test_nonexpansive_on_random_pairs(self):
        rng = np.random.default_rng(42)
        lay = GroupLayout([[0, 1, 2], [3, 4], [5, 6, 7, 8]], labels=[0, 1, 2], size=9)
        for _ in range(1000):
            u = rng.normal(size=9)
            v = rng.normal(size=9)
            alpha = rng.uniform(0, 2)
            du = group_soft_threshold(u, lay, alpha) - group_soft_threshold(v, lay, alpha)
            assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12

    def test_continuity_at_threshold(self):
        alpha = 1.0
        lay = GroupLayout([[0, 1]], labels=[0], size=2)
        direction = np.array([0.6, 0.8])
        lo = group_soft_threshold(direction * alpha * (1 - 1e-9), lay, alpha)
        hi = group_soft_threshold(direction * alpha * (1 + 1e-9), lay, alpha)
        assert np.linalg.norm(hi - lo) <= 1e-6

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            GroupLayout([[0, 1], [1, 2]], labels=[0, 1], size=3)


class TestOracle:
    def test_quadratic(self):
        prox, grad = oracles.Quadratic().prox([2.0, -4.0], 1.0)
        assert np.allclose(prox, [1.0, -2.0]) and np.allclose(grad, [1.0, -2.0])

    def test_linear(self):
        prox, grad = oracles.Linear([1.0, 1.0]).prox([0.5, 0.5], 0.1)
        assert np.allclose(grad, [1.0, 1.0])
        assert np.allclose(prox, [0.4, 0.4])

    def test_scaled_abs_interior(self):
        prox, grad = oracles.ScaledAbs(1.0).prox([0.3], 1.0)
        assert prox[0] == 0.0
        assert grad[0] == pytest.approx(0.3, abs=1e-15)

    def test_scaled_abs_exterior(self):
        prox, grad = oracles.ScaledAbs(1.0).prox([2.0, -3.0], 1.0)
        assert np.allclose(prox, [1.0, -2.0])
        assert np.allclose(grad, [1.0, -1.0])


class TestMoreauGrad:
    def test_quadratic_example(self):
        cfg = MoreauConfig(rho=1.0, gamma=0.5, steps=50, noise=EXACT)
        obj = oracles.Quadratic()
        (res,) = moreau_grad(obj, [oracles.wrap([2.0, -4.0])], None, cfg).legs
        prox, grad = obj.prox([2.0, -4.0], 1.0)
        assert np.allclose(res.w_final["w"], prox, atol=1e-6)
        assert np.allclose(np.abs(res.mg["w"]), np.abs(grad), atol=1e-6)

    def test_linear_envelope_gradient_norm(self):
        u = np.array([1.0, -2.0, 0.5])
        cfg = convergence_cfg(rho=0.1)
        (res,) = moreau_grad(oracles.Linear(u), [oracles.wrap([0.1, 0.2, 0.3])], None, cfg).legs
        assert np.linalg.norm(res.mg["w"]) == pytest.approx(np.linalg.norm(u), abs=1e-6)

    def test_tiny_gamma_single_step_gives_vanishing_mg(self):
        cfg = MoreauConfig(rho=1.0, gamma=1e-12, steps=1, noise=EXACT)
        (res,) = moreau_grad(oracles.Quadratic(), [oracles.wrap([5.0, -3.0])], None, cfg).legs
        assert np.max(np.abs(res.mg["w"])) < 1e-9

    def test_mg_is_displacement_over_rho_exactly(self):
        cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=5, noise=NoiseSpec(scale=0.05, m=2, seed=4))
        model = zoo.Mlp([4, 5, 3])
        params = model.init_params(2)
        rng = np.random.default_rng(1)
        batch = (rng.normal(size=(3, 4)), rng.integers(0, 3, size=3))
        (res,) = moreau_grad(model, [params], batch, cfg).legs
        for n in res.mg:
            assert np.array_equal(res.mg[n], res.displacement[n] / cfg.rho)

    def test_mode_mismatch_rejected(self):
        # the group penalty needs the groups: only group_sparse_moreau_grad applies eta
        cfg = MoreauConfig(rho=0.2, gamma=2e-4, eta=5e-6)
        with pytest.raises(ValueError):
            moreau_grad(oracles.Quadratic(), [oracles.wrap([1.0])], None, cfg)

    def test_divergence_guard_names_step(self):
        u = np.full(3, 1e7)
        cfg = MoreauConfig(rho=0.05, gamma=0.05, steps=10, noise=EXACT)
        with pytest.raises(moreau.DivergenceError) as exc:
            moreau_grad(oracles.Linear(u), [oracles.wrap([1.0, 1.0, 1.0])], None, cfg)
        assert exc.value.step == 0

    def test_trace_length_matches_steps(self):
        cfg = MoreauConfig(rho=1.0, gamma=0.5, steps=7, noise=EXACT)
        (res,) = moreau_grad(oracles.Quadratic(), [oracles.wrap([1.0])], None, cfg).legs
        assert len(res.trace) == 7


class TestGroupSparse:
    def test_eta_zero_matches_plain_bitwise(self):
        model = zoo.Mlp([4, 6, 3])
        params = model.init_params(1)
        rng = np.random.default_rng(5)
        batch = (rng.normal(size=(4, 4)), rng.integers(0, 3, size=4))
        noise = NoiseSpec(scale=0.05, m=3, seed=11)
        lay = channel_layout(params, model.structures())
        plain_cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=5, noise=noise)
        (plain,) = moreau_grad(model, [params], batch, plain_cfg).legs
        (gs,) = group_sparse_moreau_grad(
            model, [params], batch,
            MoreauConfig(rho=0.05, gamma=1e-3, steps=5, eta=0.0, noise=noise),
            lay,
        ).legs
        for n in plain.mg:
            assert np.array_equal(plain.mg[n], gs.mg[n])

    def test_huge_eta_zeroes_every_group(self):
        model = zoo.Mlp([4, 6, 3])
        params = model.init_params(1)
        rng = np.random.default_rng(5)
        batch = (rng.normal(size=(4, 4)), rng.integers(0, 3, size=4))
        lay = channel_layout(params, model.structures())
        cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=5, eta=1e3,
                           noise=NoiseSpec(scale=0.05, m=2, seed=0))
        (res,) = group_sparse_moreau_grad(model, [params], batch, cfg, lay).legs
        flat = res.mg_flat(params)
        for s in lay.subsets:
            assert not np.any(flat[s])
        assert len(res.zeroed_groups) == len(lay)

    def test_two_group_quadratic_against_radial_search(self):
        """Quadratic h-envelope splits per group; the optimal displacement is
        found by brute 1-d search over each group's radial coordinate and
        compared against the converged loop."""
        w = np.array([3.0, 4.0, 0.1, 0.1])
        rho, eta = 1.0, 0.5
        lay = GroupLayout([[0, 1], [2, 3]], labels=[0, 1], size=4)
        cfg = MoreauConfig(rho=rho, gamma=rho / 4, steps=200, eta=eta, noise=EXACT)
        (res,) = group_sparse_moreau_grad(oracles.Quadratic(), [oracles.wrap(w)], None, cfg, lay).legs

        def radial_optimum(w_g):
            # minimize 0.5*||w_g - t*unit||^2 + t^2/(2 rho) + eta*t over t >= 0
            norm = np.linalg.norm(w_g)
            ts = np.linspace(0.0, norm, 2_000_001)
            vals = 0.5 * (norm - ts) ** 2 + ts**2 / (2 * rho) + eta * ts
            t = ts[np.argmin(vals)]
            return -t * w_g / norm  # displacement delta*

        flat = res.mg_flat(oracles.wrap(w)) * rho  # displacement
        for s, w_g in ((lay.subsets[0], w[:2]), (lay.subsets[1], w[2:])):
            expected = radial_optimum(w_g)
            assert np.allclose(flat[s], expected, atol=1e-5), (flat[s], expected)
        # group 2 collapses to zero, group 1 survives
        assert not np.any(flat[lay.subsets[1]])
        assert np.all(np.abs(flat[lay.subsets[0]]) > 0.1)

    def test_zeroed_group_count_monotone_in_eta(self, corpus):
        model = zoo.Mlp([4 * 256, 8, 256])
        params = model.init_params(3)
        batch, _ = data.make_batch(model, corpus, 6, seed=(0, 0, 0))
        lay = channel_layout(params, model.structures())
        counts = []
        for eta in (0.0, 1e-4, 1e-2, 1.0, 1e3):
            cfg = MoreauConfig(rho=0.2, gamma=2e-4, steps=5, eta=eta,
                               noise=NoiseSpec(scale=0.05, m=2, seed=9))
            (res,) = group_sparse_moreau_grad(model, [params], batch, cfg, lay).legs
            counts.append(len(res.zeroed_groups))
        assert counts == sorted(counts), counts
        assert counts[-1] == len(lay)


class TestLipschitzProbe:
    def test_quadratic_exact_ratios_below_closed_form_constant(self):
        rho = 1.0
        rng = np.random.default_rng(3)
        pairs = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(50)]

        def grad_fn(w):
            return oracles.Quadratic().prox(w, rho)[1]

        report = oracles.lipschitz_probe(grad_fn, pairs, bound=1.0 / (1.0 + rho) + 1e-9)
        assert report.passed
        assert report.max_ratio <= 1.0 / (1.0 + rho) + 1e-9

    def test_coincident_pair_skipped_and_vacuous(self):
        w = np.ones(3)
        report = oracles.lipschitz_probe(lambda v: v, [(w, w.copy())], bound=1.0)
        assert report.skipped == 1
        assert report.vacuous and report.passed

    def test_slack_is_per_pair_additive(self):
        pairs = [(np.zeros(1), np.ones(1)), (np.zeros(1), np.full(1, 2.0))]
        report = oracles.lipschitz_probe(lambda v: 3.0 * v, pairs, bound=2.0, slack=[1.5, 1.5])
        assert report.max_ratio == pytest.approx(3.0)
        assert report.max_adjusted == pytest.approx(1.5)
        assert report.passed


@given(
    hnp.arrays(np.float64, 6, elements=st.floats(-10, 10)),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_gst_never_grows_any_group(v, alpha):
    lay = GroupLayout([[0, 1, 2], [3, 4, 5]], labels=[0, 1], size=6)
    out = group_soft_threshold(v, lay, alpha)
    for s in lay.subsets:
        assert np.linalg.norm(out[s]) <= np.linalg.norm(v[s]) + 1e-12
