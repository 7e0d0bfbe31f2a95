"""Bit-exact oracles for the allocation-lean hot loops.

The Monte Carlo loop, the proximal loop, gelu and softmax run in place on
flat buffers. Each is pinned here, bit for bit (uint64 views), against the
straightforward per-parameter formulation it replaced, kept below as the
oracle. The oracles are test code only; the package has one runtime path.
"""
import math

import numpy as np
import pytest

from proxprune import autodiff as ad
from proxprune import zoo
from proxprune.moreau import (
    GroupLayout,
    MoreauConfig,
    channel_layout,
    group_sparse_moreau_grad,
    moreau_grad,
)
from proxprune.params import ParamSet, flatten_map, structure_flat_indices
from proxprune.smoothing import NoiseSpec, smoothed_loss_and_grad


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(a, b):
    assert np.array_equal(bits(a), bits(b))


# --- oracles ---------------------------------------------------------------


def oracle_sample_noise(params: ParamSet, spec: NoiseSpec, draw_index: int, step: int):
    rng = np.random.default_rng((spec.seed, step, draw_index))
    out = {}
    for name, w in params:
        z = rng.standard_normal(w.shape)
        if spec.mode == "relative":
            out[name] = z * (spec.scale * np.abs(w))
        else:
            out[name] = z * spec.scale
    return out


def oracle_smoothed_loss_and_grad(model, params: ParamSet, batch, spec: NoiseSpec, step=0):
    if spec.scale == 0.0:
        loss, grads = ad.gradient(model.loss, dict(params), batch)
        return grads, loss
    sums = {}
    losses = []
    for i in range(spec.m):
        noise = oracle_sample_noise(params, spec, i, step)
        loss, grads = ad.gradient(model.loss, dict(params.add(noise)), batch)
        losses.append(loss)
        for name, g in grads.items():
            sums[name] = sums[name] + g if name in sums else g.copy()
    return {name: g / spec.m for name, g in sums.items()}, math.fsum(losses) / spec.m


def oracle_group_soft_threshold(v, layout, alpha):
    out = v.copy()
    for s in layout.subsets:
        norm = math.sqrt(float(np.dot(v[s], v[s])))
        if norm <= alpha:
            out[s] = 0.0
        else:
            out[s] = v[s] * (1.0 - alpha / norm)
    return out


def oracle_proximal_loop(model, params: ParamSet, batch, config: MoreauConfig, layout):
    """(v_T, mg = (v_T - w) / rho, objective trace)."""
    w0 = params.flatten()
    v = w0.copy()
    trace = []
    alpha = config.gamma * config.eta
    for t in range(config.steps):
        iterate = params.unflatten(v)
        grads, loss_est = oracle_smoothed_loss_and_grad(model, iterate, batch, config.noise, step=t)
        g = flatten_map(params, grads)
        v = (1.0 - config.gamma / config.rho) * v - config.gamma * (g - w0 / config.rho)
        if layout is not None and alpha > 0.0:
            v = w0 + oracle_group_soft_threshold(v - w0, layout, alpha)
        dist2 = float(np.dot(v - w0, v - w0))
        trace.append(loss_est + dist2 / (2.0 * config.rho))
    return v, (v - w0) / config.rho, trace


_C = math.sqrt(2.0 / math.pi)


def oracle_gelu(xd, g):
    inner = _C * (xd + 0.044715 * xd**3)
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)
    sech2 = 1.0 - t * t
    d = 0.5 * (1.0 + t) + 0.5 * xd * sech2 * _C * (1.0 + 3 * 0.044715 * xd**2)
    return out, g * d


def oracle_softmax(xd, g):
    z = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)
    return out, out * (g - (g * out).sum(axis=-1, keepdims=True))


def oracle_structure_flat_indices(ps: ParamSet, structure):
    offsets = ps.offsets()
    shapes = ps.shapes()
    parts = []
    for s in structure.slices:
        shape = shapes[s.param]
        grid = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
        parts.append(grid[s.indexer(len(shape))].reshape(-1) + offsets[s.param])
    return np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)


# --- fixtures --------------------------------------------------------------


def mlp_case():
    model, params, _ = zoo.build_mlp([6, 5, 4], seed=1)
    rng = np.random.default_rng(3)
    return model, params, (rng.normal(size=(5, 6)), rng.integers(0, 4, size=5))


def transformer_case():
    model, params, _ = zoo.build_tiny_transformer(16, 8, 2, 1, seed=2, max_len=8)
    rng = np.random.default_rng(4)
    return model, params, rng.integers(0, 16, size=(2, 8))


CASES = {"mlp": mlp_case, "transformer": transformer_case}
SPECS = [
    NoiseSpec(scale=0.05, m=1, seed=5),
    NoiseSpec(scale=0.05, m=3, seed=5),
    NoiseSpec(scale=0.02, m=3, seed=6, mode="absolute"),
    NoiseSpec(scale=0.0, m=3, seed=5),
]
SPEC_IDS = ["rel-m1", "rel-m3", "abs-m3", "scale0"]


# --- Monte Carlo and proximal loops ------------------------------------------


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_smoothed_loss_and_grad_matches_oracle_bitwise(case, spec):
    model, params, batch = CASES[case]()
    grads, loss = smoothed_loss_and_grad(model, params, batch, spec, step=2)
    want, want_loss = oracle_smoothed_loss_and_grad(model, params, batch, spec, step=2)
    assert list(grads) == list(want)
    for name in want:
        assert grads[name].shape == want[name].shape
        assert_same_bits(grads[name], want[name])
    assert_same_bits(loss, want_loss)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_moreau_grad_matches_oracle_bitwise(case, spec):
    model, params, batch = CASES[case]()
    cfg = MoreauConfig(rho=0.05, gamma=1e-2, steps=3, noise=spec)
    res = moreau_grad(model, params, batch, cfg)
    v, mg, trace = oracle_proximal_loop(model, params, batch, cfg, None)
    assert_same_bits(res.mg_flat(params), mg)
    assert_same_bits(res.w_final.flatten(), v)
    assert_same_bits(res.trace, trace)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS[1:], ids=SPEC_IDS[1:])
@pytest.mark.parametrize("eta", [0.0, 5e-6, 0.2])
def test_group_sparse_moreau_grad_matches_oracle_bitwise(case, spec, eta):
    model, params, batch = CASES[case]()
    layout = channel_layout(params, model.structures())
    cfg = MoreauConfig(rho=0.2, gamma=0.05, steps=3, eta=eta, noise=spec)
    res = group_sparse_moreau_grad(model, params, batch, cfg, layout)
    v, mg, trace = oracle_proximal_loop(model, params, batch, cfg, layout)
    assert_same_bits(res.mg_flat(params), mg)
    assert_same_bits(res.w_final.flatten(), v)
    assert_same_bits(res.trace, trace)
    zeroed = [lab for lab, s in zip(layout.labels, layout.subsets) if not np.any(mg[s])]
    assert list(res.zeroed_groups) == zeroed
    if eta == 0.2:
        assert 0 < len(zeroed) < len(layout)  # the threshold bites on some groups only


@pytest.mark.parametrize("case", CASES)
def test_flat_draw_equals_per_parameter_draws(case):
    """One standard_normal(P) stream equals the per-parameter draws
    concatenated in ParamSet order; the smoothing loop relies on this."""
    _, params, _ = CASES[case]()
    for key in [(0, 0, 0), (5, 2, 1), (123, 9, 7)]:
        per_param = np.random.default_rng(key)
        parts = [per_param.standard_normal(w.shape).reshape(-1) for _, w in params]
        flat = np.random.default_rng(key).standard_normal(params.size)
        into = np.empty(params.size)
        np.random.default_rng(key).standard_normal(out=into)
        assert_same_bits(flat, np.concatenate(parts))
        assert_same_bits(into, flat)


# --- primitives --------------------------------------------------------------


def adjoint(op, x, g):
    tape = ad.Tape()
    out = op(tape.leaf("x", x))
    [(_, dx)] = tape.entries[-1].backward(g)
    return out.data, dx


def gelu_inputs():
    rng = np.random.default_rng(8)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-8, -1e-8, 0.5, -3.0, 30.0, -30.0,
               1e3, -1e3, 1e100, -1e100]
    return np.concatenate([special, rng.normal(size=4000), 10 * rng.normal(size=1000)])


def test_gelu_matches_oracle_bitwise():
    x = gelu_inputs()
    g = np.random.default_rng(9).normal(size=x.size)
    g[:4] = [0.0, -0.0, 1.0, -1.0]
    out, dx = adjoint(ad.gelu, x, g)
    want_out, want_dx = oracle_gelu(x, g)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


def test_gelu_matches_oracle_bitwise_on_stacked_input():
    x = np.random.default_rng(10).normal(size=(3, 7, 16))
    g = np.random.default_rng(11).normal(size=x.shape)
    out, dx = adjoint(ad.gelu, x, g)
    want_out, want_dx = oracle_gelu(x, g)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


def test_softmax_matches_oracle_bitwise():
    rng = np.random.default_rng(12)
    n = 9
    scores = rng.normal(size=(2, 3, n, n)) * 4
    scores[0, 0, 0, :] = 0.0
    scores[0, 0, 1, :] = -0.0
    scores[0, 1, 2, :] = 700.0 * rng.normal(size=n)
    x = scores + np.triu(np.full((n, n), -1e9), k=1)  # causal mask rows
    g = rng.normal(size=x.shape)
    g[1, 2, 3, :] = 0.0
    out, dx = adjoint(ad.softmax, x, g)
    want_out, want_dx = oracle_softmax(x, g)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


def test_softmax_matches_oracle_bitwise_on_transposed_adjoint():
    """A non-contiguous upstream adjoint sums in the same order as before."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 6, 5))
    g = rng.normal(size=(5, 6, 4)).transpose(2, 1, 0)
    out, dx = adjoint(ad.softmax, x, g)
    want_out, want_dx = oracle_softmax(x, g)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


# --- layouts -----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_structure_flat_indices_match_index_grid(case):
    model, params, _ = CASES[case]()
    for st in model.structures():
        got = structure_flat_indices(params, st)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle_structure_flat_indices(params, st))


def test_structure_flat_indices_on_benchmark_sized_models():
    for model in (zoo.Mlp([1024, 64, 256]), zoo.TinyTransformer.build(256, 32, 4, 2)):
        params = model.init_params(0)
        for st in model.structures():
            assert np.array_equal(
                structure_flat_indices(params, st), oracle_structure_flat_indices(params, st)
            )


class TestGroupLayoutChecks:
    def test_duplicates_inside_one_subset_are_accepted(self):
        lay = GroupLayout([[1, 0, 1], [3, 2, 3]], size=4)
        assert len(lay) == 2
        assert lay.indices.tolist() == [0, 1, 1, 2, 3, 3]

    def test_overlap_across_subsets_rejected(self):
        with pytest.raises(ValueError, match="must be disjoint"):
            GroupLayout([[0, 1], [4], [5, 1]])
        with pytest.raises(ValueError, match="must be disjoint"):
            GroupLayout([[3, 3], [3]])

    def test_index_at_or_above_size_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            GroupLayout([[0, 1], [4]], size=4)
        GroupLayout([[0, 1], [3]], size=4)

    def test_overlap_is_reported_before_range(self):
        with pytest.raises(ValueError, match="must be disjoint"):
            GroupLayout([[9], [9]], size=4)

    def test_empty_layouts_are_fine(self):
        assert len(GroupLayout([])) == 0
        assert len(GroupLayout([], size=0)) == 0
        assert len(GroupLayout([[], []], size=0)) == 2
        assert GroupLayout([]).indices.size == 0

    def test_channel_layout_covers_each_structure(self):
        model, params, _ = transformer_case()
        lay = channel_layout(params, model.structures())
        assert lay.labels == [st.id for st in model.structures()]
        for s, st in zip(lay.subsets, model.structures()):
            assert np.array_equal(s, oracle_structure_flat_indices(params, st))
        assert np.array_equal(lay.indices, np.sort(np.concatenate(lay.subsets)))
