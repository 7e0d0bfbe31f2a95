"""Bit-exact oracles for the allocation-lean hot loops.

The Monte Carlo loop, the proximal loop, gelu, softmax (with attention's
scale and causal mask folded in), layer_norm and the cross-entropy adjoint
run in place on flat buffers, the transformer shares one cached causal mask
per length, structure indices are built from runs, and physical pruning
deletes each parameter's slices in one call. Each is pinned here, bit for
bit (uint64 views), against the straightforward formulation it replaced,
kept below as the oracle. The oracles are test code only; the package has one runtime path.
"""
import math
from contextlib import closing

import numpy as np
import pytest

from proxprune import autodiff as ad
from proxprune import robustness, zoo
from proxprune.importance import element_importance, prune_model
from proxprune.moreau import (
    GroupLayout,
    MoreauConfig,
    channel_layout,
    group_sparse_moreau_grad,
    moreau_grad,
)
from proxprune.params import ParamSet, PruneStructure, Slice, flatten_map, structure_flat_indices
from proxprune.smoothing import MonteCarloLoop, NoiseSpec, smoothed_grad, smoothed_loss_and_grad

import oracles


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
    """(mg = (v_T - w) / rho, objective trace)."""
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
    return (v - w0) / config.rho, trace


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


def oracle_layer_norm(xd, gd, bd, g, eps=1e-5):
    """(out, dx, dgain, dbias) through numpy's mean."""
    d = xd.shape[-1]
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gd * xhat + bd
    dxhat = g * gd
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return out, dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def oracle_structure_flat_indices(ps: ParamSet, structure):
    offsets = ps.offsets()
    shapes = ps.shapes()
    parts = []
    for s in structure.slices:
        shape = shapes[s.param]
        grid = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
        parts.append(grid[s.indexer(len(shape))].reshape(-1) + offsets[s.param])
    return np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=np.int64)


def oracle_pruned_params(model, params: ParamSet, prune_set) -> ParamSet:
    by_id = {st.id: st for st in model.structures()}
    groups = {g.id: g for g in model.groups()}
    drop: dict[tuple[str, int], set[int]] = {}
    for sid in {sid for gid in prune_set for sid in groups[gid].structures}:
        for s in by_id[sid].slices:
            drop.setdefault((s.param, s.axis), set()).update(range(s.start, s.stop))
    items = []
    for name, arr in params:
        out = arr
        for axis in range(arr.ndim):
            dropped = drop.get((name, axis))
            if dropped:
                kept = np.array([i for i in range(arr.shape[axis]) if i not in dropped])
                out = np.take(out, kept, axis=axis)
        items.append((name, out))
    return ParamSet(items)


# --- fixtures --------------------------------------------------------------


def mlp_case():
    model = zoo.Mlp([6, 5, 4])
    params = model.init_params(1)
    rng = np.random.default_rng(3)
    return model, params, (rng.normal(size=(5, 6)), rng.integers(0, 4, size=5))


def transformer_case():
    model = zoo.TinyTransformer.build(16, 8, 2, 1, max_len=8)
    params = model.init_params(2)
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


def shrunk_transformer_case():
    """A transformer whose layers keep different head and channel counts."""
    model = zoo.TinyTransformer.build(16, 12, 3, 2, max_len=8)
    params = model.init_params(5)
    structures = model.structures()
    drop = [structures[1].id, structures[2].id] + [st.id for st in structures[20:27]]
    small, params = prune_model(model, params, tuple(sorted(drop)))
    assert small.a.heads == [1, 3] and small.a.ffn[0] != small.a.ffn[1]
    return small, params, np.random.default_rng(6).integers(0, 16, size=(2, 8))


# --- Monte Carlo and proximal loops ------------------------------------------


def third_step(model, params: ParamSet, batch, spec: NoiseSpec, w: np.ndarray):
    """smoothed_loss_and_grad at the legs w on the third step of a three-step
    loop, whose draws are keyed by step 2."""
    out = np.empty(w.shape)
    with closing(MonteCarloLoop(model, params, batch, spec, 3)) as loop:
        for _ in range(3):
            grads, losses = smoothed_loss_and_grad(loop, w, out)
    return grads, losses


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_smoothed_loss_and_grad_matches_oracle_bitwise(case, spec):
    model, params, batch = CASES[case]()
    (grads,), (loss,) = third_step(model, params, batch, spec, params.flatten()[None])
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
    (res,) = moreau_grad(model, [params], batch, cfg).legs
    mg, trace = oracle_proximal_loop(model, params, batch, cfg, None)
    assert_same_bits(flatten_map(params, res.mg), mg)
    assert_same_bits(res.trace, trace)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS[1:], ids=SPEC_IDS[1:])
@pytest.mark.parametrize("eta", [0.0, 5e-6, 0.2])
def test_group_sparse_moreau_grad_matches_oracle_bitwise(case, spec, eta):
    model, params, batch = CASES[case]()
    layout = channel_layout(params, model.structures())
    cfg = MoreauConfig(rho=0.2, gamma=0.05, steps=3, eta=eta, noise=spec)
    (res,) = group_sparse_moreau_grad(model, [params], batch, cfg, layout).legs
    mg, trace = oracle_proximal_loop(model, params, batch, cfg, layout)
    assert_same_bits(flatten_map(params, res.mg), mg)
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


def wide_gelu_inputs():
    """About 10^6 gelu inputs over every kind of cube: normal samples at
    scales 1e-160 to 1e100, signed zeros, subnormal inputs, negatives whose
    cube is subnormal, and cubes that overflow while the square stays finite."""
    rng = np.random.default_rng(12)
    n = 20_000
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    parts = [rng.normal(0, 10.0**e, 60_000) for e in range(-160, 101, 20)]
    parts += [
        rng.normal(0, 0.6, 100_000),
        [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)],
        signs * rng.uniform(0, 2.0**-1022, n),  # subnormal inputs
        -np.exp2(rng.uniform(-358, -340.67, n)),  # subnormal cubes
        signs * np.exp2(rng.uniform(341.34, 511, n)),  # overflowing cubes
    ]
    return np.concatenate(parts)


@pytest.mark.filterwarnings("ignore:overflow encountered in power")
def test_gelu_matches_oracle_bitwise_at_every_scale():
    x = wide_gelu_inputs()
    assert x.size >= 10**6
    g = np.random.default_rng(13).normal(size=x.size)
    out, dx = adjoint(ad.gelu, x, g)
    with np.errstate(over="ignore"):
        want_out, want_dx = oracle_gelu(x, g)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


def test_gelu_decides_most_cubes_without_the_negative_base_power(monkeypatch):
    """Both routes of autodiff._gelu_arg run on activation-like input: the
    exact np.power on the compacted subset gets some elements, but few."""
    sizes = []
    power = np.power

    def counted(a, *args, **kwargs):
        sizes.append(np.size(a))
        return power(a, *args, **kwargs)

    monkeypatch.setattr(np, "power", counted)
    x = np.random.default_rng(14).normal(0, 0.6, size=(4, 128, 128))
    ad.gelu(x)
    full, exact = sizes
    assert full == x.size
    assert 0 < exact < 0.25 * x.size


def test_numpy_power_premise_of_gelu():
    """What autodiff._gelu_arg assumes of np.power, checked on the numpy at
    hand: a negative base's cube is within _GELU_K float steps of minus the
    cube of its magnitude, and a lane's result does not depend on the other
    elements of the array (compacted subsets and the positive lanes of a
    mixed-sign array give the full array's bits)."""
    rng = np.random.default_rng(15)
    x = -np.exp2(rng.uniform(-340, 341, 200_000))  # every binade of normal cubes
    steps = np.power(x, 3).view(np.int64) - (-np.power(-x, 3)).view(np.int64)
    assert np.abs(steps).max() <= ad._GELU_K

    mixed = rng.normal(0, 0.6, 100_000)
    full = np.power(mixed, 3)
    subset = np.flatnonzero(rng.random(mixed.size) < 0.1)
    assert_same_bits(np.power(mixed[subset], 3), full[subset])
    positive = ~np.signbit(mixed)
    assert_same_bits(np.power(np.abs(mixed), 3)[positive], full[positive])


def causal_scores(rng, n=9):
    """Attention scores with 0.0 and -0.0 rows and a row of +-700 scores,
    plus the causal mask zoo adds to them."""
    scores = rng.normal(size=(2, 3, n, n)) * 4
    scores[0, 0, 0, :] = 0.0
    scores[0, 0, 1, :] = -0.0
    scores[0, 1, 2, :] = 700.0 * rng.normal(size=n)
    return scores, np.triu(np.full((n, n), -1e9), k=1)


def plain_softmax(x):
    """softmax with no scale and no mask: x*1.0 + 0.0 is x, but for the sign
    of a zero, which the max shift removes."""
    return ad.softmax(x, 1.0, 0.0)


def test_softmax_matches_oracle_bitwise():
    rng = np.random.default_rng(12)
    scores, mask = causal_scores(rng)
    x = scores + mask  # causal mask rows
    g = rng.normal(size=x.shape)
    g[1, 2, 3, :] = 0.0
    out, dx = adjoint(plain_softmax, x, g)
    want_out, want_dx = oracle_softmax(x, g)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


def test_softmax_matches_oracle_bitwise_on_transposed_adjoint():
    """A non-contiguous upstream adjoint sums in the same order as before."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 6, 5))
    g = rng.normal(size=(5, 6, 4)).transpose(2, 1, 0)
    out, dx = adjoint(plain_softmax, x, g)
    want_out, want_dx = oracle_softmax(x, g)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, want_dx)


@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
def test_folded_softmax_matches_oracle_bitwise(transposed):
    """softmax(x, scale, mask) is oracle_softmax(x*scale + mask), and its
    adjoint is the oracle's times scale, bit for bit."""
    rng = np.random.default_rng(14)
    scores, mask = causal_scores(rng)
    scale = 1.0 / math.sqrt(8)
    if transposed:
        g = rng.normal(size=scores.shape[::-1]).transpose(3, 2, 1, 0)
    else:
        g = rng.normal(size=scores.shape)
    g[1, 2, 3, :] = 0.0
    out, dx = adjoint(lambda t: ad.softmax(t, scale, mask), scores, g)
    want_out, want_dx = oracle_softmax(scores * scale + mask, g)
    assert_same_bits(out, want_out)
    assert_same_bits(dx, scale * want_dx)


@pytest.mark.parametrize("shift", [-745.2, -800.0, -1e9])
def test_softmax_exp_skip_equals_full_exp_bitwise(shift):
    """softmax skips exp where the shifted score is -800 or below, whose exp
    is exactly +0.0. Around the underflow edge (exp(-744.2) is the smallest
    subnormal, exp(-745.2) is +0.0), around the cut and on causal-masked
    rows the bits equal a full exp."""
    rng = np.random.default_rng(16)
    scores, mask = causal_scores(rng)
    rows = np.zeros((3, 7))  # each row's max is its last 0.0, so no shift
    rows[:, :5] = shift + np.array([-1.0, -1e-9, 0.0, 1e-9, 1.0])
    rows[:, 5] = -rng.uniform(size=3)
    for x, scale, m in ((rows, 1.0, 0.0), (scores, 1.0 / math.sqrt(8), mask)):
        g = rng.normal(size=x.shape)
        out, dx = adjoint(lambda t: ad.softmax(t, scale, m), x, g)
        want_out, want_dx = oracle_softmax(x * scale + m, g)
        assert_same_bits(out, want_out)
        assert_same_bits(dx, scale * want_dx)


def test_folded_softmax_gradient_equals_unfolded_chain_bitwise():
    """On a tape, the folded softmax gives the bits of the multiply -> add ->
    softmax chain attention recorded before, forward and gradient."""
    rng = np.random.default_rng(15)
    scores, mask = causal_scores(rng)
    scale = 1.0 / math.sqrt(8)
    weights = rng.normal(size=scores.shape)

    def folded(p, _):
        return oracles.sum_all(ad.multiply(ad.softmax(p["x"], scale, mask), weights))

    def chain(p, _):
        z = ad.add(ad.multiply(p["x"], scale), mask)
        return oracles.sum_all(ad.multiply(plain_softmax(z), weights))

    loss, grads = ad.gradient(folded, {"x": scores})
    want_loss, want_grads = ad.gradient(chain, {"x": scores})
    assert_same_bits(loss, want_loss)
    assert_same_bits(grads["x"], want_grads["x"])


def test_cross_entropy_adjoint_matches_oracle_bitwise():
    rng = np.random.default_rng(17)
    logits = rng.normal(size=(3, 5, 7)) * 4
    logits[0, 0, :] = 700.0 * rng.normal(size=7)
    logits[1, 2, :] = -0.0
    targets = rng.integers(0, 7, size=(3, 5))
    g = 0.37
    tape = ad.Tape()
    ad.cross_entropy(tape.leaf("x", logits), targets)
    [(_, dx)] = tape.entries[-1].backward(np.asarray(g))
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    p = np.exp(z - lse[..., None]).reshape(-1, 7)
    np.subtract.at(p, (np.arange(15), targets.reshape(-1)), 1.0)
    assert_same_bits(dx, (g / 15) * p.reshape(logits.shape))


@pytest.mark.parametrize("shape", [(4, 127, 256), (1, 127, 256), (32, 256), (3, 5, 7)])
def test_cross_entropy_blocked_exp_sum_matches_whole_array_bitwise(shape):
    """The exp-sum runs through a small buffer of rows; loss and adjoint keep
    the bits of np.exp(z).sum(-1) over the whole array."""
    rng = np.random.default_rng(23)
    logits = rng.normal(size=shape) * 4
    flat = logits.reshape(-1, shape[-1])
    flat[0] = 700.0 * rng.normal(size=shape[-1])
    flat[-1] = -0.0
    targets = rng.integers(0, shape[-1], size=shape[:-1])
    z = logits - logits.max(axis=-1, keepdims=True)
    assert_same_bits(ad._sum_exp(z), np.exp(z).sum(axis=-1))
    lse = np.log(np.exp(z).sum(axis=-1))
    count = targets.size
    picked = np.take_along_axis(z.reshape(-1, shape[-1]), targets.reshape(-1, 1), axis=1)
    tape = ad.Tape()
    loss = ad.cross_entropy(tape.leaf("x", logits), targets)
    assert_same_bits(loss.data, math.fsum(lse.reshape(-1) - picked.reshape(-1)) / count)
    [(_, dx)] = tape.entries[-1].backward(np.asarray(1.0))
    p = np.exp(z - lse[..., None]).reshape(-1, shape[-1])
    np.subtract.at(p, (np.arange(count), targets.reshape(-1)), 1.0)
    assert_same_bits(dx, (1.0 / count) * p.reshape(shape))


def layer_norm_inputs():
    """Benchmark-sized inputs, then rows of width 24, where dividing by d
    and multiplying by 1/d differ."""
    rng = np.random.default_rng(12)
    constant = np.full((1, 4, 24), 0.75)  # var 0 in every row
    offset = rng.normal(size=(2, 5, 24)) + np.array([[[1e6]], [[-3e8]]])
    return [
        rng.normal(size=(1, 128, 32)),
        rng.normal(size=(4, 128, 32)) * 3.0 + 0.5,
        constant,
        offset,
        np.concatenate([constant, offset[:1, :4], rng.normal(size=(1, 9, 24))], axis=1),
    ]


@pytest.mark.parametrize("case", range(5), ids=["b1", "b4", "var0", "offset", "mixed"])
def test_layer_norm_matches_mean_oracle_bitwise(case):
    """add.reduce / d is numpy's mean, and the in-place buffers keep every
    operation and its order."""
    x = layer_norm_inputs()[case]
    rng = np.random.default_rng(13)
    gain, bias = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
    g = rng.normal(size=x.shape)
    tape = ad.Tape()
    out = ad.layer_norm(tape.leaf("x", x), tape.leaf("g", gain), tape.leaf("b", bias))
    (_, dx), (_, dgain), (_, dbias) = tape.entries[-1].backward(g)
    for got, want in zip((out.data, dx, dgain, dbias), oracle_layer_norm(x, gain, bias, g)):
        assert got.shape == want.shape
        assert_same_bits(got, want)


# --- lockstep legs -------------------------------------------------------------


def leg_params(params: ParamSet) -> list[ParamSet]:
    """Three legs of one shape: the weights, a bf16 round trip of them and a
    rescaled copy."""
    from proxprune.robustness import PerturbSpec, perturb

    return [
        params,
        perturb(params, PerturbSpec("bf16-roundtrip")),
        ParamSet((n, a * 1.25) for n, a in params),
    ]


def assert_same_maps(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].shape == want[name].shape
        assert_same_bits(got[name], want[name])


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_legs_smoothed_loss_and_grad_equals_single_leg_calls_bitwise(case, spec):
    from proxprune.params import stack_flat

    model, params, batch = CASES[case]()
    legs = leg_params(params)
    grads, losses = third_step(model, params, batch, spec, stack_flat(legs))
    assert len(grads) == len(losses) == len(legs)
    for leg, g, loss, crit in zip(legs, grads, losses, smoothed_grad(model, legs, batch, spec)):
        (want,), (want_loss,) = third_step(model, leg, batch, spec, leg.flatten()[None])
        assert_same_maps(g, want)
        assert_same_bits(loss, want_loss)
        (want,) = smoothed_grad(model, [leg], batch, spec)
        assert_same_maps(crit, want)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("eta", [None, 0.0, 0.2])
def test_legs_moreau_equals_single_leg_calls_bitwise(case, spec, eta):
    """eta None runs moreau_grad, a number group_sparse_moreau_grad."""
    model, params, batch = CASES[case]()
    legs = leg_params(params)
    if eta is None:
        cfg = MoreauConfig(rho=0.05, gamma=1e-2, steps=3, noise=spec)

        def run(p):
            return moreau_grad(model, p, batch, cfg)
    else:
        cfg = MoreauConfig(rho=0.2, gamma=0.05, steps=3, eta=eta, noise=spec)
        layout = channel_layout(params, model.structures())

        def run(p):
            return group_sparse_moreau_grad(model, p, batch, cfg, layout)

    got = run(legs)
    singles = [run([p]).legs[0] for p in legs]
    assert len(got.legs) == len(legs)
    for res, want in zip(got.legs, singles):
        assert_same_maps(res.mg, want.mg)
        assert_same_bits(res.trace, want.trace)
        assert res.zeroed_groups == want.zeroed_groups
    assert got.trace == list(zip(*(r.trace for r in singles)))
    assert len(got.trace) == cfg.steps
    assert got.zeroed_groups == tuple(g for r in singles for g in r.zeroed_groups)
    if eta == 0.2 and spec.scale > 0:
        assert got.zeroed_groups  # the threshold bites


def test_legs_must_share_names_order_and_shapes():
    from proxprune.params import stack_flat

    params = zoo.Mlp([6, 5, 4]).init_params(1)
    with pytest.raises(ValueError, match="share parameter names, order and shapes"):
        stack_flat([params, zoo.Mlp([6, 3, 4]).init_params(1)])
    with pytest.raises(ValueError, match="share parameter names, order and shapes"):
        stack_flat([params, ParamSet(reversed(list(params)))])
    with pytest.raises(ValueError, match="at least one leg"):
        stack_flat([])


# --- layouts -----------------------------------------------------------------


LAYOUT_CASES = {**CASES, "shrunk-transformer": shrunk_transformer_case}


@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_structure_flat_indices_match_index_grid(case):
    model, params, _ = LAYOUT_CASES[case]()
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


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_structure_flat_indices_on_each_axis_of_a_3d_parameter(axis):
    params = ParamSet([("a", np.zeros((2, 3))), ("t", np.zeros((3, 4, 5))), ("b", np.zeros(7))])
    extent = params["t"].shape[axis]
    for start in range(extent):
        for stop in range(start + 1, extent + 1):
            st = PruneStructure(0, (Slice("t", axis, start, stop), Slice("b", 0, 1, 3)), "x", "channel")
            got = structure_flat_indices(params, st)
            assert got.dtype == np.int64
            assert np.array_equal(got, oracle_structure_flat_indices(params, st))


# --- robustness distance vectors ----------------------------------------------


def oracle_covered_vector(params: ParamSet, structures, values) -> np.ndarray:
    """What robustness distances were once measured over: the sorted
    concatenation of every structure's flat indices, gathered from the
    flattened values."""
    covered = np.sort(np.concatenate([oracle_structure_flat_indices(params, st) for st in structures]))
    return flatten_map(params, values)[covered]


def benchmark_case(model):
    return lambda: (model, model.init_params(0), None)


DISTANCE_CASES = {
    "benchmark-mlp": benchmark_case(zoo.Mlp([1024, 64, 256])),
    "benchmark-transformer": benchmark_case(zoo.TinyTransformer.build(256, 32, 4, 2)),
    "shrunk-transformer": shrunk_transformer_case,
}


@pytest.mark.parametrize("case", DISTANCE_CASES)
def test_prunable_vector_matches_covered_index_oracle_bitwise(case):
    """Zoo structures tile the parameters they slice, so the elements of the
    prunable parameters in ParamSet order are the covered indices in
    ascending order, for the weights and for element scores alike."""
    model, params, _ = DISTANCE_CASES[case]()
    structures = model.structures()
    prunable = {s.param for st in structures for s in st.slices}
    names = [n for n in params.names if n in prunable]
    weights = robustness.perturb(params, robustness.PerturbSpec(kind="bf16-roundtrip"), prunable)
    rng = np.random.default_rng(8)
    scores = element_importance({n: rng.standard_normal(a.shape) for n, a in params}, params)
    for values in (weights, scores):
        want = oracle_covered_vector(params, structures, values)
        assert want.size == sum(params[n].size for n in names)
        assert_same_bits(robustness._prunable_vector(names, values), want)


# --- causal mask -------------------------------------------------------------


def test_causal_mask_is_the_triu_mask_and_read_only():
    for n in (1, 2, 64, 128):
        mask = zoo.causal_mask(n)
        assert_same_bits(mask, np.triu(np.full((n, n), -1e9), k=1))
        with pytest.raises(ValueError, match="read-only"):
            mask[0, -1] = 0.0
        assert zoo.causal_mask(n) is mask


def test_cached_mask_gives_the_uncached_loss_bits(monkeypatch):
    model = zoo.TinyTransformer.build(256, 32, 4, 2)
    params = dict(model.init_params(0))
    rng = np.random.default_rng(14)
    batches = [rng.integers(0, 256, size=(1, n)) for n in (129, 65, 129)]
    zoo.causal_mask.cache_clear()
    cached = [ad.gradient(model.loss, params, b) for b in batches]
    info = zoo.causal_mask.cache_info()
    assert (info.misses, info.currsize) == (2, 2)  # one entry per length
    assert info.maxsize is not None
    monkeypatch.setattr(zoo, "causal_mask", lambda n: np.triu(np.full((n, n), -1e9), k=1))
    for (loss, grads), b in zip(cached, batches):
        want_loss, want = ad.gradient(model.loss, params, b)
        assert_same_bits(loss, want_loss)
        for name in want:
            assert_same_bits(grads[name], want[name])


@pytest.mark.parametrize(
    "model", [zoo.Mlp([6, 5, 4]), zoo.TinyTransformer.build(256, 32, 4, 2)], ids=["mlp", "transformer"]
)
def test_prune_model_matches_take_oracle(model):
    """Random prune sets that leave every block at least one structure."""
    params = model.init_params(0)
    rng = np.random.default_rng(9)
    blocks = {}
    for st in model.structures():
        blocks.setdefault(st.block, []).append(st.id)
    for _ in range(5):
        prune_set = tuple(sorted(
            sid for ids in blocks.values()
            for sid in rng.choice(ids, size=rng.integers(0, len(ids)), replace=False)
        ))
        _, got = prune_model(model, params, prune_set)
        want = oracle_pruned_params(model, params, prune_set)
        assert got.shapes() == want.shapes()
        for (_, a), (_, b) in zip(got, want):
            assert_same_bits(a, b)


class TestGroupLayoutChecks:
    def test_duplicates_inside_one_subset_are_accepted(self):
        lay = GroupLayout([[1, 0, 1], [3, 2, 3]], labels=[0, 1], size=4)
        assert len(lay) == 2

    def test_overlap_across_subsets_rejected(self):
        with pytest.raises(ValueError, match="must be disjoint"):
            GroupLayout([[0, 1], [4], [5, 1]], labels=[0, 1, 2], size=6)
        with pytest.raises(ValueError, match="must be disjoint"):
            GroupLayout([[3, 3], [3]], labels=[0, 1], size=4)

    def test_overlap_names_both_labels_and_the_shared_index(self):
        with pytest.raises(ValueError, match="must be disjoint: 'a' and 'c' share index 1$"):
            GroupLayout([[0, 1], [4], [5, 1], [4]], labels=["a", "b", "c", "d"], size=6)

    def test_index_at_or_above_size_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            GroupLayout([[0, 1], [4]], labels=[0, 1], size=4)
        GroupLayout([[0, 1], [3]], labels=[0, 1], size=4)

    def test_overlap_is_reported_before_range(self):
        with pytest.raises(ValueError, match="must be disjoint"):
            GroupLayout([[9], [9]], labels=[0, 1], size=4)

    def test_empty_layouts_are_fine(self):
        assert len(GroupLayout([], labels=[], size=5)) == 0
        assert len(GroupLayout([], labels=[], size=0)) == 0
        assert len(GroupLayout([[], []], labels=[0, 1], size=0)) == 2

    def test_channel_layout_covers_each_structure(self):
        model, params, _ = transformer_case()
        lay = channel_layout(params, model.structures())
        assert lay.labels == [st.id for st in model.structures()]
        for s, st in zip(lay.subsets, model.structures()):
            assert np.array_equal(s, oracle_structure_flat_indices(params, st))
