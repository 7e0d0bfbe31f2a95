"""Bit-exact oracles for the allocation-lean hot loops.

The Monte Carlo loop, the proximal loop, gelu, softmax (with attention's
scale and causal mask folded in) and the cross-entropy adjoint run in place
on flat buffers, and physical pruning deletes each parameter's slices in one
call. Each is pinned here, bit for bit (uint64 views), against the
straightforward formulation it replaced, kept below as the oracle. The oracles are test code only; the package has one runtime path.
"""
import math

import numpy as np
import pytest

from proxprune import autodiff as ad
from proxprune import zoo
from proxprune.importance import prune_model
from proxprune.moreau import (
    GroupLayout,
    MoreauConfig,
    channel_layout,
    group_sparse_moreau_grad,
    moreau_grad,
)
from proxprune.params import ParamSet, flatten_map, structure_flat_indices
from proxprune.smoothing import NoiseSpec, smoothed_grad, smoothed_loss_and_grad

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


# --- Monte Carlo and proximal loops ------------------------------------------


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_smoothed_loss_and_grad_matches_oracle_bitwise(case, spec):
    model, params, batch = CASES[case]()
    (grads,), (loss,) = smoothed_loss_and_grad(
        model, params, batch, spec, step=2, w=params.flatten()[None]
    )
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


def test_softmax_matches_oracle_bitwise():
    rng = np.random.default_rng(12)
    scores, mask = causal_scores(rng)
    x = scores + mask  # causal mask rows
    g = rng.normal(size=x.shape)
    g[1, 2, 3, :] = 0.0
    want_out, want_dx = oracle_softmax(x, g)
    for op in (ad.softmax, lambda t: ad.softmax(t, 1.0, None)):
        out, dx = adjoint(op, x, g)
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
    for x, scale, m in ((rows, 1.0, None), (scores, 1.0 / math.sqrt(8), mask)):
        g = rng.normal(size=x.shape)
        out, dx = adjoint(lambda t: ad.softmax(t, scale, m), x, g)
        z = x * scale if m is None else x * scale + m
        want_out, want_dx = oracle_softmax(z, g)
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
        return oracles.sum_all(ad.multiply(ad.softmax(z), weights))

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
    grads, losses = smoothed_loss_and_grad(model, params, batch, spec, step=2, w=stack_flat(legs))
    assert len(grads) == len(losses) == len(legs)
    for leg, g, loss, crit in zip(legs, grads, losses, smoothed_grad(model, legs, batch, spec, 2)):
        (want,), (want_loss,) = smoothed_loss_and_grad(
            model, leg, batch, spec, step=2, w=leg.flatten()[None]
        )
        assert_same_maps(g, want)
        assert_same_maps(crit, want)
        assert_same_bits(loss, want_loss)


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
        assert lay.indices.tolist() == [0, 1, 1, 2, 3, 3]

    def test_overlap_across_subsets_rejected(self):
        with pytest.raises(ValueError, match="must be disjoint"):
            GroupLayout([[0, 1], [4], [5, 1]], labels=[0, 1, 2], size=6)
        with pytest.raises(ValueError, match="must be disjoint"):
            GroupLayout([[3, 3], [3]], labels=[0, 1], size=4)

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
        assert GroupLayout([], labels=[], size=0).indices.size == 0

    def test_channel_layout_covers_each_structure(self):
        model, params, _ = transformer_case()
        lay = channel_layout(params, model.structures())
        assert lay.labels == [st.id for st in model.structures()]
        for s, st in zip(lay.subsets, model.structures()):
            assert np.array_equal(s, oracle_structure_flat_indices(params, st))
        assert np.array_equal(lay.indices, np.sort(np.concatenate(lay.subsets)))
