"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""
import json
import math
import time

import numpy as np
import pytest

from proxprune import autodiff as ad
from proxprune import cli, data, importance, moreau, robustness, zoo
from proxprune.moreau import GroupLayout, MoreauConfig, channel_layout
from proxprune.robustness import PerturbSpec
from proxprune.smoothing import NoiseSpec, smoothed_grad

import oracles

EXACT = NoiseSpec(scale=0.0, m=1, seed=0)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_01_gradient_correctness(corpus):
    t0 = time.time()
    model = zoo.Mlp([4, 8, 3])
    params = model.init_params(7)
    rng = np.random.default_rng(0)
    batch = (rng.uniform(-1, 1, size=(6, 4)), rng.integers(0, 3, size=6))
    rep_mlp = oracles.grad_check(model.loss, dict(params), batch, step=1e-5,
                                 tolerance=1e-5, n_coords=50, seed=1)
    assert rep_mlp.max_rel_err < 1e-5, rep_mlp.per_param_max

    tmodel = zoo.TinyTransformer.build(32, 16, 4, 2, max_len=16)
    tparams = tmodel.init_params(3)
    ids = rng.integers(0, 32, size=(2, 10))
    rep_tr = oracles.grad_check(tmodel.loss, dict(tparams), ids, step=1e-5,
                                tolerance=1e-5, n_coords=50, seed=2)
    assert rep_tr.max_rel_err < 1e-5, rep_tr.per_param_max
    elapsed = time.time() - t0
    assert elapsed < 30, f"took {elapsed:.1f}s"
    report(1, f"autodiff vs central differences: mlp err {rep_mlp.max_rel_err:.2e}, "
              f"transformer err {rep_tr.max_rel_err:.2e} ({elapsed:.1f}s)")


def test_02_moreau_oracle_equivalence():
    t0 = time.time()
    cases = [
        ("quadratic", oracles.Quadratic(), np.array([2.0, -4.0, 0.7]), 1.0),
        ("linear", oracles.Linear([1.0, -2.0, 0.5]), np.array([0.3, 0.1, -0.2]), 0.1),
        # scaled-abs points sit outside the kink basin (|w| > rho*beta): a
        # fixed-step subgradient loop cannot settle below ~gamma*beta inside it
        ("scaled-abs", oracles.ScaledAbs(1.0), np.array([2.0, -3.0, 1.2]), 0.5),
    ]
    for fid, obj, w, rho in cases:
        cfg = MoreauConfig(rho=rho, gamma=rho / 4, steps=200, noise=EXACT)
        (res,) = moreau.moreau_grad(obj, [oracles.wrap(w)], None, cfg).legs
        prox, grad = obj.prox(w, rho)
        assert np.max(np.abs(w + rho * res.mg["w"] - prox)) < 1e-5, fid
        assert np.max(np.abs(np.abs(res.mg["w"]) - np.abs(grad))) < 1e-5, fid
    elapsed = time.time() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(2, f"convergence-mode loop matches closed-form prox/gradient "
              f"magnitudes on all three test functions ({elapsed:.1f}s)")


SIGMA, RHO_PROBE, BETA = 0.5, 0.2, 1.0
PROBE_BOUND = SIGMA / min(SIGMA * RHO_PROBE, SIGMA - RHO_PROBE * BETA)  # = 5.0
N_PAIRS, REPS, T_PROBE, M_PROBE = 100, 10, 40, 8


def _probe_pairs(rng, dim):
    """Random endpoint pairs with a minimum separation of 0.25 so the ratio
    measures the operator rather than Monte Carlo noise."""
    a = rng.uniform(-2, 2, size=(N_PAIRS, dim))
    b = rng.uniform(-2, 2, size=(N_PAIRS, dim))
    for i in range(N_PAIRS):
        while np.linalg.norm(a[i] - b[i]) < 0.25:
            b[i] = rng.uniform(-2, 2, size=dim)
    return a, b


def _batched_mg(wvec, seed, eta=0.0, layout=None):
    """One envelope-gradient estimate of sum_j |w_j| for every coordinate at
    once; the objective separates, so this equals independent scalar runs."""
    noise = NoiseSpec(scale=SIGMA, m=M_PROBE, seed=seed, mode="absolute")
    if layout is None:
        cfg = MoreauConfig(rho=RHO_PROBE, gamma=RHO_PROBE / 4, steps=T_PROBE, noise=noise)
        res = moreau.moreau_grad(oracles.ScaledAbs(BETA), [oracles.wrap(wvec)], None, cfg)
    else:
        cfg = MoreauConfig(rho=RHO_PROBE, gamma=RHO_PROBE / 4, steps=T_PROBE, eta=eta, noise=noise)
        res = moreau.group_sparse_moreau_grad(
            oracles.ScaledAbs(BETA), [oracles.wrap(wvec)], None, cfg, layout)
    return res.legs[0].mg["w"]


def _probe(dim, seed0, eta=0.0, grouped=False):
    rng = np.random.default_rng(seed0)
    a, b = _probe_pairs(rng, dim)
    wvec = np.concatenate([a.reshape(-1), b.reshape(-1)])
    n = wvec.size
    layout = GroupLayout([[i] for i in range(n)], labels=range(n), size=n) if grouped else None
    estimates = np.stack([
        _batched_mg(wvec, seed=seed0 + 1 + r, eta=eta, layout=layout) for r in range(REPS)
    ])
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(REPS)
    half = N_PAIRS * dim
    mg_a, mg_b = mean[:half].reshape(N_PAIRS, dim), mean[half:].reshape(N_PAIRS, dim)
    se_a, se_b = se[:half].reshape(N_PAIRS, dim), se[half:].reshape(N_PAIRS, dim)
    dw = np.linalg.norm(a - b, axis=1)
    slack = 3.0 * np.sqrt((se_a**2 + se_b**2).sum(axis=1)) / dw

    table = {}
    for i in range(N_PAIRS):
        table[a[i].tobytes()] = mg_a[i]
        table[b[i].tobytes()] = mg_b[i]
    pairs = [(a[i], b[i]) for i in range(N_PAIRS)]
    return oracles.lipschitz_probe(lambda w: table[w.tobytes()], pairs, PROBE_BOUND, slack=slack)


def test_03_lipschitz_probe_plain():
    t0 = time.time()
    probe = _probe(dim=1, seed0=123)
    assert probe.passed, f"max adjusted ratio {probe.max_adjusted:.3f} > {PROBE_BOUND}"
    elapsed = time.time() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(3, f"plain envelope gradient: max ratio {probe.max_ratio:.3f} "
              f"(adjusted {probe.max_adjusted:.3f}) <= bound {PROBE_BOUND} over "
              f"{N_PAIRS} pairs ({elapsed:.1f}s)")


def test_04_lipschitz_probe_group_sparse():
    t0 = time.time()
    probe = _probe(dim=2, seed0=321, eta=1e-3, grouped=True)
    assert probe.passed, f"max adjusted ratio {probe.max_adjusted:.3f} > {PROBE_BOUND}"
    elapsed = time.time() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(4, f"group-sparse envelope gradient (eta=1e-3, 2 groups): max ratio "
              f"{probe.max_ratio:.3f} (adjusted {probe.max_adjusted:.3f}) <= bound "
              f"{PROBE_BOUND} ({elapsed:.1f}s)")


def test_05_gst_property_suite():
    t0 = time.time()
    lay2 = GroupLayout([[0, 1]], labels=[0], size=2)
    # threshold-zeroing branch
    assert np.array_equal(
        moreau.group_soft_threshold(np.array([0.3, 0.0]), lay2, 0.5), np.zeros(2))
    # scaling branch, hand-evaluated
    assert np.allclose(
        moreau.group_soft_threshold(np.array([3.0, 4.0]), lay2, 2.5), [1.5, 2.0],
        atol=1e-15)
    # alpha = 0 identity
    rng = np.random.default_rng(5)
    v = rng.normal(size=2)
    assert np.array_equal(moreau.group_soft_threshold(v, lay2, 0.0), v)
    # non-expansiveness over 1000 random pairs, exact up to 1e-12
    lay = GroupLayout([[0, 1, 2], [3, 4], [5, 6, 7, 8]], labels=[0, 1, 2], size=9)
    for _ in range(1000):
        u, w = rng.normal(size=9), rng.normal(size=9)
        alpha = rng.uniform(0, 2)
        lhs = np.linalg.norm(
            moreau.group_soft_threshold(u, lay, alpha)
            - moreau.group_soft_threshold(w, lay, alpha))
        assert lhs <= np.linalg.norm(u - w) + 1e-12
    # boundary continuity at the threshold
    direction = np.array([0.6, 0.8])
    for alpha in (0.5, 1.0, 7.0):
        lo = moreau.group_soft_threshold(direction * alpha * (1 - 1e-9), lay2, alpha)
        hi = moreau.group_soft_threshold(direction * alpha * (1 + 1e-9), lay2, alpha)
        assert np.linalg.norm(hi - lo) <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 5, f"took {elapsed:.1f}s"
    report(5, f"group-soft-threshold properties all hold ({elapsed:.1f}s)")


ETA_GRID = (0.0, 1e-6, 5e-6, 1e-4, 1e-2)


def test_06_group_sparsity_monotonicity(trained_mlp, corpus):
    t0 = time.time()
    model, params = trained_mlp
    batch, _ = data.make_batch(model, corpus, 10, seed=(0, 0, 0))
    layout = channel_layout(params, model.structures())
    counts = []
    for eta in ETA_GRID:
        cfg = MoreauConfig(rho=0.2, gamma=2e-4, steps=10, eta=eta,
                           noise=NoiseSpec(scale=0.05, m=4, seed=3))
        (res,) = moreau.group_sparse_moreau_grad(model, [params], batch, cfg, layout).legs
        counts.append(len(res.zeroed_groups))
    assert counts == sorted(counts), f"not monotone: {counts}"
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(6, f"zeroed-group counts over eta grid {counts} are non-decreasing "
              f"({elapsed:.1f}s)")


def test_07_dead_channel_invariance():
    model = zoo.Mlp([4, 8, 3])
    params = model.init_params(7)
    structures = model.structures()
    dead = 5
    params["w0"][:, dead] = 0.0
    params["b0"][dead] = 0.0
    params["w1"][dead, :] = 0.0
    elem = importance.element_importance({n: np.ones_like(a) for n, a in params}, params)
    struct_scores = importance.structure_importance(elem, structures)
    assert struct_scores[dead] == 0.0  # exactly zero
    pruned_model, pruned_params = importance.prune_model(model, params, (dead,))
    X = np.random.default_rng(17).uniform(-1, 1, size=(100, 4))
    before = model.logits({n: ad.Tensor(a) for n, a in params}, X).data
    after = pruned_model.logits({n: ad.Tensor(a) for n, a in pruned_params}, X).data
    worst = float(np.max(np.abs(before - after)))
    assert worst <= 1e-12
    report(7, f"pruning a constructed dead channel moves 100 outputs by {worst:.2e} "
              f"and its structure importance is exactly 0")


def test_08_format_robustness_directional(corpus):
    """Desk-scale consistency experiment: on a sharpened model the envelope
    criterion's fp16-vs-bf16 discrepancy must not exceed the plain
    gradient's, on at least 4 of 5 seeds."""
    t0 = time.time()
    model = zoo.Mlp([4 * 256, 16, 256])
    params = model.init_params(7)
    batches = [data.make_batch(model, corpus, 16, seed=(7, 1, i))[0] for i in range(10)]
    params, _ = zoo.recover_finetune(model, params, batches, epochs=1, lr=0.1)
    sharp = params.copy()
    sharp["w1"][:] *= 50.0  # sharpen the loss landscape
    wins = 0
    lines = []
    for seed in range(5):
        batch, _ = data.make_batch(model, corpus, 32, seed=(seed, 0, 0))
        mcfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=10,
                            noise=NoiseSpec(scale=0.05, m=48, seed=seed))
        plain, env = robustness.consistency_experiment(
            model, sharp, batch, ("plain", "moreau"),
            PerturbSpec(kind="bf16-roundtrip"), ratio=0.2,
            baseline_spec=PerturbSpec(kind="fp16-roundtrip"), settings={"moreau": mcfg})
        ok = (env.importance_rel <= plain.importance_rel
              and env.symdiff <= plain.symdiff)
        wins += ok
        lines.append(f"seed {seed}: plain(rel={plain.importance_rel:.4f}, "
                     f"sym={plain.symdiff}) moreau(rel={env.importance_rel:.4f}, "
                     f"sym={env.symdiff}) -> {'ok' if ok else 'MISS'}")
    elapsed = time.time() - t0
    for line in lines:
        print("   ", line)
    assert wins >= 4, f"directional claim held on only {wins}/5 seeds"
    assert elapsed < 600, f"took {elapsed:.1f}s"
    report(8, f"envelope criterion at least as format-stable as plain gradient "
              f"on {wins}/5 seeds ({elapsed:.1f}s)")


def test_09_reduction_chain(corpus):
    model = zoo.Mlp([4 * 256, 8, 256])
    params = model.init_params(2)
    batch, _ = data.make_batch(model, corpus, 6, seed=(1, 0, 0))

    # (a) smoothing with m=1, scale=0 is bit-identical to the plain gradient
    _, plain = ad.gradient(model.loss, dict(params), batch)
    (smooth,) = smoothed_grad(model, [params], batch, NoiseSpec(scale=0.0, m=1, seed=9))
    assert set(plain) == set(smooth)
    for n in plain:
        assert np.array_equal(plain[n], smooth[n]), n

    # (b) one step with vanishing gamma moves nothing
    cfg = MoreauConfig(rho=0.05, gamma=1e-15, steps=1, noise=NoiseSpec(scale=0.0, m=1, seed=0))
    (res,) = moreau.moreau_grad(model, [params], batch, cfg).legs
    assert max(float(np.max(np.abs(g))) for g in res.mg.values()) < 1e-9

    # (c) group-sparse with eta=0 matches plain mode bit-for-bit under shared seeds
    noise = NoiseSpec(scale=0.05, m=3, seed=11)
    layout = channel_layout(params, model.structures())
    (r_plain,) = moreau.moreau_grad(
        model, [params], batch, MoreauConfig(rho=0.05, gamma=1e-3, steps=5, noise=noise)).legs
    (r_gs,) = moreau.group_sparse_moreau_grad(
        model, [params], batch,
        MoreauConfig(rho=0.05, gamma=1e-3, steps=5, eta=0.0, noise=noise),
        layout).legs
    for n in r_plain.mg:
        assert np.array_equal(r_plain.mg[n], r_gs.mg[n]), n
    report(9, "reduction chain holds: smooth(m=1,s=0) == plain bit-exact, "
              "moreau(T=1, gamma->0) -> 0, moreau-gs(eta=0) == moreau bit-exact")


def test_10_pipeline_reproducibility(tmp_path, corpus_file):
    cfg_lines = f"""
[run]
seed = 7
out = {tmp_path / "train"}

[model]
kind = mlp
context = 4
hidden = 12

[data]
corpus = {corpus_file}

[train]
epochs = 1
lr = 0.5
batch_size = 16
steps_per_epoch = 8

[moreau]
steps = 5

[noise]
m = 2
"""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(cfg_lines)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "train" / "model.ckpt"
    for out in ("a", "b"):
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--criterion", "moreau-gs", "--ratio", "0.2",
                       "--out", str(tmp_path / out)])
        assert rc == 0
    identical = []
    for name in ("pruned.ckpt", "importance.json", "importance.csv"):
        same = (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        identical.append(same)
        assert same, f"{name} differs between reruns"
    report(10, "two identical prune commands produced byte-identical checkpoint, "
               "JSON report and CSV report")
