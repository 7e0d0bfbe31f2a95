"""Noise draws are keyed by (seed, step, draw index). A Monte Carlo loop
makes each of its draws on the thread that evaluates it, into its one draw
buffer. These tests pin what that must keep: each draw is made once per
criterion however many legs evaluate it, every draw runs on the main thread
while no other thread does, no call starts a thread, every noisy point is
formed from its keyed draw, and an error inside a draw reaches the caller as
it was raised. Every loop here runs in this process: the host check is
forced to fail, so that neither a draw helper nor a criterion helper is
forked (tests/test_helper.py covers both).
"""
import sys
import threading
import tracemalloc
from collections import Counter
from contextlib import closing

import numpy as np
import pytest

from proxprune import checkpoint, cli, data, moreau, smoothing, zoo
from proxprune.moreau import MoreauConfig
from proxprune.robustness import PerturbSpec, consistency_experiment
from proxprune.params import unflatten_map
from proxprune.smoothing import NoiseSpec

import oracles


@pytest.fixture(autouse=True)
def no_helper(monkeypatch):
    monkeypatch.setattr(smoothing, "_spare_cpu", lambda: False)


@pytest.fixture()
def draw_log(monkeypatch):
    """Record (step, draw index, on the main thread) of every draw made."""
    log = []
    real = smoothing._draw

    def logged(spec, draw_index, step, out):
        log.append((step, draw_index, threading.current_thread() is threading.main_thread()))
        real(spec, draw_index, step, out)

    monkeypatch.setattr(smoothing, "_draw", logged)
    return log


def on_main(log) -> bool:
    """Whether every draw of the log ran on the main thread."""
    return all(main for _, _, main in log)


@pytest.fixture()
def thread_starts(monkeypatch):
    """The name of every thread started while the test runs."""
    started = []
    real = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def benchmark_sized_settings():
    """The criteria settings of the benchmark's mlp-robustness workload."""
    noise = NoiseSpec(scale=0.05, m=2, seed=0)
    return {
        "smooth": NoiseSpec(scale=0.05, m=12, seed=0),
        "moreau": MoreauConfig(rho=0.05, gamma=1e-3, steps=10, noise=noise),
        "moreau-gs": MoreauConfig(rho=0.2, gamma=2e-4, steps=10, eta=5e-6, noise=noise),
    }


def test_consistency_experiment_draws_each_key_once_per_criterion(corpus, draw_log):
    model = zoo.Mlp([data.mlp_feature_width(4), 8, data.VOCAB])
    params = model.init_params(5)
    batch, _ = data.make_batch(model, corpus, 6, seed=(3, 0, 0))
    consistency_experiment(
        model, params, batch, ("plain", "smooth", "moreau", "moreau-gs"),
        PerturbSpec("bf16-roundtrip"), 0.25,
        baseline_spec=PerturbSpec("fp16-roundtrip"), settings=benchmark_sized_settings(),
    )
    smooth = [(0, i) for i in range(12)]
    loop = [(t, i) for t in range(10) for i in range(2)]
    assert len(draw_log) == 52  # two legs once drew 104
    assert Counter((t, i) for t, i, _ in draw_log) == Counter(smooth + loop + loop)
    assert on_main(draw_log)


def test_a_loops_first_draw_runs_while_no_other_thread_does(monkeypatch):
    counts = []
    real = smoothing._draw

    def counted(spec, draw_index, step, out):
        counts.append(threading.active_count())
        real(spec, draw_index, step, out)

    monkeypatch.setattr(smoothing, "_draw", counted)
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.1, m=2, seed=0))
    moreau.moreau_grad(oracles.Quadratic(), [oracles.wrap([1.0, -2.0])], None, cfg)
    assert counts == [1] * 6


@pytest.mark.parametrize("m", [2, 3, 8])
def test_a_one_step_loop_starts_no_thread(draw_log, thread_starts, m):
    spec = NoiseSpec(scale=0.1, m=m, seed=0)
    smoothing.smoothed_grad(oracles.Quadratic(), [oracles.wrap([1.0, -2.0])], None, spec)
    assert draw_log == [(0, i, True) for i in range(m)]
    assert thread_starts == []


def test_a_three_step_proximal_loop_starts_no_thread(draw_log, thread_starts):
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.1, m=2, seed=0))
    moreau.moreau_grad(oracles.Quadratic(), [oracles.wrap([1.0, -2.0])], None, cfg)
    assert draw_log == [(t, i, True) for t in range(3) for i in range(2)]
    assert thread_starts == []


class Recorder(oracles.Quadratic):
    """A quadratic that keeps a copy of every point it is evaluated at."""

    def __init__(self):
        self.points = []

    def loss(self, p, batch):
        self.points.append(p["w"].data.copy())
        return super().loss(p, batch)


def keyed_points(spec, w, steps):
    """The noisy point of every draw of a loop of these many steps at every
    leg, in order, from the keyed draws: |w|, *= s, *= z, += w, as a loop
    forms them."""
    for t in range(steps):
        for i in range(spec.m):
            z = np.random.default_rng((spec.seed, t, i)).standard_normal(w.shape[1])
            for wj in w:
                yield np.abs(wj) * spec.scale * z + wj


def run_loop(model, spec, w, steps):
    """Step a loop of these many steps over the legs w to its end."""
    out = np.empty(w.shape)
    with closing(smoothing.MonteCarloLoop(model, oracles.wrap(w[0]), None, spec, steps)) as loop:
        for _ in range(steps):
            smoothing.smoothed_loss_and_grad(loop, w, out)


def test_buffer_is_not_refilled_while_the_consumer_reads_it(draw_log):
    spec = NoiseSpec(scale=0.1, m=4, seed=3)
    rng = np.random.default_rng(0)
    w = rng.standard_normal((2, 1000))
    model = Recorder()
    run_loop(model, spec, w, 3)
    assert len(draw_log) == 12 and on_main(draw_log)
    want = list(keyed_points(spec, w, 3))
    assert len(model.points) == len(want) == 24
    assert all(np.array_equal(got, exp) for got, exp in zip(model.points, want))


def test_concurrent_consumers_read_the_keyed_bytes_under_fast_switching():
    """Four six-step loops at once, each on its own thread (four threads on
    fewer cores), switching every microsecond: every noisy point must come
    from the keyed draw, which a loop that shared a buffer with another, or
    refilled its own during a read, would break."""
    spec = NoiseSpec(scale=0.1, m=8, seed=11)
    w = np.random.default_rng(1).standard_normal((2, 500))
    want = list(keyed_points(spec, w, 6))
    bad = []

    def consume():
        model = Recorder()
        run_loop(model, spec, w, 6)
        if not (
            len(model.points) == len(want)
            and all(np.array_equal(got, exp) for got, exp in zip(model.points, want))
        ):
            bad.append(model.points)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume) for _ in range(4)]
        for c in consumers:
            c.start()
        for c in consumers:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in consumers)
    assert bad == []


def test_draw_error_is_raised_by_the_take_of_that_draw(monkeypatch):
    boom = ValueError("draw 2 failed")
    real = smoothing._draw
    on_main_thread = []

    def failing(spec, draw_index, step, out):
        if draw_index == 2:
            on_main_thread.append(threading.current_thread() is threading.main_thread())
            raise boom
        real(spec, draw_index, step, out)

    monkeypatch.setattr(smoothing, "_draw", failing)
    before = threading.active_count()
    spec = NoiseSpec(scale=0.1, m=3, seed=0)
    with pytest.raises(ValueError) as exc:
        smoothing.smoothed_grad(oracles.Quadratic(), [oracles.wrap([1.0, -2.0])], None, spec)
    assert on_main_thread == [True]
    assert exc.value is boom
    assert threading.active_count() == before


def test_taking_past_the_last_key_raises_instead_of_waiting():
    """Stepping a loop past its last step raises, at m 2 and at m 3."""
    w = np.array([[1.0, -2.0]])
    params = oracles.wrap(w[0])
    for m in (2, 3):
        spec = NoiseSpec(scale=0.1, m=m, seed=0)
        means = [unflatten_map(params, np.empty(2))]
        loop = smoothing.MonteCarloLoop(oracles.Quadratic(), params, None, spec, 1)
        with closing(loop):
            loop.step(w, means)
            with pytest.raises(IndexError, match="all 1 steps were taken"):
                loop.step(w, means)


def test_a_loop_is_built_in_constant_memory_whatever_its_draw_count():
    """A loop derives each draw's (step, draw) key from the draw's index, so
    one of 10 steps of 10**9 draws each allocates no more than a small one."""
    params = oracles.wrap(np.array([1.0, -2.0]))
    spec = NoiseSpec(scale=0.1, m=10**9, seed=0)
    tracemalloc.start()
    try:
        loop = smoothing.MonteCarloLoop(oracles.Quadratic(), params, None, spec, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    loop.close()
    assert peak < 1 << 20


def test_error_inside_a_draw_reaches_the_caller_unchanged(corpus, draw_log, monkeypatch):
    model = zoo.Mlp([data.mlp_feature_width(4), 8, data.VOCAB])
    params = model.init_params(5)
    batch, _ = data.make_batch(model, corpus, 6, seed=(3, 0, 0))
    boom = RuntimeError("draw failed")
    real = smoothing._draw

    def failing(spec, draw_index, step, out):
        if (step, draw_index) == (3, 1):
            raise boom
        real(spec, draw_index, step, out)

    monkeypatch.setattr(smoothing, "_draw", failing)
    before = threading.active_count()
    cfg = benchmark_sized_settings()["moreau"]
    with pytest.raises(RuntimeError) as exc:
        moreau.moreau_grad(model, [params, params.copy()], batch, cfg)
    assert exc.value is boom
    assert len(draw_log) == 7 and on_main(draw_log)  # steps 0-2 and draw 0 of step 3
    assert threading.active_count() == before


class ExplodesOnCall:
    """An objective whose gradient turns non-finite from its n-th evaluation."""

    def __init__(self, n):
        self.n, self.calls = n, 0

    def loss(self, p, batch):
        from proxprune import autodiff as ad

        self.calls += 1
        scale = 1e300 if self.calls >= self.n else 1.0
        big = ad.multiply(p["w"], scale)
        return oracles.sum_all(ad.multiply(big, big))


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_smoothing_error_mid_loop_leaves_no_thread(draw_log):
    before = threading.active_count()
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=10, noise=NoiseSpec(scale=0.1, m=2, seed=0))
    obj = ExplodesOnCall(7)  # step 3, draw 0
    with pytest.raises(smoothing.SmoothingError) as exc:
        moreau.moreau_grad(obj, [oracles.wrap([1e5, 2.0])], None, cfg)
    assert exc.value.draw_index == 0
    assert len(draw_log) == 7 and on_main(draw_log)
    assert threading.active_count() == before


class Concave:
    """-50 * ||w||^2: each proximal step below multiplies v by about 1.8."""

    def loss(self, p, batch):
        from proxprune import autodiff as ad

        return ad.multiply(oracles.sum_all(ad.multiply(p["w"], p["w"])), -50.0)


def test_a_divergence_error_mid_loop_leaves_no_thread(draw_log):
    before = threading.active_count()
    cfg = MoreauConfig(
        rho=0.05, gamma=0.01, steps=40, eta=1e-3, noise=NoiseSpec(scale=0.1, m=3, seed=0)
    )
    with pytest.raises(moreau.DivergenceError) as exc:
        moreau.group_sparse_moreau_grad(
            Concave(), [oracles.wrap([1.0, 1.0, 1.0]), oracles.wrap([1.0, 2.0, 1.0])], None,
            cfg, moreau.GroupLayout([[0, 1]], labels=[0], size=3),
        )
    assert 0 < exc.value.step < cfg.steps - 1
    assert len(draw_log) == 3 * (exc.value.step + 1) and on_main(draw_log)
    assert threading.active_count() == before


def test_worker_threads_end_when_prune_and_robustness_return(tmp_path, corpus_file, draw_log):
    model = zoo.Mlp([data.mlp_feature_width(4), 8, data.VOCAB])
    ckpt = tmp_path / "model.ckpt"
    checkpoint.save(ckpt, model.arch(), model.init_params(3), model.structures(), model.groups())
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[data]\ncalib_size = 4\nholdout_size = 2\n"
        "[moreau]\nsteps = 3\n[noise]\nm = 2\nsmooth_m = 3\n"
        "[robustness]\nspecs = fp16:bf16\ncriteria = plain,smooth,moreau,moreau-gs\n"
    )
    base = ["--config", str(ini), "--corpus", str(corpus_file), "--checkpoint", str(ckpt)]
    before = threading.active_count()
    for command, extra in (("prune", ["--criterion", "moreau-gs"]), ("robustness", [])):
        assert cli.main([command, *base, *extra, "--out", str(tmp_path / command)]) == 0
        assert threading.active_count() == before
    # prune: one moreau-gs loop; robustness: smooth, moreau, moreau-gs
    assert len(draw_log) == 6 + 3 + 6 + 6 and on_main(draw_log)
