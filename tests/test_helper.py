"""A Monte Carlo loop may fork one helper process that evaluates the odd draws
of every step. These tests force the host check to pass, which lets every
loop of two draws or more fork, or to fail, which lets none, and require
bitwise equal results; they also pin when a loop forks, the rule of one
helper per process tree, and every way a helper can fail or a loop can end
early.
"""
import json
import mmap
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from proxprune import autodiff as ad
from proxprune import checkpoint, cli, data, importance, moreau, robustness, smoothing, zoo
from proxprune.moreau import MoreauConfig
from proxprune.params import stack_flat
from proxprune.smoothing import MonteCarloLoop, NoiseSpec, smoothed_grad, smoothed_loss_and_grad

import oracles

ROOT = Path(__file__).resolve().parents[1]

@pytest.fixture()
def forks(monkeypatch):
    """The pids of every helper forked while the test runs."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def helper_on(monkeypatch, on: bool) -> None:
    """Let every loop of two draws or more, and every robustness experiment
    with two Monte Carlo criteria or more, fork a helper, or none: the suite
    may run beside a threaded BLAS, where the real host check refuses, or
    with BLAS on one thread, where it passes."""
    monkeypatch.setattr(smoothing, "_spare_cpu", lambda: on)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(scope="module")
def transformer(corpus):
    model = zoo.TinyTransformer.build(data.VOCAB, 8, 2, 1, max_len=16)
    params = model.init_params(4)
    batch, _ = data.make_batch(model, corpus, 2, seed=(5, 0, 0), seq_len=16)
    return model, [params, params.unflatten(params.flatten() * 1.01)], batch


def flat_bytes(maps, like) -> bytes:
    return b"".join(np.ascontiguousarray(m[name]).tobytes() for m in maps for name in like.names)


def both_ways(monkeypatch, forks, run):
    """run() with the helper off, then forced on: (off, on, helpers forked)."""
    helper_on(monkeypatch, False)
    off = run()
    assert forks == []
    helper_on(monkeypatch, True)
    on = run()
    return off, on, len(forks)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_smoothed_loss_and_grad_is_bitwise_equal_with_a_helper(
    transformer, monkeypatch, forks, m, k
):
    """Every step of a three-step loop, whose last draws are keyed by step 2."""
    model, legs, batch = transformer
    spec = NoiseSpec(scale=0.05, m=m, seed=3)
    w = stack_flat(legs[:k])

    def run():
        steps, out = [], np.empty(w.shape)
        with closing(MonteCarloLoop(model, legs[0], batch, spec, 3)) as loop:
            for _ in range(3):
                means, losses = smoothed_loss_and_grad(loop, w, out)
                steps.append((flat_bytes(means, legs[0]), losses))
        return steps

    off, on, n = both_ways(monkeypatch, forks, run)
    assert on == off
    assert n == (m > 1)  # one draw leaves nothing for a helper


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_moreau_grad_is_bitwise_equal_with_a_helper(transformer, monkeypatch, forks, m):
    model, legs, batch = transformer
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.05, m=m, seed=1))

    def run():
        out = moreau.moreau_grad(model, legs, batch, cfg)
        return [(flat_bytes([r.mg], legs[0]), r.trace) for r in out.legs]

    off, on, n = both_ways(monkeypatch, forks, run)
    assert on == off
    assert n == (m > 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_group_sparse_moreau_grad_is_bitwise_equal_with_a_helper(
    transformer, monkeypatch, forks, m
):
    model, legs, batch = transformer
    layout = moreau.channel_layout(legs[0], model.structures())
    noise = NoiseSpec(scale=0.05, m=m, seed=2)
    cfg = MoreauConfig(rho=0.2, gamma=0.02, steps=3, eta=0.05, noise=noise)

    def run():
        out = moreau.group_sparse_moreau_grad(model, legs, batch, cfg, layout)
        per_leg = [(flat_bytes([r.mg], legs[0]), r.trace) for r in out.legs]
        return per_leg, out.zeroed_groups

    off, on, n = both_ways(monkeypatch, forks, run)
    assert on == off
    assert on[1]  # the threshold zeroes some groups, so that path runs too
    assert n == (m > 1)


def test_scale_zero_makes_no_draw_and_forks_no_helper(transformer, monkeypatch, forks):
    """At scale 0 a loop of m 4 is evaluated exactly, so it draws nothing and
    leaves a helper nothing to do, for `smooth` and for a three-step
    `moreau`; `smooth` is then the plain gradient, bit for bit."""
    model, legs, batch = transformer

    def no_draw(*args):
        raise AssertionError("a draw was made at scale 0")

    monkeypatch.setattr(smoothing, "_draw", no_draw)
    helper_on(monkeypatch, True)
    spec = NoiseSpec(scale=0.0, m=4, seed=0)
    for leg, smooth in zip(legs, smoothed_grad(model, legs, batch, spec)):
        _, plain = ad.gradient(model.loss, dict(leg), batch)
        assert list(smooth) == list(plain)
        assert flat_bytes([smooth], leg) == flat_bytes([plain], leg)
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=spec)
    out = moreau.moreau_grad(model, legs, batch, cfg)
    assert [len(r.trace) for r in out.legs] == [3, 3]
    assert forks == []


@pytest.fixture()
def mlp_ckpt(tmp_path, corpus_file):
    model = zoo.Mlp([data.mlp_feature_width(4), 8, data.VOCAB])
    ckpt = tmp_path / "model.ckpt"
    checkpoint.save(ckpt, model.arch(), model.init_params(3), model.structures(), model.groups())
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[data]\ncalib_size = 4\nholdout_size = 2\n"
        "[moreau]\nsteps = 3\n[noise]\nm = 3\nsmooth_m = 4\n"
        "[robustness]\nspecs = fp16:bf16\ncriteria = plain,smooth,moreau,moreau-gs\n"
    )
    return ["--config", str(ini), "--corpus", str(corpus_file), "--checkpoint", str(ckpt)]


def test_prune_and_robustness_write_the_same_bytes_with_a_helper(
    tmp_path, mlp_ckpt, monkeypatch, forks
):
    written = {}
    for on in (False, True):
        helper_on(monkeypatch, on)
        for command, extra in (("prune", ["--criterion", "moreau-gs"]), ("robustness", [])):
            out = tmp_path / f"{command}-{on}"
            assert cli.main([command, *mlp_ckpt, *extra, "--out", str(out)]) == 0
            written[command, on] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    # prune: one loop; robustness: the criterion helper only, as no loop of
    # either process forks while it runs
    assert len(forks) == 2
    for command in ("prune", "robustness"):
        assert written[command, True] == written[command, False]


def test_loop_forks_before_its_first_pass_unless_refused(monkeypatch):
    """However short its passes, a loop of two draws or more per step forks
    its helper once, before its first evaluation; a loop of one draw never
    forks, and beside a live helper a loop neither maps memory nor forks."""
    parent = os.getpid()
    events = []
    real_fork, real_mmap, real_eval = os.fork, mmap.mmap, smoothing._eval

    def fork():
        pid = real_fork()
        if pid:
            events.append("fork")
        return pid

    def mapped(*args, **kwargs):
        events.append("mmap")
        return real_mmap(*args, **kwargs)

    def evaluated(*args, **kwargs):
        if os.getpid() == parent:
            events.append("eval")
        return real_eval(*args, **kwargs)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(mmap, "mmap", mapped)
    monkeypatch.setattr(smoothing, "_eval", evaluated)
    helper_on(monkeypatch, True)
    legs = [oracles.wrap([1.0, -2.0])]

    def loop(m):
        cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.1, m=m, seed=0))
        events.clear()
        out = moreau.moreau_grad(oracles.Quadratic(), legs, None, cfg)
        return flat_bytes([out.legs[0].mg], legs[0])

    forked = loop(2)
    assert events[:3] == ["mmap", "fork", "eval"] and events.count("fork") == 1
    assert no_child_left()
    loop(1)
    assert events == ["eval"] * 3
    busy = smoothing.ForkedChild.fork(lambda child: os.read(child.requests, 1))
    try:
        assert loop(2) == forked
        assert events == ["eval"] * 6  # neither "mmap" nor a second "fork"
    finally:
        busy.close()
    assert no_child_left()


def test_parent_beside_a_helper_makes_its_even_draws_inline_and_starts_no_thread(
    monkeypatch, forks
):
    parent = os.getpid()
    drawn, started = [], []
    real_draw, real_start = smoothing._draw, threading.Thread.start

    def logged(spec, draw_index, step, out):
        if os.getpid() == parent:
            drawn.append((step, draw_index, threading.current_thread() is threading.main_thread()))
        real_draw(spec, draw_index, step, out)

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(smoothing, "_draw", logged)
    monkeypatch.setattr(threading.Thread, "start", start)
    helper_on(monkeypatch, True)
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.1, m=4, seed=0))
    moreau.moreau_grad(oracles.Quadratic(), [oracles.wrap([1.0, -2.0])], None, cfg)
    assert len(forks) == 1 and no_child_left()
    assert drawn == [(t, i, True) for t in range(3) for i in (0, 2)]
    assert started == []


def test_host_check_counts_python_threads_where_proc_is_missing(monkeypatch):
    def no_proc(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "listdir", no_proc)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert smoothing._spare_cpu()
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    try:
        assert not smoothing._spare_cpu()
    finally:
        parked.set()
        thread.join()


def test_host_check_refuses_a_helper_beside_a_parked_python_thread():
    """With BLAS on one thread and two CPUs, the check passes until a Python
    thread, however idle, is listed in /proc/self/task beside this one."""
    script = (
        "import os, threading\n"
        "from proxprune import smoothing\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "before = smoothing._spare_cpu()\n"
        "parked = threading.Event()\n"
        "thread = threading.Thread(target=parked.wait)\n"
        "thread.start()\n"
        "during = smoothing._spare_cpu()\n"
        "parked.set()\n"
        "thread.join()\n"
        "print(before, during)\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "False"]


class ExplodesAt:
    """Quadratic loss, except that its forward pass overflows at one exact
    point; the parent and the helper see the same point for the same draw."""

    def __init__(self, point):
        self.point = point

    def loss(self, p, batch):
        scale = 1e300 if np.array_equal(p["w"].data, self.point) else 1.0
        big = ad.multiply(p["w"], scale)
        return oracles.sum_all(ad.multiply(big, big))


@pytest.mark.filterwarnings("ignore:overflow")
def test_helper_draw_going_non_finite_raises_the_in_process_error(monkeypatch, forks):
    spec = NoiseSpec(scale=0.5, m=4, seed=0, mode="absolute")
    w = np.array([[1.0, -2.0]])
    z = np.random.default_rng((spec.seed, 0, 3)).standard_normal(2)
    model = ExplodesAt(z * spec.scale + w[0])  # draw 3, a helper's draw
    legs = [oracles.wrap(w[0])]
    errors = []
    for on in (False, True):
        helper_on(monkeypatch, on)
        with pytest.raises(smoothing.SmoothingError) as exc:
            smoothed_grad(model, legs, None, spec)
        errors.append(exc.value)
    assert len(forks) == 1 and no_child_left()
    off, on = errors
    assert type(on) is type(off)
    assert str(on) == str(off) and "in draw 3" in str(on)
    assert on.draw_index == off.draw_index == 3


def test_helper_failing_a_draw_the_parent_can_evaluate_changes_nothing(
    transformer, monkeypatch, forks
):
    model, legs, batch = transformer
    parent = os.getpid()

    class FailsInHelper:
        def loss(self, p, b):
            if os.getpid() != parent:
                raise MemoryError("only the helper runs out")
            return model.loss(p, b)

    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=2, noise=NoiseSpec(scale=0.05, m=4, seed=1))
    helper_on(monkeypatch, True)
    failed = moreau.moreau_grad(FailsInHelper(), legs, batch, cfg)
    helper_on(monkeypatch, False)
    alone = moreau.moreau_grad(model, legs, batch, cfg)
    assert len(forks) == 1 and no_child_left()
    for a, b in zip(failed.legs, alone.legs):
        assert flat_bytes([a.mg], legs[0]) == flat_bytes([b.mg], legs[0])
        assert a.trace == b.trace


def test_divergence_mid_loop_leaves_no_child(monkeypatch, forks):
    class Concave:
        def loss(self, p, batch):
            return ad.multiply(oracles.sum_all(ad.multiply(p["w"], p["w"])), -50.0)

    helper_on(monkeypatch, True)
    cfg = MoreauConfig(rho=0.05, gamma=0.01, steps=40, noise=NoiseSpec(scale=0.1, m=3, seed=0))
    with pytest.raises(moreau.DivergenceError) as exc:
        moreau.moreau_grad(Concave(), [oracles.wrap([1.0, 1.0, 1.0])], None, cfg)
    assert 0 < exc.value.step < cfg.steps - 1
    assert len(forks) == 1 and no_child_left()


def test_interrupt_mid_loop_leaves_no_child(transformer, monkeypatch, forks):
    model, legs, batch = transformer

    class Interrupted:
        calls = 0

        def loss(self, p, b):
            self.calls += 1
            if self.calls == 6 and forks:  # the parent, with a helper running
                raise KeyboardInterrupt
            return model.loss(p, b)

    helper_on(monkeypatch, True)
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=4, noise=NoiseSpec(scale=0.05, m=4, seed=1))
    with pytest.raises(KeyboardInterrupt):
        moreau.moreau_grad(Interrupted(), legs[:1], batch, cfg)
    assert len(forks) == 1 and no_child_left()


def test_fork_refused_gives_identical_outputs(transformer, monkeypatch):
    model, legs, batch = transformer
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=2, noise=NoiseSpec(scale=0.05, m=3, seed=1))
    alone = moreau.moreau_grad(model, legs, batch, cfg)
    asked = []

    def refuse():
        asked.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    helper_on(monkeypatch, True)
    refused = moreau.moreau_grad(model, legs, batch, cfg)
    assert asked == [1]
    for a, b in zip(refused.legs, alone.legs):
        assert flat_bytes([a.mg], legs[0]) == flat_bytes([b.mg], legs[0])
        assert a.trace == b.trace


@pytest.mark.parametrize("at", [3, 6, 9])  # step 0 right after the fork, step 1, step 2
def test_helper_killed_mid_loop_gives_identical_outputs(transformer, monkeypatch, forks, at):
    model, legs, batch = transformer

    class KillsHelper:
        calls = 0

        def loss(self, p, b):
            self.calls += 1
            if self.calls == at and forks:  # only the parent knows the helper's pid
                os.kill(forks[0], signal.SIGKILL)
            return model.loss(p, b)

    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=4, noise=NoiseSpec(scale=0.05, m=4, seed=1))
    helper_on(monkeypatch, False)
    alone = moreau.moreau_grad(model, legs[:1], batch, cfg)
    helper_on(monkeypatch, True)
    killed = moreau.moreau_grad(KillsHelper(), legs[:1], batch, cfg)
    assert len(forks) == 1 and no_child_left()
    a, b = killed.legs[0], alone.legs[0]
    assert flat_bytes([a.mg], legs[0]) == flat_bytes([b.mg], legs[0])
    assert a.trace == b.trace


@pytest.mark.parametrize("threads, forced", [("2", False), ("2", True), ("1", False)])
def test_host_check_refuses_a_helper_beside_a_blas_pool(tmp_path, threads, forced):
    """A BLAS pool of two threads already uses both CPUs of a 2-CPU host, so
    the host check refuses a helper; forced past the check, a fork beside the
    pool must not deadlock. With BLAS on one thread and two CPUs the check
    passes. Either way the gradients are those of no helper."""
    script = tmp_path / "run.py"
    script.write_text(
        "import os, sys\n"
        "import numpy as np\n"
        "from proxprune import moreau, smoothing, zoo\n"
        "from proxprune.moreau import MoreauConfig\n"
        "from proxprune.params import flatten_map\n"
        "from proxprune.smoothing import NoiseSpec\n"
        "pool = len(os.listdir('/proc/self/task')) > 1\n"
        "cpus = len(os.sched_getaffinity(0))\n"
        "forks = []\n"
        "real = os.fork\n"
        "def fork():\n"
        "    pid = real()\n"
        "    if pid:\n"
        "        forks.append(pid)\n"
        "    return pid\n"
        "os.fork = fork\n"
        f"if {forced}:\n"
        "    smoothing._spare_cpu = lambda: True\n"
        "model = zoo.Mlp([64, 256, 256, 64])\n"
        "params = model.init_params(1)\n"
        "rng = np.random.default_rng(0)\n"
        "batch = (rng.standard_normal((128, 64)), rng.integers(0, 64, 128))\n"
        "cfg = MoreauConfig(steps=4, noise=NoiseSpec(scale=0.05, m=4, seed=0))\n"
        "runs = []\n"
        "for check in (lambda: False, smoothing._spare_cpu):\n"
        "    smoothing._spare_cpu = check\n"
        "    out = moreau.moreau_grad(model, [params], batch, cfg)\n"
        "    runs.append(flatten_map(params, out.legs[0].mg))\n"
        "assert runs[0].tobytes() == runs[1].tobytes()\n"
        "print(pool, cpus, len(forks))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, env=env
    )
    assert run.returncode == 0, run.stderr
    pool, cpus, forked = run.stdout.split()
    if forced:
        assert forked == "1"
    elif pool == "True":
        assert forked == "0"
    elif int(cpus) >= 2:  # one BLAS thread, or a BLAS whose pool is not listed
        assert forked == "1"


def test_cli_import_leaves_the_executor_unimported(tmp_path, mlp_ckpt):
    """Neither importing the CLI nor running an MLP prune and a robustness
    experiment through it imports an executor or starts a thread."""
    script = (
        "import sys, threading\n"
        "from proxprune import cli\n"
        f"base = {mlp_ckpt!r}\n"
        "for command, extra in (('prune', ['--criterion', 'moreau']), ('robustness', [])):\n"
        f"    out = {str(tmp_path)!r} + '/' + command\n"
        "    assert cli.main([command, *base, *extra, '--out', out]) == 0\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].split() == ["False", "1"]


# A robustness experiment with two Monte Carlo criteria or more forks one
# criterion helper for the last of them; the tests below force the host
# check. While the criterion helper runs no loop of the tree forks, so a
# loop forks a draw helper only in an experiment without one, or once the
# criterion helper is closed.

EXPERIMENT_SETTINGS = {
    "smooth": NoiseSpec(scale=0.05, m=3, seed=0),
    "moreau": MoreauConfig(rho=0.05, gamma=1e-3, steps=2, noise=NoiseSpec(scale=0.05, m=2, seed=0)),
    "moreau-gs": MoreauConfig(
        rho=0.2, gamma=2e-4, steps=2, eta=5e-6, noise=NoiseSpec(scale=0.05, m=2, seed=0)
    ),
}


@pytest.fixture(scope="module")
def small_mlp(corpus):
    model = zoo.Mlp([data.mlp_feature_width(4), 8, data.VOCAB])
    params = model.init_params(5)
    batch, _ = data.make_batch(model, corpus, 6, seed=(3, 0, 0))
    return model, params, batch


def experiment(setup, criteria):
    model, params, batch = setup
    return robustness.consistency_experiment(
        model, params, batch, criteria, robustness.PerturbSpec("bf16-roundtrip"), 0.25,
        baseline_spec=robustness.PerturbSpec("fp16-roundtrip"), settings=EXPERIMENT_SETTINGS,
    )


def report_bytes(reports) -> str:
    """Every field of every report, each float as its repr."""
    return json.dumps([r.to_json_dict() for r in reports])


@pytest.fixture()
def ran_here(monkeypatch):
    """The criteria importance.run_criterion computes in this process."""
    parent, ran = os.getpid(), []
    real = importance.run_criterion

    def logged(criterion, *args, **kwargs):
        if os.getpid() == parent:
            ran.append(criterion)
        return real(criterion, *args, **kwargs)

    monkeypatch.setattr(importance, "run_criterion", logged)
    return ran


@pytest.mark.parametrize(
    "criteria, helper",
    [
        (("plain", "moreau"), None),
        (("moreau",), None),
        (("plain",), None),
        (("moreau", "moreau-gs"), "moreau-gs"),
        (("plain", "smooth", "moreau", "moreau-gs"), "moreau-gs"),
        (("moreau-gs", "smooth", "plain"), "smooth"),
    ],
)
def test_criterion_helper_forks_once_for_the_last_of_two_monte_carlo_criteria(
    small_mlp, monkeypatch, forks, ran_here, criteria, helper
):
    criterion_helpers = []
    real = robustness._fork_report

    def logged(report, criterion):
        child = real(report, criterion)
        if child is not None:
            criterion_helpers.append(criterion)
        return child

    monkeypatch.setattr(robustness, "_fork_report", logged)
    helper_on(monkeypatch, True)
    reports = experiment(small_mlp, criteria)
    assert [r.criterion for r in reports] == list(criteria)
    assert criterion_helpers == ([helper] if helper is not None else [])
    # without a criterion helper the one Monte Carlo loop forks its own
    draw_helpers = helper is None and any(c in importance.MONTE_CARLO for c in criteria)
    assert len(forks) - len(criterion_helpers) == draw_helpers and no_child_left()
    assert ran_here == [c for c in criteria if c != helper]


@pytest.mark.parametrize("draw_helpers", [False, True])
def test_criterion_helper_reports_are_bitwise_equal(
    small_mlp, transformer, monkeypatch, forks, ran_here, draw_helpers
):
    """A criterion helper's reports equal those of an experiment without
    one, whose loops run in one process or, with draw_helpers, each fork a
    draw helper of their own."""
    model, legs, batch = transformer
    criteria = ("plain", "smooth", "moreau", "moreau-gs")
    monte_carlo = [c for c in criteria if c in importance.MONTE_CARLO]
    real = robustness._fork_report
    runs, forked = {}, {}
    for setup in ("mlp", "transformer"):
        args = small_mlp if setup == "mlp" else (model, legs[1], batch)
        for on in (False, True):
            helper_on(monkeypatch, on or draw_helpers)
            refused = lambda report, criterion: None  # noqa: E731
            monkeypatch.setattr(robustness, "_fork_report", real if on else refused)
            before = len(forks)
            runs[setup, on] = report_bytes(experiment(args, criteria))
            forked[setup, on] = len(forks) - before
            assert ran_here == list(criteria[: 3 if on else 4])
            ran_here.clear()
    # one criterion helper per experiment, and no loop of either process
    # forks while it runs; without one, each Monte Carlo loop forks its own
    alone = len(monte_carlo) if draw_helpers else 0
    assert forked == {(s, on): 1 if on else alone for s, on in forked}
    assert no_child_left()
    assert runs["mlp", True] == runs["mlp", False]
    assert runs["transformer", True] == runs["transformer", False]


def test_criterion_helper_divergence_exits_5_with_the_in_process_message(
    tmp_path, mlp_ckpt, monkeypatch, forks, capsys
):
    ini = tmp_path / "diverges.ini"
    ini.write_text(
        "[data]\ncalib_size = 4\nholdout_size = 2\n"
        "[moreau]\nrho = 1e6\ngamma = 1e6\nsteps = 3\n[noise]\nm = 2\nsmooth_m = 3\n"
        "[robustness]\nspecs = fp16:bf16\ncriteria = plain,smooth,moreau\n"
    )
    argv = ["robustness", *mlp_ckpt[2:], "--config", str(ini)]
    errors = []
    for on in (False, True):
        helper_on(monkeypatch, on)
        assert cli.main([*argv, "--out", str(tmp_path / str(on))]) == cli.EXIT_OPTIMIZER
        errors.append(capsys.readouterr().err)
    # the criterion helper, then the draw helper of the parent's recomputed
    # moreau loop
    assert len(forks) == 2 and no_child_left()
    assert errors[0] == errors[1]
    assert errors[0].startswith("optimizer error: proximal iterate diverged at step 0")


def test_earlier_failing_criterion_kills_the_criterion_helper(
    small_mlp, monkeypatch, forks
):
    parent = os.getpid()
    real = importance.run_criterion

    def fails_here(criterion, *args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)  # a helper still busy when the parent fails
        elif criterion == "smooth":
            raise smoothing.SmoothingError("non-finite gradient in draw 0", 0)
        return real(criterion, *args, **kwargs)

    monkeypatch.setattr(importance, "run_criterion", fails_here)
    helper_on(monkeypatch, True)
    start = time.monotonic()
    with pytest.raises(smoothing.SmoothingError, match="in draw 0"):
        experiment(small_mlp, ("plain", "smooth", "moreau"))
    assert time.monotonic() - start < 30
    assert len(forks) == 1 and no_child_left()


@pytest.mark.parametrize("how", ["killed", "fails"])
def test_parent_recomputes_the_criterion_of_a_dead_or_failed_helper(
    small_mlp, monkeypatch, forks, ran_here, how
):
    criteria = ("plain", "smooth", "moreau", "moreau-gs")
    helper_on(monkeypatch, False)
    alone = report_bytes(experiment(small_mlp, criteria))
    ran_here.clear()
    parent = os.getpid()
    logged = importance.run_criterion

    def breaks_helper(criterion, *args, **kwargs):
        if os.getpid() != parent:
            if how == "fails":
                raise MemoryError("only the helper runs out")
            time.sleep(60)  # busy until the parent kills it
        elif criterion == "smooth" and how == "killed":
            os.kill(forks[0], signal.SIGKILL)
        return logged(criterion, *args, **kwargs)

    monkeypatch.setattr(importance, "run_criterion", breaks_helper)
    helper_on(monkeypatch, True)
    recomputed = report_bytes(experiment(small_mlp, criteria))
    # the criterion helper, then the draw helper of the parent's recomputed
    # moreau-gs loop
    assert len(forks) == 2 and no_child_left()
    assert ran_here == list(criteria)
    assert recomputed == alone


# ForkedChild.fork is the one gate of every helper: a process tree runs at
# most one at a time, as a child inherits its parent's live count. The
# forks fixture sees this process only, so the tests of the whole tree log
# every process's forks to a file.


@pytest.fixture()
def tree_forks(tmp_path, monkeypatch):
    """A function listing, for each helper forked while the test runs in any
    process of its tree, the pid of the process that forked it."""
    log = tmp_path / "forks.log"
    real = os.fork

    def fork():
        pid = real()
        if pid:
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(fd, b"%d\n" % os.getpid())
            os.close(fd)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return lambda: [int(pid) for pid in log.read_text().split()] if log.exists() else []


@pytest.mark.parametrize("setup", ["mlp", "transformer"])
@pytest.mark.parametrize(
    "criteria, helper",
    [
        (("plain", "moreau"), None),  # the moreau loop's draw helper, over both legs
        (("smooth", "moreau"), "moreau"),
        (("plain", "smooth", "moreau", "moreau-gs"), "moreau-gs"),
    ],
    ids=["plain,moreau", "smooth,moreau", "all-four"],
)
def test_robustness_forks_one_helper_in_the_whole_process_tree(
    small_mlp, transformer, monkeypatch, tree_forks, ran_here, setup, criteria, helper
):
    """With both gates forced open an experiment forks one process in its
    whole tree: the criterion helper when it has two Monte Carlo criteria or
    more, else the draw helper of its Monte Carlo loop. The reports are
    those of no helper."""
    model, legs, batch = transformer
    args = small_mlp if setup == "mlp" else (model, legs[1], batch)
    helper_on(monkeypatch, False)
    alone = report_bytes(experiment(args, criteria))
    assert tree_forks() == []
    ran_here.clear()
    helper_on(monkeypatch, True)
    on = report_bytes(experiment(args, criteria))
    assert tree_forks() == [os.getpid()] and no_child_left()
    assert ran_here == [c for c in criteria if c != helper]
    assert on == alone


def gate_reopened() -> None:
    """The live count is back to 0, so the gate lets the next helper fork."""
    assert smoothing.ForkedChild.live == 0
    child = smoothing.ForkedChild.fork(lambda c: None)
    assert child is not None
    child.close()
    assert smoothing.ForkedChild.live == 0 and no_child_left()


def test_gate_admits_one_helper_per_process_tree(monkeypatch, forks):
    gate = smoothing.ForkedChild
    monkeypatch.setattr(smoothing, "_spare_cpu", lambda: True)

    def serve(child):
        nested = gate.fork(lambda grandchild: None)
        os.write(child.replies, b"%d %d" % (gate.live, nested is None))

    child = gate.fork(serve)
    assert gate.live == 1 and gate.fork(serve) is None
    with os.fdopen(child.replies, "rb", closefd=False) as replies:
        said = replies.read()
    child.close()
    assert said == b"1 1"  # the child inherited the count and forked nothing
    assert len(forks) == 1
    gate_reopened()


@pytest.mark.parametrize("end", ["closed", "fails", "killed"])
def test_gate_reopens_after_a_draw_helper_ends(monkeypatch, forks, end):
    parent = os.getpid()

    class Ends(oracles.Quadratic):
        def loss(self, p, batch):
            if os.getpid() != parent and end == "fails":
                raise MemoryError("only the helper runs out")
            if os.getpid() == parent and end == "killed" and smoothing.ForkedChild.live:
                os.kill(forks[0], signal.SIGKILL)
            return super().loss(p, batch)

    helper_on(monkeypatch, True)
    cfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.1, m=4, seed=0))
    moreau.moreau_grad(Ends(), [oracles.wrap([1.0, -2.0])], None, cfg)
    assert len(forks) == 1
    gate_reopened()


def test_gate_reopens_after_an_earlier_criterion_raises(small_mlp, monkeypatch, forks):
    parent = os.getpid()
    real = importance.run_criterion

    def fails_here(criterion, *args, **kwargs):
        if os.getpid() == parent and criterion == "smooth":
            raise smoothing.SmoothingError("non-finite gradient in draw 0", 0)
        return real(criterion, *args, **kwargs)

    monkeypatch.setattr(importance, "run_criterion", fails_here)
    helper_on(monkeypatch, True)
    with pytest.raises(smoothing.SmoothingError, match="in draw 0"):
        experiment(small_mlp, ("plain", "smooth", "moreau"))
    assert len(forks) == 1
    gate_reopened()


@pytest.mark.parametrize("call, at", [("pipe", 1), ("pipe", 2), ("fork", 1)])
def test_gate_reopens_after_a_refused_fork(monkeypatch, call, at):
    real = getattr(os, call)
    calls = []

    def refuses():
        calls.append(call)
        if len(calls) == at:
            raise OSError(24, "Too many open files")
        return real()

    monkeypatch.setattr(smoothing, "_spare_cpu", lambda: True)
    fds = os.listdir("/proc/self/fd")
    monkeypatch.setattr(os, call, refuses)
    assert smoothing.ForkedChild.fork(lambda c: None) is None
    assert len(calls) == at
    monkeypatch.undo()
    assert os.listdir("/proc/self/fd") == fds  # every pipe end of the refused fork closed
    monkeypatch.setattr(smoothing, "_spare_cpu", lambda: True)
    gate_reopened()
