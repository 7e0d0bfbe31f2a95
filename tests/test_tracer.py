"""The benchmark's tracer (``benchmark/tracer.py``) patches proxprune functions
by module attribute. These tests fail when a patched function is renamed, or
when a caller stops looking it up through the attribute the tracer wraps.
"""
import importlib.util
from pathlib import Path

import pytest

from proxprune import autodiff, checkpoint, cli, data, importance, lowprec, moreau, params
from proxprune import reports, robustness, smoothing, zoo

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"

# every object whose attributes the tracer may replace
OWNERS = (
    autodiff, checkpoint, cli, data, importance, lowprec, moreau, params, reports,
    robustness, smoothing, zoo, autodiff.Tape, params.ParamSet, zoo.Mlp, zoo.TinyTransformer,
)

# per job, the traced spans that must have been entered at least once
EXPECTED = {
    "train": (
        "cli.main", "config.load_config", "data.load_corpus", "data.make_batch",
        "zoo.recover_finetune", "zoo.loss", "autodiff.forward",
        "autodiff.backward", "autodiff.matmul", "autodiff.relu", "autodiff.cross_entropy",
        "params.ParamSet.add", "checkpoint.save",
    ),
    "prune": (
        "checkpoint.load", "importance.run_criterion.moreau-gs", "moreau.channel_layout",
        "params.structure_flat_indices", "moreau.proximal", "moreau.group_soft_threshold",
        "smoothing.smoothed_loss_and_grad", "importance.element_importance",
        "importance.structure_importance", "importance.group_importance",
        "importance.rank_and_select", "importance.prune_model", "zoo.batch_loss",
        "reports.write_json", "reports.write_csv", "checkpoint.save",
    ),
    "robustness": (
        "robustness.consistency_experiment", "robustness.perturb", "lowprec.round_trip",
        "importance.run_criterion.plain", "importance.run_criterion.smooth",
        "importance.run_criterion.moreau", "moreau.proximal", "reports.write_json",
        "reports.write_csv",
    ),
}


@pytest.fixture()
def tracer_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict:
    return {(id(owner), name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_install_patches_and_uninstall_restores(tracer_module):
    before = snapshot()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        installed = snapshot()
    finally:
        tracer.uninstall()
    assert installed.keys() == before.keys()
    changed = [key for key in before if installed[key] is not before[key]]
    assert len(changed) > 20
    after = snapshot()
    assert all(after[key] is before[key] for key in before)


def test_traced_cli_jobs_reach_every_patched_layer(
    tracer_module, tmp_path, corpus_file, monkeypatch
):
    # every criterion in this process, where the tracer sees it: no
    # criterion helper takes one away
    monkeypatch.setattr(smoothing, "_spare_cpu", lambda: False)
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[model]\nkind = mlp\ncontext = 2\nhidden = 6\n"
        "[data]\ncalib_size = 4\nholdout_size = 2\n"
        "[train]\nepochs = 1\nbatch_size = 4\nsteps_per_epoch = 2\n"
        "[prune]\ncriterion = moreau-gs\n"
        "[moreau]\nsteps = 2\neta = 1e-3\n"
        "[noise]\nm = 1\nsmooth_m = 2\n"
        "[robustness]\ncriteria = plain,smooth,moreau\n"
    )
    base = ["--config", str(ini), "--corpus", str(corpus_file)]
    ckpt = tmp_path / "train" / "model.ckpt"
    jobs = {
        "train": ["train", *base, "--out", str(tmp_path / "train")],
        "prune": ["prune", *base, "--checkpoint", str(ckpt), "--out", str(tmp_path / "prune")],
        "robustness": ["robustness", *base, "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rob")],
    }
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for job, (kind, argv) in enumerate(jobs.items()):
            tracer.job = job
            assert cli.main(argv) == 0, kind
    finally:
        tracer.uninstall()
    for job, kind in enumerate(jobs):
        entered = {rec[3] for rec in tracer.spans if rec[2] == job}
        missing = [name for name in EXPECTED[kind] if name not in entered]
        assert not missing, f"{kind}: no span for {missing}"
    steps = tracer.counts[1]["moreau.steps"]
    assert steps == 2  # one moreau-gs loop of two steps in the prune job
