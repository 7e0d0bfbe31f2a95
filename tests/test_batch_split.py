"""A transformer training step may split its batch with one helper process:
the helper evaluates the first B // 2 samples and the parent the rest, and
the parent gathers both halves' batch rows and reduces them on the whole
batch. These tests force the host check to pass or to fail and require
bitwise equal gradients, losses, parameters, errors and checkpoints; they
also pin when a step splits and every way a helper can fail.
"""
import os
import signal
from contextlib import closing

import numpy as np
import pytest

from proxprune import autodiff as ad
from proxprune import checkpoint, cli, data, zoo
from proxprune.zoo import BatchSplit

from test_helper import forks, helper_on  # noqa: F401 (forks is a fixture)

V, LEN = 64, 25


@pytest.fixture(scope="module")
def model():
    return zoo.TinyTransformer.build(V, 16, 4, 2, max_len=32)


def dataset(b: int, steps: int = 3, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng((seed, b))
    return [rng.integers(0, V, size=(b, LEN)) for _ in range(steps)]


def grad_bytes(grads) -> list[tuple[str, bytes]]:
    return [(name, g.dtype.str + str(g.shape) + g.tobytes().hex()) for name, g in grads.items()]


@pytest.mark.parametrize("b", [2, 3, 4, 5])
def test_split_gradient_and_loss_are_the_unsplit_ones_bitwise(model, monkeypatch, forks, b):
    """Every leaf's batch rows include those of `l*.bk`, whose adjoint arrives
    non-contiguous: summing the helper's rows and continuing with the
    parent's would change bits, as would laying the whole batch out as a
    one-sample half's rows."""
    params = model.init_params(3)
    batches = dataset(b)
    helper_on(monkeypatch, True)
    with closing(BatchSplit(model, params, batches)) as split:
        for i, batch in enumerate(batches):
            loss, grads = split.gradient(params, i)
            want_loss, want = ad.gradient(model.loss, dict(params), batch)
            assert loss == want_loss
            assert grad_bytes(grads) == grad_bytes(want)
        assert split.helper is not None  # every step was split
    assert len(forks) == 1


def test_batch_rows_count_one_samples_rows(model):
    """The shared slot is sized from the model's shapes: `batch_rows` values
    per sample are exactly the rows of a pass's Reductions."""
    ids = dataset(3, steps=1)[0]
    _, tape = ad.forward(model.loss, dict(model.init_params(0)), ids)
    rows = ad.backward(tape, rows=True)
    values = sum(a.size for reductions in rows.values() for r in reductions for a in r.rows)
    assert values == 3 * model.batch_rows(LEN - 1)


def test_position_lookup_per_sample_is_bitwise_the_shared_one(model, monkeypatch):
    """`logits` looks `pos` up per (sample, position). Looked up once per
    position and broadcast over the batch by `add`, as it used to be, the
    loss and every gradient have the same bits."""
    params = model.init_params(5)
    batches = [dataset(b, steps=1, seed=2)[0] for b in (1, 2, 4)]
    new = [ad.gradient(model.loss, dict(params), ids) for ids in batches]
    embedding = ad.embedding

    def once_per_position(table, ids):
        if ids.strides[0] == 0:  # the broadcast position lookup
            ids = ids[0]
        return embedding(table, ids)

    monkeypatch.setattr(ad, "embedding", once_per_position)
    for ids, (loss, grads) in zip(batches, new):
        old_loss, old = ad.gradient(model.loss, dict(params), ids)
        assert old_loss == loss
        assert grad_bytes(old) == grad_bytes(grads)


def test_position_rows_sum_signed_zeros_as_the_shared_lookup_did():
    """The rows of one position summed in the table, (0 + g0) + g1 + ...,
    against the shared lookup's 0 + (g0 + g1 + ...): equal on -0.0 rows."""
    g = np.zeros((3, 2, 4))
    g[:, 1] = -0.0
    g[1, 0] = 0.5
    tape = ad.Tape()
    out = ad.embedding(tape.leaf("pos", np.zeros((2, 4))), np.broadcast_to(np.arange(2), (3, 2)))
    ((_, per_sample),) = tape.entries[-1].backward(g)
    shared = np.zeros((2, 4))
    np.add.at(shared, np.arange(2), g.sum(axis=0))
    assert out.shape == (3, 2, 4)
    assert per_sample.tobytes() == shared.tobytes()


def train(model, batches, lr=0.05, epochs=2):
    params, info = zoo.recover_finetune(model, model.init_params(1), batches, epochs, lr)
    return params.flatten().tobytes(), info


def both_ways(monkeypatch, run):
    helper_on(monkeypatch, False)
    off = run()
    helper_on(monkeypatch, True)
    return off, run()


@pytest.mark.parametrize("b", [2, 5])
def test_training_is_bitwise_equal_with_a_helper(model, monkeypatch, forks, b):
    off, on = both_ways(monkeypatch, lambda: train(model, dataset(b)))
    assert on == off
    assert len(forks) == 1


def test_no_helper_for_an_mlp_a_batch_of_one_or_a_refused_fork(model, corpus, monkeypatch, forks):
    """An MLP's 2-d matmuls sum the batch inside BLAS, and one sample
    leaves nothing to split: neither forks, and a refused fork trains
    alone. A dataset of both sizes splits only its larger batches."""
    helper_on(monkeypatch, True)
    mlp = zoo.Mlp([data.mlp_feature_width(4), 8, data.VOCAB])
    batches = [data.make_batch(mlp, corpus, 4, seed=(1, 0, i))[0] for i in range(2)]
    zoo.recover_finetune(mlp, mlp.init_params(0), batches, 1, 0.1)
    train(model, dataset(1))
    assert forks == []
    helper_on(monkeypatch, False)
    assert train(model, dataset(4))[0]
    assert forks == []
    mixed = dataset(1, steps=2) + dataset(3, steps=2)
    off, on = both_ways(monkeypatch, lambda: train(model, mixed))
    assert on == off
    assert len(forks) == 1


def in_helper(parent: int) -> bool:
    return os.getpid() != parent


def test_helper_killed_after_step_one_changes_no_byte(model, monkeypatch, forks):
    """The parent reads the helper's death as EOF, evaluates that half
    itself and runs every later step alone."""
    batches = dataset(4)
    ask = BatchSplit._ask

    def ask_then_kill(split, index):
        ask(split, index)
        if index == 1:
            os.kill(split.helper.pid, signal.SIGKILL)

    off = both_ways(monkeypatch, lambda: train(model, batches))[0]
    monkeypatch.setattr(BatchSplit, "_ask", ask_then_kill)
    assert train(model, batches) == off
    assert len(forks) == 2


def test_helper_failing_a_step_changes_no_byte(model, monkeypatch, forks):
    """A half that fails in the helper only is evaluated by the parent."""
    batches = dataset(4)
    parent, half = os.getpid(), BatchSplit._half

    def fails_in_helper(split, leaves, ids, total, nll):
        if in_helper(parent):
            raise ad.NonFiniteError("gelu", 0)
        return half(split, leaves, ids, total, nll)

    off = both_ways(monkeypatch, lambda: train(model, batches))[0]
    monkeypatch.setattr(BatchSplit, "_half", fails_in_helper)
    assert train(model, batches) == off
    assert len(forks) == 2


def diverged(model, batches, lr):
    with pytest.raises(zoo.TrainingDivergedError) as exc, np.errstate(over="ignore"):
        train(model, batches, lr=lr)
    return exc.value.epoch, exc.value.step


def test_non_finite_half_in_the_helper_names_the_same_epoch_and_step(model, monkeypatch, forks):
    """Token 5's embedding row is infinite; only sample 0 of the second
    batch holds it, so only the helper's half goes non-finite."""
    batches = [np.where(b == 5, 6, b) for b in dataset(4)]
    batches[1][0, 3] = 5

    def run():
        params = model.init_params(1)
        params["embed"][5] = np.inf
        with pytest.raises(zoo.TrainingDivergedError) as exc:
            zoo.recover_finetune(model, params, batches, 2, 0.0)
        return exc.value.epoch, exc.value.step

    assert both_ways(monkeypatch, run) == ((0, 1), (0, 1))
    assert len(forks) == 1


def test_divergence_names_the_same_epoch_and_step(model, monkeypatch, forks):
    batches = dataset(4)
    off, on = both_ways(monkeypatch, lambda: diverged(model, batches, 1e300))
    assert on == off == (0, 1)


def test_out_of_vocab_in_the_parents_half_names_the_whole_batchs_sample(model, monkeypatch, forks):
    """A half that raises gives way to the whole batch, whose error counts
    samples from the batch's start."""
    batches = dataset(4)
    batches[1][3, 2] = V + 1

    def run():
        with pytest.raises(ad.OutOfVocabError) as exc:
            train(model, batches)
        return exc.value.sample_index, str(exc.value)

    off, on = both_ways(monkeypatch, run)
    assert on == off
    assert off[0] == 3


@pytest.fixture()
def transformer_cfg(tmp_path, corpus_file):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[run]\nseed = 3\n[model]\nkind = transformer\nd_model = 16\nn_heads = 4\nn_layers = 1\n"
        "[data]\nseq_len = 24\n[train]\nepochs = 1\nbatch_size = 3\nsteps_per_epoch = 3\n"
    )
    return ["--config", str(ini), "--corpus", str(corpus_file)]


def test_train_and_recover_write_the_same_checkpoint_with_a_helper(
    tmp_path, transformer_cfg, monkeypatch, forks
):
    written = {}
    for on in (False, True):
        helper_on(monkeypatch, on)
        out = tmp_path / f"train-{on}"
        assert cli.main(["train", *transformer_cfg, "--out", str(out)]) == 0
        ckpt = out / "model.ckpt"
        rec = tmp_path / f"recover-{on}"
        assert cli.main(["recover", *transformer_cfg, "--checkpoint", str(ckpt),
                         "--out", str(rec)]) == 0
        _, params, meta = checkpoint.load(rec / "recovered.ckpt")
        meta.pop("created")
        written[on] = ckpt.read_bytes(), params.flatten().tobytes(), meta
    assert written[True] == written[False]
    assert len(forks) == 2  # one helper per training run
