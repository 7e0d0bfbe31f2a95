"""A transformer training step may split its batch with one helper process:
the helper evaluates the first B // 2 samples and the parent the rest. The
helper sends a partial result for each batch sum that numpy folds one
sample at a time, which the parent continues over its own rows, and rows
only for `l*.bk`'s and a one-value bias's, which the parent reduces on a
whole-batch copy. These tests force the host check to pass or to fail and
require bitwise equal gradients, losses, parameters, errors and
checkpoints; they also pin the fold rule, what the helper sends, when a
step splits and every way a helper can fail.
"""
import os
import signal
from contextlib import closing

import numpy as np
import pytest

from proxprune import autodiff as ad
from proxprune import checkpoint, cli, data, zoo
from proxprune.smoothing import ForkedChild
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
    """Every leaf's batch sum continues from the helper's partial one, except
    `l*.bk`'s, whose adjoint arrives non-contiguous: continuing it would
    change bits, as would laying its whole batch out as a one-sample half's
    rows."""
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


@pytest.fixture(scope="module")
def bench_model():
    """The benchmark's transformer, at its 128 positions per sample."""
    return zoo.TinyTransformer.build(256, 32, 4, 2)


def batch_reductions(model, params, ids):
    _, tape = ad.forward(model.loss, dict(params), ids)
    return ad.backward(tape, rows=True)


def fold_rule(params, reductions) -> dict[str, list[bool]]:
    return {name: [r.folds(params[name].size) for r in rs] for name, rs in reductions.items()}


@pytest.mark.parametrize("b", [2, 3, 4, 5])
def test_a_folding_reduction_continued_from_a_partial_is_the_whole_one_bitwise(bench_model, b):
    """At every split point h, each Reduction that folds, continued from the
    partial of samples < h over the rows of the others, has the bits of its
    reduce on the whole rows. Only `l*.bk` does not fold, in the whole batch
    and in each half's own pass. A sum's rows are written as it continues,
    so they share memory with no other Reduction's."""
    params = bench_model.init_params(2)
    ids = np.random.default_rng(b).integers(0, 256, size=(b, 129))
    whole = batch_reductions(bench_model, params, ids)
    folding = fold_rule(params, whole)
    assert [name for name, f in folding.items() if f != [True]] == ["l0.bk", "l1.bk"]
    assert folding["l0.bk"] == folding["l1.bk"] == [False]
    sums = [
        r.rows[0]
        for name, rs in whole.items()
        for r in rs
        if r.folds(params[name].size) and len(r.rows) == 1
    ]
    others = [a for rs in whole.values() for r in rs for a in r.rows]
    for a in sums:
        assert sum(np.shares_memory(a, o) for o in others) == 1
    for h in range(1, b):
        for part in (ids[:h], ids[h:]):
            rows = batch_reductions(bench_model, params, part)
            assert fold_rule(params, rows) == folding
        for name, reductions in whole.items():
            for r in reductions:
                if r.folds(params[name].size):
                    partial = r.reduce(*(a[:h] for a in r.rows))
                    rest = ad.Reduction(r.reduce, tuple(a[h:].copy() for a in r.rows))
                    assert rest.continued(partial).tobytes() == r.reduce(*r.rows).tobytes(), name


@pytest.mark.parametrize("b", [2, 3, 4, 5])
def test_a_one_value_bias_is_gathered_and_split_bitwise(monkeypatch, forks, b):
    """A layer pruned to one feed-forward channel has a one-value bias,
    `l0.b1`. numpy sums its rows as one run of b * 24 values, pairwise, not
    one sample at a time, so it does not fold: the helper sends its rows,
    and the split step keeps the unsplit bits."""
    model = zoo.TinyTransformer(zoo.TransformerArch(V, 16, [4, 4], 4, [1, 64], 32))
    params = model.init_params(3)
    folding = fold_rule(params, batch_reductions(model, params, dataset(b)[0]))
    assert [name for name, f in folding.items() if f != [True]] == ["l0.bk", "l0.b1", "l1.bk"]
    test_split_gradient_and_loss_are_the_unsplit_ones_bitwise(model, monkeypatch, forks, b)


def test_helper_sends_a_partial_per_folding_reduction_and_rows_of_the_others(
    model, monkeypatch, forks
):
    """The float64 values the helper writes after the parameters in a split
    step of B 4: its 2 samples' losses, then one value per element of every
    leaf but `l*.bk`, and `l*.bk`'s rows, one per position of its samples.
    Sending every leaf's rows instead would write 3.8 times as many."""
    params = model.init_params(3)
    helper_on(monkeypatch, True)
    n_tok, half = LEN - 1, 2
    bk = [name for name in params.names if name.endswith(".bk")]
    partials = params.size - sum(params[name].size for name in bk)
    rows = sum(half * n_tok * params[name].size for name in bk)
    with closing(BatchSplit(model, params, dataset(4))) as split:
        for i in range(3):
            split.helper.slot[params.size :] = np.nan
            split.gradient(params, i)
            written = np.flatnonzero(~np.isnan(split.helper.slot[params.size :]))[-1] + 1
            assert written == half * n_tok + partials + rows
        assert split.helper is not None
    assert len(bk) == 2 and len(forks) == 1


def test_sample_gradients_sum_to_the_batch_gradient(bench_model):
    """Each leaf's per-sample gradients sum to its batch gradient within
    1e-13 relative (measured below 1e-14): the sums run in another order."""
    params = bench_model.init_params(4)
    ids = np.random.default_rng(9).integers(0, 256, size=(4, 129))
    _, tape = ad.forward(bench_model.loss, dict(params), ids)
    per_sample = ad.sample_gradients(tape, 4)
    _, grads = ad.gradient(bench_model.loss, dict(params), ids)
    assert per_sample.keys() == grads.keys()
    for name, g in grads.items():
        assert per_sample[name].shape == (4, *g.shape)
        assert np.linalg.norm(per_sample[name].sum(axis=0) - g) <= 1e-13 * np.linalg.norm(g)


def test_batch_rows_count_one_samples_rows(model):
    """The shared slot is sized from the model's shapes: `batch_rows` values
    per sample, exactly the rows of a pass's Reductions, bound what the
    helper sends besides its partials."""
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
    """The parent reads the helper's death as EOF, evaluates that batch
    itself and runs every later step alone."""
    batches = dataset(4)
    ask = ForkedChild.ask

    def ask_then_kill(helper, index):
        ask(helper, index)
        if index == 1:
            os.kill(helper.pid, signal.SIGKILL)

    off = both_ways(monkeypatch, lambda: train(model, batches))[0]
    monkeypatch.setattr(ForkedChild, "ask", ask_then_kill)
    assert train(model, batches) == off
    assert len(forks) == 2


def test_helper_failing_a_step_changes_no_byte(model, monkeypatch, forks):
    """A batch whose half fails in the helper only is evaluated by the
    parent."""
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
