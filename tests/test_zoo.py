import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxprune import autodiff as ad
from proxprune import checkpoint, data, zoo
from proxprune.params import ParamSet

TRANSFORMER_32_16_4_2_SEED3_LOSS = 3.6850120833072966  # pinned on first verified run


def assert_well_formed(params, structures, groups):
    """Slices lie in bounds and are disjoint per (parameter, axis); the groups
    partition the structures, each with at least one member."""
    shapes = params.shapes()
    taken = {}
    for structure in structures:
        for s in structure.slices:
            assert 0 <= s.axis < len(shapes[s.param])
            assert 0 <= s.start < s.stop <= shapes[s.param][s.axis]
            used = taken.setdefault((s.param, s.axis), set())
            assert used.isdisjoint(range(s.start, s.stop)), (structure.id, s)
            used.update(range(s.start, s.stop))
    ids = [structure.id for structure in structures]
    members = [sid for g in groups for sid in g.structures]
    assert all(g.structures for g in groups)
    assert len(set(ids)) == len(ids)
    assert sorted(members) == sorted(ids)


def test_mlp_structure_counting():
    model = zoo.Mlp([4, 8, 3])
    params = model.init_params(7)
    groups = model.groups()
    assert len(groups) == 8
    shapes = params.shapes()
    assert all(st.n_elements(shapes) == 4 + 1 + 3 for st in model.structures())
    assert_well_formed(params, model.structures(), groups)


def test_mlp_rejects_bad_widths():
    with pytest.raises(zoo.ZooError):
        zoo.Mlp([4, 0, 3])
    with pytest.raises(zoo.ZooError):
        zoo.Mlp([4, 3])  # no hidden layer


def test_mlp_seed_determinism():
    p1 = zoo.Mlp([5, 6, 2]).init_params(13)
    p2 = zoo.Mlp([5, 6, 2]).init_params(13)
    for (n1, a1), (n2, a2) in zip(p1, p2):
        assert n1 == n2 and np.array_equal(a1, a2)


def test_transformer_group_counting():
    model = zoo.TinyTransformer.build(32, 16, 4, 2, max_len=16)
    params = model.init_params(0)
    groups = model.groups()
    heads = [g for g in groups if g.cls == "head"]
    channels = [g for g in groups if g.cls == "channel"]
    assert len(heads) == 2 * 4
    assert len(channels) == 2 * 4 * 16
    assert_well_formed(params, model.structures(), groups)


def test_transformer_head_divisibility():
    with pytest.raises(zoo.ZooError):
        zoo.TinyTransformer.build(32, 16, 3, 1)


def test_transformer_one_token_input_is_empty_target():
    model = zoo.TinyTransformer.build(16, 8, 2, 1, max_len=8)
    params = model.init_params(0)
    with pytest.raises(ad.EmptyTargetError):
        zoo.batch_loss(model, params, np.array([[5]]))


def test_transformer_pinned_loss():
    model = zoo.TinyTransformer.build(32, 16, 4, 2, max_len=16)
    params = model.init_params(3)
    ids = np.random.default_rng(9).integers(0, 32, size=(3, 12))
    assert zoo.batch_loss(model, params, ids) == TRANSFORMER_32_16_4_2_SEED3_LOSS


def test_uniform_logits_loss_is_log_vocab():
    """With the head zeroed the predictive distribution is exactly uniform."""
    model = zoo.TinyTransformer.build(32, 16, 4, 2, max_len=16)
    params = model.init_params(3)
    params["head.w"][:] = 0.0
    params["head.b"][:] = 0.0
    ids = np.random.default_rng(1).integers(0, 32, size=(4, 9))
    loss = zoo.batch_loss(model, params, ids)
    assert loss == pytest.approx(np.log(32), rel=1e-12)
    # a freshly initialized model is near-uniform: within 2 percent
    model2 = zoo.TinyTransformer.build(256, 16, 4, 2, max_len=16)
    params2 = model2.init_params(5)
    params2["head.w"][:] = 0.0
    params2["head.b"][:] = 0.0
    ids2 = np.random.default_rng(2).integers(0, 256, size=(4, 9))
    assert zoo.batch_loss(model2, params2, ids2) == pytest.approx(np.log(256), rel=0.02)


def test_empty_batch_raises():
    model = zoo.Mlp([4, 5, 3])
    params = model.init_params(0)
    with pytest.raises(zoo.EmptyBatchError):
        zoo.batch_loss(model, params, (np.zeros((0, 4)), np.zeros(0, dtype=int)))


def test_batch_loss_permutation_invariant():
    model = zoo.Mlp([4, 6, 3])
    params = model.init_params(2)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(7, 4))
    y = rng.integers(0, 3, size=7)
    base = zoo.batch_loss(model, params, (X, y))
    for _ in range(5):
        perm = rng.permutation(7)
        assert zoo.batch_loss(model, params, (X[perm], y[perm])) == base


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_paramset_flatten_roundtrip(seed):
    rng = np.random.default_rng(seed)
    items = [(f"p{i}", rng.normal(size=tuple(rng.integers(1, 4, size=rng.integers(1, 3)))))
             for i in range(rng.integers(1, 5))]
    ps = ParamSet(items)
    back = ps.unflatten(ps.flatten())
    for (n1, a1), (n2, a2) in zip(ps, back):
        assert n1 == n2 and np.array_equal(a1, a2)


def test_checkpoint_roundtrip_bit_exact(tmp_path, corpus):
    model = zoo.TinyTransformer.build(32, 16, 4, 2, max_len=16)
    params = model.init_params(0)
    groups = model.groups()
    params["embed"][0, 0] = -0.0  # sign of zero must survive
    path = tmp_path / "m.ckpt"
    checkpoint.save(path, model.arch(), params, model.structures(), groups)
    loaded_model, loaded, meta = checkpoint.load(path)
    assert loaded_model.arch() == model.arch()
    for (n1, a1), (n2, a2) in zip(params, loaded):
        assert n1 == n2
        assert a1.tobytes() == a2.tobytes(), f"{n1} not bit-identical"
    assert loaded_model.structures() == model.structures()
    assert loaded_model.groups() == groups
    assert meta == {}


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load(path)


def test_recover_lr_zero_is_identity(corpus):
    model = zoo.Mlp([4 * 256, 8, 256])
    params = model.init_params(3)
    batch, _ = data.make_batch(model, corpus, 8, seed=(0, 0, 0))
    out, info = zoo.recover_finetune(model, params, [batch], epochs=1, lr=0.0)
    for (n1, a1), (n2, a2) in zip(params, out):
        assert np.array_equal(a1, a2), n1
    assert info.steps == 1  # one batch, one epoch: exactly one optimizer step


def test_recover_two_epochs_improves(trained_mlp, corpus):
    model, params = trained_mlp
    batches = [data.make_batch(model, corpus, 8, seed=(1, 1, i))[0] for i in range(3)]
    out, info = zoo.recover_finetune(model, params, batches, epochs=2, lr=0.1)
    assert info.epoch_losses[-1] <= info.epoch_losses[0]
    assert not info.non_decreasing


def test_recover_validates_arguments():
    model = zoo.Mlp([4, 5, 3])
    params = model.init_params(0)
    with pytest.raises(zoo.ZooError):
        zoo.recover_finetune(model, params, [((np.zeros((1, 4))), np.zeros(1, dtype=int))], epochs=0, lr=0.1)
    for lr in (-0.1, float("nan"), float("inf")):
        with pytest.raises(zoo.ZooError, match="lr must be finite and >= 0"):
            zoo.recover_finetune(model, params, [(np.zeros((1, 4)), np.zeros(1, dtype=int))], epochs=1, lr=lr)


def test_mlp_label_out_of_vocab():
    model = zoo.Mlp([4, 5, 3])
    params = model.init_params(0)
    X = np.zeros((2, 4))
    with pytest.raises(ad.OutOfVocabError) as exc:
        zoo.batch_loss(model, params, (X, np.array([0, 3])))
    assert exc.value.sample_index == 1


def test_corpus_batches_are_logged_and_deterministic(corpus):
    ids1, starts1 = data.sequence_batch(corpus, 5, 32, seed=(4, 0, 0))
    ids2, starts2 = data.sequence_batch(corpus, 5, 32, seed=(4, 0, 0))
    assert starts1 == starts2
    assert np.array_equal(ids1, ids2)
    assert ids1.shape == (5, 33)
    for row, s in zip(ids1, starts1):
        assert np.array_equal(row, corpus.tokens[s : s + 33].astype(np.int64))


def test_empty_corpus_rejected(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(data.CorpusError, match="empty corpus"):
        data.load_corpus(p)


def test_model_from_arch_roundtrip():
    m1 = zoo.Mlp([6, 4, 2])
    assert zoo.model_from_arch(m1.arch()).widths == m1.widths
    m2 = zoo.TinyTransformer.build(32, 16, 4, 2, max_len=24)
    m3 = zoo.model_from_arch(m2.arch())
    assert m3.arch() == m2.arch()
