import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxprune import autodiff as ad
from proxprune import checkpoint, data, zoo
from proxprune.importance import prune_model
from proxprune.params import ParamSet, structure_flat_indices

TRANSFORMER_32_16_4_2_SEED3_LOSS = 3.6850120833072966  # pinned on first verified run


def assert_well_formed(params, structures, groups):
    """Slices lie in bounds and tile every (parameter, axis) they touch
    without overlap; the groups partition the structures, each with at least
    one member."""
    shapes = params.shapes()
    taken = {}
    for structure in structures:
        for s in structure.slices:
            assert 0 <= s.axis < len(shapes[s.param])
            assert 0 <= s.start < s.stop <= shapes[s.param][s.axis]
            used = taken.setdefault((s.param, s.axis), set())
            assert used.isdisjoint(range(s.start, s.stop)), (structure.id, s)
            used.update(range(s.start, s.stop))
    for (param, axis), used in taken.items():
        assert used == set(range(shapes[param][axis])), (param, axis)
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
    assert all(
        structure_flat_indices(params, st).size == 4 + 1 + 3 for st in model.structures()
    )
    assert_well_formed(params, model.structures(), groups)


def test_mlp_rejects_bad_widths():
    with pytest.raises(zoo.ZooError):
        zoo.Mlp([4, 0, 3])
    with pytest.raises(zoo.ZooError):
        zoo.Mlp([4, 3])  # no hidden layer
    for widths in ([4, 3.0, 3], [4, True, 3], [4.0, 3, 3]):
        with pytest.raises(zoo.ZooError, match="parameter 'w0': dimension"):
            zoo.Mlp(widths)


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


def table(model):
    """(id, block, [(param, axis, start, stop), ...]) per structure, and
    (id, class, member ids) per group."""
    structures = [
        (st.id, st.block, [(s.param, s.axis, s.start, s.stop) for s in st.slices])
        for st in model.structures()
    ]
    return structures, [(g.id, g.cls, list(g.structures)) for g in model.groups()]


def assert_params_pinned(model, shapes, sha256):
    """init_params(0) has the recorded shapes, in order, and bytes, and
    param_shapes() states the same shapes without drawing."""
    params = model.init_params(0)
    assert list(params.shapes().items()) == list(shapes.items())
    assert hashlib.sha256(params.flatten().tobytes()).hexdigest() == sha256
    assert list(model.param_shapes().items()) == list(shapes.items())


def test_mlp_table_is_pinned():
    model = zoo.Mlp([8, 3, 2, 4])
    assert_params_pinned(
        model, {"w0": (8, 3), "b0": (3,), "w1": (3, 2), "b1": (2,), "w2": (2, 4), "b2": (4,)},
        "0badbc1699ecf81b6f212b5d6d8dec3b7bbcec77776948d00bc907d1ab5ea70f",
    )
    structures, groups = table(model)
    assert structures == [
        (0, "hidden1", [("w0", 1, 0, 1), ("b0", 0, 0, 1), ("w1", 0, 0, 1)]),
        (1, "hidden1", [("w0", 1, 1, 2), ("b0", 0, 1, 2), ("w1", 0, 1, 2)]),
        (2, "hidden1", [("w0", 1, 2, 3), ("b0", 0, 2, 3), ("w1", 0, 2, 3)]),
        (3, "hidden2", [("w1", 1, 0, 1), ("b1", 0, 0, 1), ("w2", 0, 0, 1)]),
        (4, "hidden2", [("w1", 1, 1, 2), ("b1", 0, 1, 2), ("w2", 0, 1, 2)]),
    ]
    assert groups == [(i, "channel", [i]) for i in range(5)]


def test_shrunk_transformer_table_is_pinned():
    arch = zoo.TransformerArch(vocab=8, d_model=4, heads=[2, 2], d_head=2, ffn=[4, 4], max_len=4)
    model = zoo.TinyTransformer(arch).shrink({"l1.attn": 1, "l0.ffn": 1, "l1.ffn": 2})
    assert (model.a.heads, model.a.ffn) == ([2, 1], [3, 2])
    shapes = {
        "embed": (8, 4), "pos": (4, 4),
        "l0.ln1.g": (4,), "l0.ln1.b": (4,), "l0.wq": (4, 4), "l0.bq": (4,), "l0.wk": (4, 4),
        "l0.bk": (4,), "l0.wv": (4, 4), "l0.bv": (4,), "l0.wo": (4, 4), "l0.bo": (4,),
        "l0.ln2.g": (4,), "l0.ln2.b": (4,), "l0.w1": (4, 3), "l0.b1": (3,), "l0.w2": (3, 4),
        "l0.b2": (4,),
        "l1.ln1.g": (4,), "l1.ln1.b": (4,), "l1.wq": (4, 2), "l1.bq": (2,), "l1.wk": (4, 2),
        "l1.bk": (2,), "l1.wv": (4, 2), "l1.bv": (2,), "l1.wo": (2, 4), "l1.bo": (4,),
        "l1.ln2.g": (4,), "l1.ln2.b": (4,), "l1.w1": (4, 2), "l1.b1": (2,), "l1.w2": (2, 4),
        "l1.b2": (4,),
        "lnf.g": (4,), "lnf.b": (4,), "head.w": (4, 8), "head.b": (8,),
    }
    assert_params_pinned(
        model, shapes, "af9d580968ab4d1999adf6ffff2fe6f4b0318e6ce8b615888cb00a90737d1e2b"
    )
    structures, groups = table(model)
    assert structures == [
        (0, "l0.attn", [("l0.wq", 1, 0, 2), ("l0.bq", 0, 0, 2), ("l0.wk", 1, 0, 2),
                        ("l0.bk", 0, 0, 2), ("l0.wv", 1, 0, 2), ("l0.bv", 0, 0, 2),
                        ("l0.wo", 0, 0, 2)]),
        (1, "l0.attn", [("l0.wq", 1, 2, 4), ("l0.bq", 0, 2, 4), ("l0.wk", 1, 2, 4),
                        ("l0.bk", 0, 2, 4), ("l0.wv", 1, 2, 4), ("l0.bv", 0, 2, 4),
                        ("l0.wo", 0, 2, 4)]),
        (2, "l0.ffn", [("l0.w1", 1, 0, 1), ("l0.b1", 0, 0, 1), ("l0.w2", 0, 0, 1)]),
        (3, "l0.ffn", [("l0.w1", 1, 1, 2), ("l0.b1", 0, 1, 2), ("l0.w2", 0, 1, 2)]),
        (4, "l0.ffn", [("l0.w1", 1, 2, 3), ("l0.b1", 0, 2, 3), ("l0.w2", 0, 2, 3)]),
        (5, "l1.attn", [("l1.wq", 1, 0, 2), ("l1.bq", 0, 0, 2), ("l1.wk", 1, 0, 2),
                        ("l1.bk", 0, 0, 2), ("l1.wv", 1, 0, 2), ("l1.bv", 0, 0, 2),
                        ("l1.wo", 0, 0, 2)]),
        (6, "l1.ffn", [("l1.w1", 1, 0, 1), ("l1.b1", 0, 0, 1), ("l1.w2", 0, 0, 1)]),
        (7, "l1.ffn", [("l1.w1", 1, 1, 2), ("l1.b1", 0, 1, 2), ("l1.w2", 0, 1, 2)]),
    ]
    classes = ["head", "head", "channel", "channel", "channel", "head", "channel", "channel"]
    assert groups == [(i, cls, [i]) for i, cls in enumerate(classes)]


@pytest.mark.parametrize(
    "model", [zoo.Mlp([8, 3, 2, 4]), zoo.TinyTransformer.build(32, 16, 4, 2, max_len=16)],
    ids=["mlp", "transformer"],
)
def test_tables_are_built_once(model):
    assert model.structures() is model.structures()
    assert model.groups() is model.groups()
    assert [st.cls for st in model.structures()] == [g.cls for g in model.groups()]


def test_transformer_head_divisibility():
    with pytest.raises(zoo.ZooError):
        zoo.TinyTransformer.build(32, 16, 3, 1)
    good = dict(vocab=8, d_model=4, heads=[2], d_head=2, ffn=[4], max_len=4)
    zoo.TinyTransformer(zoo.TransformerArch(**good))
    for field, param in (("d_head", "l0.wq"), ("max_len", "pos")):
        arch = zoo.TransformerArch(**{**good, field: 0})
        with pytest.raises(zoo.ZooError, match=f"parameter '{param}': dimension 0 "):
            zoo.TinyTransformer(arch)


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


@st.composite
def small_models(draw):
    if draw(st.booleans(), label="mlp"):
        widths = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5), label="widths")
        return zoo.Mlp(widths)
    layers = draw(st.integers(1, 2), label="layers")
    per_layer = st.lists(st.integers(1, 3), min_size=layers, max_size=layers)
    return zoo.TinyTransformer(zoo.TransformerArch(
        vocab=draw(st.integers(1, 5)), d_model=draw(st.integers(1, 4)),
        heads=draw(per_layer), d_head=draw(st.integers(1, 3)), ffn=draw(per_layer),
        max_len=draw(st.integers(1, 4)),
    ))


@given(model=small_models(), draw=st.data())
@settings(max_examples=60, deadline=None)
def test_pruned_params_match_the_shrunk_declaration(model, draw):
    """Any prune set that empties no block leaves params shaped exactly as
    the shrunk model declares, and its structures tile those shapes."""
    assert_well_formed(model.init_params(0), model.structures(), model.groups())
    prune_set = []
    for name, _, units, _ in model.blocks:
        ids = [structure.id for structure in model.structures() if structure.block == name]
        prune_set += draw.draw(st.lists(st.sampled_from(ids), max_size=units - 1, unique=True))
    shrunk, params = prune_model(model, model.init_params(0), prune_set)
    assert params.shapes() == shrunk.param_shapes()
    assert_well_formed(params, shrunk.structures(), shrunk.groups())


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


def test_load_checks_shapes_before_building_tables(tmp_path, monkeypatch):
    """A header whose arch names a 1,000,000-wide layer is rejected on its
    parameter shapes before the model draws a weight or expands a structure
    table, and loading it allocates under 1 MB."""
    model = zoo.Mlp([4, 8, 3])
    path = tmp_path / "wide.ckpt"
    wide = {"kind": "mlp", "widths": [4, 10**6, 3]}
    checkpoint.save(path, wide, model.init_params(0), model.structures(), model.groups())

    def no_tables(*args):
        raise AssertionError("structure table built")

    def no_draws(*args):
        raise AssertionError("weights drawn")

    monkeypatch.setattr(zoo, "PruneStructure", no_tables)
    monkeypatch.setattr(zoo.Mlp, "init_params", no_draws)
    tracemalloc.start()
    try:
        with pytest.raises(checkpoint.CheckpointError, match="parameter 'w0' has shape"):
            checkpoint.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_recover_first_loss_is_the_batch_loss_before_any_step(corpus):
    model = zoo.Mlp([4 * 256, 8, 256])
    params = model.init_params(3)
    batches = [data.make_batch(model, corpus, 8, seed=(0, 0, i))[0] for i in range(2)]
    _, info = zoo.recover_finetune(model, params, batches, epochs=2, lr=0.1)
    first = zoo.batch_loss(model, params, batches[0])
    assert np.float64(info.first_loss).tobytes() == np.float64(first).tobytes()


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
