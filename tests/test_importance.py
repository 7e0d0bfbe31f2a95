import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxprune import importance as imp
from proxprune import moreau, zoo
from proxprune.params import ParamSet, PruneGroup, PruneStructure, Slice, flatten_map
from proxprune.smoothing import NoiseSpec

import oracles


def test_element_importance_definition():
    ps = ParamSet([("w", np.array([1.0, -2.0]))])
    scores = imp.element_importance({"w": np.array([0.5, 0.5])}, ps)
    assert np.allclose(scores["w"], [0.5, 1.0])


def test_zero_weight_scores_zero():
    ps = ParamSet([("w", np.array([0.0, 3.0]))])
    scores = imp.element_importance({"w": np.array([7.0, 1.0])}, ps)
    assert scores["w"][0] == 0.0


def test_element_importance_from_envelope_gradient():
    """Quadratic envelope at w=(2,-4), rho=1 gives |mg*w| = (2, 8)."""
    cfg = moreau.MoreauConfig(rho=1.0, gamma=0.5, steps=50, noise=NoiseSpec(scale=0.0, m=1, seed=0))
    ps = oracles.wrap([2.0, -4.0])
    (res,) = moreau.moreau_grad(oracles.Quadratic(), [ps], None, cfg).legs
    scores = imp.element_importance(res.mg, ps)
    assert np.allclose(scores["w"], [2.0, 8.0], atol=1e-6)


def test_element_importance_shape_mismatch():
    ps = ParamSet([("w", np.ones(3))])
    with pytest.raises(ValueError):
        imp.element_importance({"w": np.ones(4)}, ps)


def test_flatten_map_shape_mismatch():
    ps = ParamSet([("w", np.ones(3))])
    with pytest.raises(ValueError, match="shape mismatch for 'w'"):
        flatten_map(ps, {"w": np.ones(4)})


def test_gradient_maps_must_name_every_parameter():
    """A map missing a parameter is an error, not an implicit zero gradient."""
    ps = ParamSet([("w", np.ones(3)), ("b", np.ones(2))])
    partial = {"w": np.ones(3)}
    for consume in (imp.element_importance, lambda g, p: flatten_map(p, g), lambda g, p: p.add(g)):
        with pytest.raises(KeyError, match="'b'"):
            consume(partial, ps)


def test_structure_importance_sums_slices():
    scores = {"w": np.array([[0.5, 1.0], [0.25, 0.25]])}
    st_ = PruneStructure(id=0, slices=(Slice("w", 1, 0, 1),), block="h", cls="channel")
    out = imp.structure_importance(scores, [st_])
    assert out[0] == pytest.approx(0.75)


def test_empty_structure_warns_and_scores_zero():
    st_ = PruneStructure(id=3, slices=(), block="h", cls="channel")
    with pytest.warns(UserWarning):
        out = imp.structure_importance({}, [st_])
    assert out[3] == 0.0


def test_structure_importance_bounds_checked():
    st_ = PruneStructure(id=0, slices=(Slice("w", 1, 0, 9),), block="h", cls="channel")
    with pytest.raises(ValueError):
        imp.structure_importance({"w": np.ones((2, 2))}, [st_])


def test_group_importance_aggregators():
    scores = {0: 1.5, 1: 0.5}
    groups = [PruneGroup(id=0, structures=(0, 1), cls="channel")]
    assert imp.group_importance(scores, groups)[0] == 2.0
    single = [PruneGroup(id=1, structures=(0,), cls="channel")]
    assert imp.group_importance(scores, single)[1] == 1.5


def _pruned_transformer():
    model = zoo.TinyTransformer.build(256, 32, 4, 2)
    params = model.init_params(0)
    groups = model.groups()
    drop = [g.id for g in groups if g.cls == "head"][:3] + [g.id for g in groups][-5:]
    return imp.prune_model(model, params, drop)[0]


@pytest.mark.parametrize(
    "model",
    [zoo.Mlp([4 * 256, 64, 256]), zoo.TinyTransformer.build(256, 32, 4, 2), _pruned_transformer()],
    ids=["mlp", "transformer", "pruned-transformer"],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_scores_are_structure_scores_bit_for_bit(model, data):
    """Every zoo group holds one structure, so the group fold returns each
    structure score unchanged -- which is why importance.json can name a
    single aggregator."""
    sids = [s.id for s in model.structures()]
    values = data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, allow_nan=False)),
        min_size=len(sids), max_size=len(sids),
    ))
    scores = dict(zip(sids, values))
    groups = imp.group_importance(scores, model.groups())
    assert sorted(groups) == sids
    assert all(np.float64(groups[i]).tobytes() == np.float64(scores[i]).tobytes() for i in sids)


def test_rank_and_select_basics():
    scores = {0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0}
    cls = {g: "channel" for g in scores}
    assert imp.rank_and_select(scores, 0.0, cls) == ()
    assert imp.rank_and_select(scores, 0.5, cls) == (1, 2)
    with pytest.raises(ValueError):
        imp.rank_and_select(scores, 1.0, cls)


@pytest.mark.parametrize(
    "ratio, size, pruned",
    [
        (0.29, 100, 29),  # 0.29 * 100 is 28.999999999999996 in floats
        (0.57, 100, 57),
        (0.58, 100, 58),
        (0.2, 256, 51),
        (0.2, 8, 1),
        (0.2, 64, 12),
        (0.9999999999999999, 10, 9),
        (1e-05, 200000, 2),  # a repr in exponent form
    ],
)
def test_rank_and_select_floors_the_decimal_product(ratio, size, pruned):
    scores = {g: float(g) for g in range(size)}
    cls = {g: "channel" for g in scores}
    assert imp.rank_and_select(scores, ratio, cls) == tuple(range(pruned))


def test_tie_at_cutoff_prefers_lower_id():
    scores = {0: 1.0, 1: 1.0, 2: 5.0, 3: 6.0}
    cls = {g: "channel" for g in scores}
    assert imp.rank_and_select(scores, 0.25, cls) == (0,)


def test_tied_cuts_names_the_pools_a_group_id_decided():
    scores = {0: 1.0, 1: 1.0, 2: 5.0, 3: 6.0, 4: 0.5, 5: 0.7}
    cls = {0: "channel", 1: "channel", 2: "channel", 3: "channel", 4: "head", 5: "head"}
    picked = imp.rank_and_select(scores, 0.5, cls)
    assert picked == (0, 1, 4)  # the channel cut lies between 1.0 and 5.0
    assert imp.tied_cuts(scores, picked, cls) == ()
    picked = imp.rank_and_select(scores, 0.25, cls)
    assert picked == (0,)  # group 1 scores 1.0 too and is kept
    assert imp.tied_cuts(scores, picked, cls) == ("channel",)
    pooled = imp.rank_and_select(scores, 0.5, cls, global_pool=True)
    assert imp.tied_cuts(scores, pooled, cls, global_pool=True) == ("all",)
    assert imp.tied_cuts(scores, (), cls) == ()  # nothing pruned, no cut


def test_per_class_ratios_are_independent():
    scores = {0: 1.0, 1: 2.0, 2: 0.1, 3: 0.2, 4: 0.3, 5: 0.4}
    cls = {0: "head", 1: "head", 2: "channel", 3: "channel", 4: "channel", 5: "channel"}
    picked = imp.rank_and_select(scores, 0.5, cls)
    # one of two heads, two of four channels
    assert picked == (0, 2, 3)
    pooled = imp.rank_and_select(scores, 0.5, cls, global_pool=True)
    assert pooled == (2, 3, 4)


def test_negating_gradient_leaves_scores_unchanged():
    ps = ParamSet([("w", np.array([1.0, -2.0, 0.5]))])
    g = np.array([0.3, -0.4, 0.5])
    a = imp.element_importance({"w": g}, ps)
    b = imp.element_importance({"w": -g}, ps)
    assert np.array_equal(a["w"], b["w"])


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_selection_invariant_under_positive_scaling(c):
    scores = {0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0, 4: 2.5}
    cls = {g: "channel" for g in scores}
    base = imp.rank_and_select(scores, 0.4, cls)
    scaled = imp.rank_and_select({g: c * s for g, s in scores.items()}, 0.4, cls)
    assert base == scaled


class TestPruneModel:
    def setup_method(self):
        self.model = zoo.Mlp([4, 8, 3])
        self.params = self.model.init_params(7)
        self.groups = self.model.groups()
        self.structures = self.model.structures()
        rng = np.random.default_rng(0)
        self.X = rng.normal(size=(100, 4))

    def _logits(self, model, params, X):
        from proxprune import autodiff as ad

        # no tape needed: primitives evaluate eagerly on untracked tensors
        t = model.logits({n: ad.Tensor(a) for n, a in params}, X)
        return t.data

    def test_empty_prune_set_is_identity(self):
        m2, p2 = imp.prune_model(self.model, self.params, ())
        assert m2.widths == self.model.widths
        assert np.array_equal(self._logits(m2, p2, self.X), self._logits(self.model, self.params, self.X))

    def test_dead_channel_removal_preserves_outputs(self):
        params = self.params.copy()
        j = 5
        params["w0"][:, j] = 0.0
        params["b0"][j] = 0.0
        params["w1"][j, :] = 0.0
        scores = imp.element_importance({n: np.ones_like(a) for n, a in params}, params)
        struct_scores = imp.structure_importance(scores, self.structures)
        assert struct_scores[j] == 0.0  # exactly, all products vanish
        m2, p2 = imp.prune_model(self.model, params, (j,))
        before = self._logits(self.model, params, self.X)
        after = self._logits(m2, p2, self.X)
        assert np.max(np.abs(before - after)) <= 1e-12
        assert m2.widths == [4, 7, 3]

    def test_pruned_slices_predict_parameter_counts(self):
        m2, p2 = imp.prune_model(self.model, self.params, (0, 3))
        kept = [1, 2, 4, 5, 6, 7]
        assert np.array_equal(p2["w0"], self.params["w0"][:, kept])
        assert np.array_equal(p2["b0"], self.params["b0"][kept])
        assert np.array_equal(p2["w1"], self.params["w1"][kept, :])
        assert np.array_equal(p2["b1"], self.params["b1"])
        assert p2.size == self.params.size - 2 * 8  # two structures of 8 elements

    def test_would_empty_layer(self):
        with pytest.raises(imp.WouldEmptyLayerError, match="hidden1"):
            imp.prune_model(self.model, self.params, tuple(range(8)))

    def test_transformer_head_pruning_shrinks_blocks(self):
        model = zoo.TinyTransformer.build(16, 8, 2, 1, max_len=8)
        params = model.init_params(1)
        groups = model.groups()
        head_groups = [g.id for g in groups if g.cls == "head"]
        m2, p2 = imp.prune_model(model, params, (head_groups[0],))
        assert m2.a.heads == [1]
        assert np.array_equal(p2["l0.wq"], params["l0.wq"][:, 4:])
        assert np.array_equal(p2["l0.wo"], params["l0.wo"][4:, :])
        ids = np.random.default_rng(2).integers(0, 16, size=(2, 6))
        assert np.isfinite(zoo.batch_loss(m2, p2, ids))

    def test_whole_attention_block_cannot_vanish(self):
        model = zoo.TinyTransformer.build(16, 8, 2, 1, max_len=8)
        params = model.init_params(1)
        groups = model.groups()
        head_ids = tuple(g.id for g in groups if g.cls == "head")
        with pytest.raises(imp.WouldEmptyLayerError, match="attn"):
            imp.prune_model(model, params, head_ids)


def test_run_criterion_is_deterministic(corpus):
    model = zoo.Mlp([4 * 256, 8, 256])
    params = model.init_params(1)
    from proxprune import data

    batch, _ = data.make_batch(model, corpus, 4, seed=(2, 0, 0))
    kw = dict(settings=moreau.MoreauConfig(
        rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.05, m=2, seed=5)))
    (r1,) = imp.run_criterion("moreau", model, [params], batch, 0.25, **kw)
    (r2,) = imp.run_criterion("moreau", model, [params], batch, 0.25, **kw)
    assert r1.prune_set == r2.prune_set
    assert r1.group_scores == r2.group_scores


@pytest.mark.parametrize(
    "criterion, given",
    [("smooth", None), ("moreau", None), ("moreau-gs", None),
     ("moreau", NoiseSpec(scale=0.05, m=2, seed=0)), ("smooth", moreau.MoreauConfig())],
)
def test_run_criterion_needs_matching_settings(criterion, given):
    model = zoo.Mlp([4, 3, 2])
    params = model.init_params(0)
    batch = (np.ones((2, 4)), np.array([0, 1]))
    with pytest.raises(ValueError, match=f"criterion {criterion!r} needs a"):
        imp.run_criterion(criterion, model, [params], batch, 0.25, settings=given)


def test_report_csv_layout():
    rep = imp.ImportanceReport(
        criterion="plain", ratio=0.5,
        element_scores={}, structure_scores={0: 1.0, 1: 2.0},
        group_scores={0: 1.0, 1: 2.0}, cls_map={0: "channel", 1: "channel"},
        prune_set=(0,),
    )
    rows = rep.to_csv_rows()
    assert rows[0] == ["group_id", "class", "score", "pruned"]
    assert rows[1] == [0, "channel", repr(1.0), 1]
