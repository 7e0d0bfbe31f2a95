import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxprune import importance as imp
from proxprune import moreau, objectives, zoo
from proxprune.params import ParamSet, PruneGroup, PruneStructure, Slice
from proxprune.smoothing import NoiseSpec


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
    ps = objectives.wrap([2.0, -4.0])
    res = moreau.moreau_grad(objectives.Quadratic(), ps, None, cfg)
    scores = imp.element_importance(res.mg, ps)
    assert np.allclose(scores["w"], [2.0, 8.0], atol=1e-6)


def test_element_importance_shape_mismatch():
    ps = ParamSet([("w", np.ones(3))])
    with pytest.raises(ValueError):
        imp.element_importance({"w": np.ones(4)}, ps)


def test_structure_importance_sums_slices():
    scores = {"w": np.array([[0.5, 1.0], [0.25, 0.25]])}
    st_ = PruneStructure(id=0, slices=(Slice("w", 1, 0, 1),), block="h")
    out = imp.structure_importance(scores, [st_])
    assert out[0] == pytest.approx(0.75)


def test_empty_structure_warns_and_scores_zero():
    st_ = PruneStructure(id=3, slices=(), block="h")
    with pytest.warns(UserWarning):
        out = imp.structure_importance({}, [st_])
    assert out[3] == 0.0


def test_structure_importance_bounds_checked():
    st_ = PruneStructure(id=0, slices=(Slice("w", 1, 0, 9),), block="h")
    with pytest.raises(ValueError):
        imp.structure_importance({"w": np.ones((2, 2))}, [st_])


def test_group_importance_aggregators():
    scores = {0: 1.5, 1: 0.5}
    groups = [PruneGroup(id=0, structures=(0, 1), cls="channel")]
    assert imp.group_importance(scores, groups, "sum")[0] == 2.0
    assert imp.group_importance(scores, groups, "max")[0] == 1.5
    assert imp.group_importance(scores, groups, "prod")[0] == 0.75
    single = [PruneGroup(id=1, structures=(0,), cls="channel")]
    for agg in ("sum", "max", "prod"):
        assert imp.group_importance(scores, single, agg)[1] == 1.5


def test_rank_and_select_basics():
    scores = {0: 3.0, 1: 1.0, 2: 2.0, 3: 4.0}
    cls = {g: "channel" for g in scores}
    assert imp.rank_and_select(scores, 0.0, cls) == ()
    assert imp.rank_and_select(scores, 0.5, cls) == (1, 2)
    with pytest.raises(ValueError):
        imp.rank_and_select(scores, 1.0, cls)


def test_tie_at_cutoff_prefers_lower_id():
    scores = {0: 1.0, 1: 1.0, 2: 5.0, 3: 6.0}
    cls = {g: "channel" for g in scores}
    assert imp.rank_and_select(scores, 0.25, cls) == (0,)


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
        self.model, self.params, self.groups = zoo.build_mlp([4, 8, 3], seed=7)
        self.structures = self.model.structures()
        rng = np.random.default_rng(0)
        self.X = rng.normal(size=(100, 4))

    def _logits(self, model, params, X):
        from proxprune import autodiff as ad

        # no tape needed: primitives evaluate eagerly on untracked tensors
        t = model.logits({n: ad.Tensor(a) for n, a in params}, X)
        return t.data

    def test_empty_prune_set_is_identity(self):
        m2, p2, maps = imp.prune_model(self.model, self.params, self.structures, self.groups, ())
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
        m2, p2, _ = imp.prune_model(self.model, params, self.structures, self.groups, (j,))
        before = self._logits(self.model, params, self.X)
        after = self._logits(m2, p2, self.X)
        assert np.max(np.abs(before - after)) <= 1e-12
        assert m2.widths == [4, 7, 3]

    def test_index_maps_predict_parameter_counts(self):
        m2, p2, maps = imp.prune_model(self.model, self.params, self.structures, self.groups, (0, 3))
        for name, a2 in p2:
            expected = tuple(len(maps[name][ax]) for ax in range(a2.ndim))
            assert a2.shape == expected
        assert p2.size == self.params.size - 2 * 8  # two structures of 8 elements

    def test_would_empty_layer(self):
        with pytest.raises(imp.WouldEmptyLayerError, match="hidden1"):
            imp.prune_model(self.model, self.params, self.structures, self.groups, tuple(range(8)))

    def test_transformer_head_pruning_shrinks_blocks(self):
        model, params, groups = zoo.build_tiny_transformer(16, 8, 2, 1, seed=1, max_len=8)
        structures = model.structures()
        head_groups = [g.id for g in groups if g.cls == "head"]
        m2, p2, _ = imp.prune_model(model, params, structures, groups, (head_groups[0],))
        assert m2.a.heads == [1]
        assert p2["l0.wq"].shape == (8, 4)
        assert p2["l0.wo"].shape == (4, 8)
        ids = np.random.default_rng(2).integers(0, 16, size=(2, 6))
        assert np.isfinite(zoo.batch_loss(m2, p2, ids))

    def test_whole_attention_block_cannot_vanish(self):
        model, params, groups = zoo.build_tiny_transformer(16, 8, 2, 1, seed=1, max_len=8)
        head_ids = tuple(g.id for g in groups if g.cls == "head")
        with pytest.raises(imp.WouldEmptyLayerError, match="attn"):
            imp.prune_model(model, params, model.structures(), groups, head_ids)


def test_run_criterion_is_deterministic(corpus):
    model = zoo.Mlp([4 * 256, 8, 256])
    params = model.init_params(1)
    from proxprune import data

    batch, _ = data.make_batch(model, corpus, 4, seed=(2, 0, 0))
    kw = dict(agg="sum", settings=moreau.MoreauConfig(
        rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.05, m=2, seed=5)))
    r1 = imp.run_criterion("moreau", model, params, model.structures(), model.groups(), batch, 0.25, **kw)
    r2 = imp.run_criterion("moreau", model, params, model.structures(), model.groups(), batch, 0.25, **kw)
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
        imp.run_criterion(criterion, model, params, model.structures(), model.groups(),
                          batch, 0.25, settings=given)


def test_report_csv_layout():
    rep = imp.ImportanceReport(
        criterion="plain", ratio=0.5, agg="sum",
        element_scores={}, structure_scores={0: 1.0, 1: 2.0},
        group_scores={0: 1.0, 1: 2.0}, cls_map={0: "channel", 1: "channel"},
        prune_set=(0,),
    )
    rows = rep.to_csv_rows()
    assert rows[0] == ["group_id", "class", "score", "pruned"]
    assert rows[1] == [0, "channel", repr(1.0), 1]
