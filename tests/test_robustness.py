import json

import numpy as np
import pytest

from proxprune import data, reports, robustness, zoo
from proxprune.moreau import MoreauConfig
from proxprune.robustness import (
    PerturbSpec,
    consistency_experiment,
    directional_comparisons,
    jaccard,
    perturb,
)
from proxprune.smoothing import NoiseSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        PerturbSpec(kind="fp8-roundtrip")
    with pytest.raises(ValueError):
        PerturbSpec(kind="gaussian-ball", epsilon=-1.0)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        PerturbSpec(kind="gaussian-ball", epsilon=float("nan"))


def test_zero_radius_ball_is_identity():
    params = zoo.Mlp([4, 5, 3]).init_params(0)
    out = perturb(params, PerturbSpec(kind="gaussian-ball", epsilon=0.0, seed=1))
    for (n1, a1), (n2, a2) in zip(params, out):
        assert np.array_equal(a1, a2)


def test_roundtrip_of_representable_params_is_identity():
    params = zoo.Mlp([4, 5, 3]).init_params(0)
    once = perturb(params, PerturbSpec(kind="fp16-roundtrip"))
    twice = perturb(once, PerturbSpec(kind="fp16-roundtrip"))
    for (n1, a1), (n2, a2) in zip(once, twice):
        assert np.array_equal(a1, a2)


def test_gaussian_ball_radius_is_exact():
    params = zoo.Mlp([6, 8, 4]).init_params(3)
    eps = 0.01
    out = perturb(params, PerturbSpec(kind="gaussian-ball", epsilon=eps, seed=7))
    delta = out.flatten() - params.flatten()
    assert abs(np.linalg.norm(delta) - eps) < 1e-12


def test_perturb_respects_prunable_subset():
    params = zoo.Mlp([4, 5, 3]).init_params(0)
    out = perturb(params, PerturbSpec(kind="bf16-roundtrip"), prunable={"w0"})
    assert not np.array_equal(out["w0"], params["w0"])
    assert np.array_equal(out["w1"], params["w1"])


def test_jaccard_conventions():
    assert jaccard((), ()) == 1.0
    assert jaccard((1, 2), (2, 3)) == pytest.approx(1 / 3)
    assert jaccard((1,), (1,)) == 1.0


@pytest.fixture(scope="module")
def small_setup(corpus):
    model = zoo.Mlp([4 * 256, 8, 256])
    params = model.init_params(5)
    batch, _ = data.make_batch(model, corpus, 6, seed=(3, 0, 0))
    return model, params, batch


def test_identity_perturbation_all_metrics_trivial(small_setup):
    model, params, batch = small_setup
    mcfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.05, m=2, seed=1))
    rows = consistency_experiment(
        model, params, batch,
        ("plain", "moreau"),
        PerturbSpec(kind="gaussian-ball", epsilon=0.0, seed=1),
        ratio=0.25,
        settings={"moreau": mcfg},
    )
    for r in rows:
        assert r.jaccard == 1.0
        assert r.importance_l2 == 0.0
        assert r.symdiff == 0
        assert r.delta_w_l2 == 0.0
        assert r.sensitivity == 0.0


def test_format_pair_experiment_produces_row_per_criterion(small_setup):
    model, params, batch = small_setup
    mcfg = MoreauConfig(rho=0.05, gamma=1e-3, steps=3, noise=NoiseSpec(scale=0.05, m=2, seed=1))
    rows = consistency_experiment(
        model, params, batch,
        ("plain", "moreau"),
        PerturbSpec(kind="bf16-roundtrip"),
        ratio=0.25,
        baseline_spec=PerturbSpec(kind="fp16-roundtrip"),
        settings={"moreau": mcfg},
    )
    assert [r.criterion for r in rows] == ["plain", "moreau"]
    for r in rows:
        assert r.delta_w_l2 > 0
        assert r.baseline_label == "fp16-roundtrip"
        assert 0.0 <= r.jaccard <= 1.0
    comps = directional_comparisons(rows)
    assert comps and comps[0]["comparison"] == "moreau<=plain"


def test_report_json_and_csv_round_trip(tmp_path, small_setup):
    model, params, batch = small_setup
    rows = consistency_experiment(
        model, params, batch,
        ("plain",),
        PerturbSpec(kind="fp16-roundtrip"),
        ratio=0.25,
    )
    doc = {
        "rows": [r.to_json_dict() for r in rows],
        "comparisons": directional_comparisons(rows),
        "calibration": {"starts": [0, 1], "size": 6},
    }
    reports.write_json(tmp_path / "rob.json", doc)
    loaded = json.loads((tmp_path / "rob.json").read_text())
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(loaded, reports.load_schema("robustness_report.schema.json"))

    csv_rows = [list(robustness.CSV_COLUMNS)] + [r.to_csv_row() for r in rows]
    reports.write_csv(tmp_path / "rob.csv", csv_rows)
    text = (tmp_path / "rob.csv").read_text()
    assert text.splitlines()[0] == ",".join(robustness.CSV_COLUMNS)


def test_importance_report_schema(tmp_path, small_setup):
    from proxprune import importance as imp

    model, params, batch = small_setup
    rep = imp.run_criterion("plain", model, params, batch, 0.25)
    reports.write_json(tmp_path / "imp.json", rep.to_json_dict())
    loaded = json.loads((tmp_path / "imp.json").read_text())
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(loaded, reports.load_schema("importance_report.schema.json"))


def test_schema_validator_rejects_bad_documents():
    schema = reports.load_schema("robustness_report.schema.json")
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"rows": [{}], "comparisons": []}, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"comparisons": []}, schema)
