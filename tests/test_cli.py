import json
from pathlib import Path

import numpy as np
import pytest

from proxprune import checkpoint, cli, data, zoo
from proxprune.config import ConfigError, load_config
from proxprune.params import ParamSet

def write_cfg(tmp_path, corpus_file, extra=None, out="run", name="cfg.ini"):
    """Merged INI writer: ``extra`` maps section -> {key: value} overrides."""
    sections = {
        "run": {"seed": 7, "out": tmp_path / out},
        "model": {"kind": "mlp", "context": 4, "hidden": 12},
        "data": {"corpus": corpus_file},
        "train": {"epochs": 2, "lr": 0.5, "batch_size": 16, "steps_per_epoch": 8},
        "moreau": {"steps": 5},
        "noise": {"m": 2},
    }
    for section, kv in (extra or {}).items():
        sections.setdefault(section, {}).update(kv)
    text = "\n".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
        for s, kv in sections.items()
    )
    p = tmp_path / name
    p.write_text(text)
    return p


def scaled_ckpt(tmp_path, factor, name):
    """Untrained checkpoint of the write_cfg MLP with every weight times factor."""
    model = zoo.Mlp([data.mlp_feature_width(4), 12, data.VOCAB])
    params = ParamSet((n, a * factor) for n, a in model.init_params(7))
    path = tmp_path / name
    checkpoint.save(path, model.arch(), params, model.structures(), model.groups())
    return path


@pytest.fixture()
def trained_ckpt(tmp_path, corpus_file):
    cfg = write_cfg(tmp_path, corpus_file)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return cfg, tmp_path / "run" / "model.ckpt"


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path, corpus_file):
        cfg_path = write_cfg(tmp_path, corpus_file)
        cfg = load_config(str(cfg_path), {"seed": 11})
        assert cfg.seed == 11
        assert cfg.hidden == (12,)
        assert cfg.rho == 0.05  # untouched default

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[models]\nkind = mlp\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nkindd = mlp\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(p))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.ini")

    def test_ratio_bounds(self, tmp_path, corpus_file):
        cfg_path = write_cfg(tmp_path, corpus_file, extra={"prune": {"ratio": 1.0}})
        with pytest.raises(ConfigError, match="ratio"):
            load_config(str(cfg_path))

    def test_experiment_pairs(self, tmp_path, corpus_file):
        cfg_path = write_cfg(tmp_path, corpus_file, extra={"robustness": {"specs": "fp16:bf16,identity"}})
        cfg = load_config(str(cfg_path))
        (base, spec), (base2, spec2) = cfg.experiments()
        assert base.kind == "fp16-roundtrip" and spec.kind == "bf16-roundtrip"
        assert base2 is None and spec2.epsilon == 0.0


class TestTrain:
    def test_repeat_runs_are_byte_identical(self, tmp_path, corpus_file):
        cfg = write_cfg(tmp_path, corpus_file)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        first = (tmp_path / "run" / "model.ckpt").read_bytes()
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "model.ckpt").read_bytes() == first

    def test_empty_corpus_exits_2(self, tmp_path, corpus_file, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        cfg = write_cfg(tmp_path, corpus_file)
        rc = cli.main(["train", "--config", str(cfg), "--corpus", str(empty)])
        assert rc == cli.EXIT_CONFIG
        assert "empty corpus" in capsys.readouterr().err

    def test_missing_corpus_path_exits_2(self, tmp_path, corpus_file):
        cfg = write_cfg(tmp_path, corpus_file)
        rc = cli.main(["train", "--config", str(cfg),
                       "--corpus", str(tmp_path / "nowhere.txt")])
        assert rc == cli.EXIT_CONFIG

    def test_loss_lines_printed(self, tmp_path, corpus_file, capsys):
        cfg = write_cfg(tmp_path, corpus_file)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        init = float(out.split("initial loss")[1].split()[0])
        final = float(out.split("final loss")[1].split()[0])
        assert final < init


class TestPrune:
    def test_ratio_zero_keeps_counts(self, trained_ckpt, tmp_path, capsys):
        cfg, ckpt = trained_ckpt
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--ratio", "0.0", "--out", str(tmp_path / "p0")])
        assert rc == 0
        assert "pruned 0 of" in capsys.readouterr().out
        arch, params, *_ = checkpoint.load(tmp_path / "p0" / "pruned.ckpt")
        arch0, params0, *_ = checkpoint.load(ckpt)
        assert params.size == params0.size

    def test_ratio_drops_floor_per_class(self, trained_ckpt, tmp_path):
        cfg, ckpt = trained_ckpt
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--ratio", "0.25", "--out", str(tmp_path / "p25")])
        assert rc == 0
        doc = json.loads((tmp_path / "p25" / "importance.json").read_text())
        assert len(doc["prune_set"]) == int(0.25 * 12)

    def test_moreau_gs_records_eta_and_zero_count(self, trained_ckpt, tmp_path):
        cfg, ckpt = trained_ckpt
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--criterion", "moreau-gs", "--ratio", "0.2",
                       "--out", str(tmp_path / "gs")])
        assert rc == 0
        doc = json.loads((tmp_path / "gs" / "importance.json").read_text())
        assert doc["extra"]["eta"] == 5e-6
        assert doc["extra"]["zeroed_groups"] >= 0

    def test_reruns_byte_identical(self, trained_ckpt, tmp_path):
        cfg, ckpt = trained_ckpt
        for out in ("a", "b"):
            rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                           "--criterion", "moreau", "--ratio", "0.2",
                           "--out", str(tmp_path / out)])
            assert rc == 0
        for name in ("pruned.ckpt", "importance.json", "importance.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_missing_checkpoint_exits_2(self, tmp_path, corpus_file):
        cfg = write_cfg(tmp_path, corpus_file)
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint",
                       str(tmp_path / "missing.ckpt"), "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG

    def test_extreme_ratio_keeps_one_survivor(self, trained_ckpt, tmp_path):
        # floor(0.99 * 12) = 11 removed of 12: legal, one unit survives
        cfg, ckpt = trained_ckpt
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--ratio", "0.99", "--out", str(tmp_path / "deep")])
        assert rc == 0

    def test_would_empty_layer_exits_4(self, trained_ckpt, tmp_path, monkeypatch):
        """floor(r * n) < n for r < 1, so a healthy group table cannot empty a
        block through the CLI; the exit-code mapping is exercised by injecting
        the error at the prune boundary."""
        import proxprune.importance as imp

        cfg, ckpt = trained_ckpt

        def boom(*a, **kw):
            raise imp.WouldEmptyLayerError("hidden1")

        monkeypatch.setattr(cli.importance, "prune_model", boom)
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--ratio", "0.2", "--out", str(tmp_path / "boom")])
        assert rc == cli.EXIT_PRUNE

        # the guard itself, through the real function
        from proxprune import zoo

        arch, params, structures, groups, _ = checkpoint.load(ckpt)
        model = zoo.model_from_arch(arch)
        with pytest.raises(imp.WouldEmptyLayerError):
            imp.prune_model(model, params, structures, groups, tuple(g.id for g in groups))

    def test_divergent_config_exits_5(self, trained_ckpt, tmp_path, corpus_file):
        """A deliberately huge step size (with the matching huge rho, so the
        config invariant holds) overshoots the divergence guard on step one."""
        cfg_path = write_cfg(tmp_path, corpus_file, extra={"moreau": {"rho": 1e6, "gamma": 1e6}}, name="cfg_div.ini")
        _, ckpt = trained_ckpt
        rc = cli.main(["prune", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                       "--criterion", "moreau", "--ratio", "0.2",
                       "--out", str(tmp_path / "div")])
        assert rc == cli.EXIT_OPTIMIZER

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_smoothing_draw_exits_5(self, tmp_path, corpus_file, capsys):
        """Weights near the float64 limit overflow the forward pass of the
        first noisy draw; the smoothing error maps to exit 5, not a traceback."""
        cfg = write_cfg(tmp_path, corpus_file)
        ckpt = scaled_ckpt(tmp_path, 1e200, "huge.ckpt")
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--criterion", "smooth", "--out", str(tmp_path / "nf")])
        assert rc == cli.EXIT_OPTIMIZER
        err = capsys.readouterr().err
        assert "in draw 0" in err and "Traceback" not in err

    def test_gamma_exceeding_rho_exits_2(self, trained_ckpt, tmp_path, corpus_file):
        cfg_path = write_cfg(tmp_path, corpus_file, extra={"moreau": {"gamma": 1.0}}, name="cfg_gamma.ini")
        _, ckpt = trained_ckpt
        rc = cli.main(["prune", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                       "--criterion", "moreau", "--out", str(tmp_path / "badgamma")])
        assert rc == cli.EXIT_CONFIG


class TestRobustness:
    def test_identity_spec_all_jaccard_one(self, trained_ckpt, tmp_path):
        cfg, ckpt = trained_ckpt
        text = Path(cfg).read_text() + "\n[robustness]\nspecs = identity\ncriteria = plain,moreau\n"
        p2 = tmp_path / "cfg_identity.ini"
        p2.write_text(text)
        rc = cli.main(["robustness", "--config", str(p2), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rid")])
        assert rc == 0
        doc = json.loads((tmp_path / "rid" / "robustness.json").read_text())
        assert len(doc["rows"]) == 2
        assert all(r["jaccard"] == 1.0 for r in doc["rows"])
        assert all(r["importance_l2"] == 0.0 for r in doc["rows"])

    def test_format_grid_two_rows_and_csv(self, trained_ckpt, tmp_path):
        cfg, ckpt = trained_ckpt
        rc = cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rfmt")])
        assert rc == 0
        doc = json.loads((tmp_path / "rfmt" / "robustness.json").read_text())
        assert [r["criterion"] for r in doc["rows"]] == ["plain", "moreau"]
        csv_text = (tmp_path / "rfmt" / "robustness.csv").read_text().splitlines()
        assert csv_text[0].startswith("criterion,perturbation,baseline,")
        assert len(csv_text) == 3

    def test_fp16_overflow_exits_2(self, tmp_path, corpus_file, capsys):
        """Weights scaled by 1e6 leave the fp16 range inside a 2-d parameter;
        the overflow maps to exit 2 and names the flat index."""
        cfg = write_cfg(tmp_path, corpus_file)
        ckpt = scaled_ckpt(tmp_path, 1e6, "scaled.ckpt")
        rc = cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rover")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "overflows the finite fp16 range" in err and "flat index" in err
        assert "Traceback" not in err

    def test_strict_divergence_exits_5(self, trained_ckpt, tmp_path, corpus_file):
        cfg_path = write_cfg(tmp_path, corpus_file, extra={"moreau": {"rho": 1e6, "gamma": 1e6}}, name="cfg_rdiv.ini")
        _, ckpt = trained_ckpt
        rc = cli.main(["robustness", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                       "--strict", "--out", str(tmp_path / "rdiv")])
        assert rc == cli.EXIT_OPTIMIZER


class TestRecover:
    def test_lr_zero_changes_only_timestamp(self, trained_ckpt, tmp_path, corpus_file):
        cfg_path = write_cfg(tmp_path, corpus_file, extra={"train": {"lr": 0.0}}, name="cfg_lr0.ini")
        _, ckpt = trained_ckpt
        rc = cli.main(["recover", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rec")])
        assert rc == 0
        a_arch, a_params, *_ , a_meta = checkpoint.load(ckpt)
        b_arch, b_params, *_, b_meta = checkpoint.load(tmp_path / "rec" / "recovered.ckpt")
        assert a_arch == b_arch
        for (n1, x), (n2, y) in zip(a_params, b_params):
            assert n1 == n2 and x.tobytes() == y.tobytes()
        assert "created" in b_meta and "created" not in a_meta

    def test_two_epochs_do_not_increase_loss(self, trained_ckpt, tmp_path, capsys):
        cfg, ckpt = trained_ckpt
        rc = cli.main(["recover", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rec2")])
        assert rc == 0
        out = capsys.readouterr().out
        losses = [float(x) for x in out.split("epoch losses:")[1].splitlines()[0].split(",")]
        assert losses[-1] <= losses[0]

    def test_missing_input_exits_2(self, tmp_path, corpus_file):
        cfg = write_cfg(tmp_path, corpus_file)
        rc = cli.main(["recover", "--config", str(cfg),
                       "--checkpoint", str(tmp_path / "none.ckpt"),
                       "--out", str(tmp_path / "r")])
        assert rc == cli.EXIT_CONFIG


class TestTransformerPipeline:
    def test_train_prune_recover_roundtrip(self, tmp_path, corpus_file):
        """Per-class selection on the transformer: floor(r * heads) heads and
        floor(r * channels) channels come out, and recovery runs on the
        physically smaller model."""
        cfg = write_cfg(
            tmp_path, corpus_file,
            extra={
                "model": {"kind": "transformer", "d_model": 16, "n_heads": 4, "n_layers": 2},
                "data": {"corpus": corpus_file, "seq_len": 32, "calib_size": 4,
                         "holdout_size": 4},
                "train": {"epochs": 1, "lr": 0.1, "batch_size": 4, "steps_per_epoch": 3},
                "moreau": {"steps": 3},
            },
            name="cfg_tr.ini",
        )
        assert cli.main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--criterion", "plain", "--ratio", "0.25",
                       "--out", str(tmp_path / "tp")])
        assert rc == 0
        doc = json.loads((tmp_path / "tp" / "importance.json").read_text())
        pruned_heads = sum(1 for g in doc["groups"] if g["class"] == "head" and g["pruned"])
        pruned_chans = sum(1 for g in doc["groups"] if g["class"] == "channel" and g["pruned"])
        assert pruned_heads == int(0.25 * 8)
        assert pruned_chans == int(0.25 * 128)
        arch, params, *_ = checkpoint.load(tmp_path / "tp" / "pruned.ckpt")
        assert sum(arch["heads"]) == 8 - pruned_heads
        assert sum(arch["ffn"]) == 128 - pruned_chans
        rc = cli.main(["recover", "--config", str(cfg),
                       "--checkpoint", str(tmp_path / "tp" / "pruned.ckpt"),
                       "--out", str(tmp_path / "tr")])
        assert rc == 0
