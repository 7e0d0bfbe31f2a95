import configparser
import ctypes
import json
import math
import os
import re
import struct
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxprune import checkpoint, cli, config, data, importance, reports, robustness, zoo
from proxprune.config import ConfigError, RunConfig, load_config
from proxprune.moreau import MoreauConfig
from proxprune.params import ParamSet
from proxprune.smoothing import NoiseSpec

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


def crafted_ckpt(tmp_path, name, edit):
    """Checkpoint of the write_cfg MLP whose (params, structures, groups) pass
    through ``edit`` before saving."""
    model = zoo.Mlp([data.mlp_feature_width(4), 12, data.VOCAB])
    params, structures, groups = edit(model.init_params(7), model.structures(), model.groups())
    path = tmp_path / name
    checkpoint.save(path, model.arch(), params, structures, groups)
    return path


def rewritten_header_ckpt(tmp_path, name, model, edit):
    """Checkpoint of ``model`` whose JSON header passes through ``edit``."""
    path = tmp_path / name
    checkpoint.save(path, model.arch(), model.init_params(7), model.structures(), model.groups())
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(checkpoint.MAGIC + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])
    return path


def deep_mlp_ckpt(tmp_path):
    """Untrained checkpoint of the write_cfg MLP with hidden = 8,8."""
    model = zoo.Mlp([data.mlp_feature_width(4), 8, 8, data.VOCAB])
    path = tmp_path / "deep.ckpt"
    checkpoint.save(path, model.arch(), model.init_params(7), model.structures(), model.groups())
    return path


def _ten_bytes(tmp_path):
    path = tmp_path / "ten.ckpt"
    path.write_bytes(checkpoint.MAGIC + b"\0\0")
    return path


def _magic_only(tmp_path):
    path = tmp_path / "magic.ckpt"
    path.write_bytes(checkpoint.MAGIC)
    return path


def _no_params(tmp_path):
    model = zoo.Mlp([data.mlp_feature_width(4), 12, data.VOCAB])
    return rewritten_header_ckpt(tmp_path, "noparams.ckpt", model, lambda h: h.pop("params"))


def _mlp_without_widths(tmp_path):
    model = zoo.Mlp([data.mlp_feature_width(4), 12, data.VOCAB])
    return rewritten_header_ckpt(
        tmp_path, "nowidths.ckpt", model, lambda h: h.update(arch={"kind": "mlp"})
    )


def _transformer_without_max_len(tmp_path):
    model = zoo.TinyTransformer.build(data.VOCAB, 8, 2, 1, max_len=8)
    return rewritten_header_ckpt(
        tmp_path, "nomaxlen.ckpt", model, lambda h: h["arch"].pop("max_len")
    )


def _arch_with_unknown_key(tmp_path):
    model = zoo.Mlp([data.mlp_feature_width(4), 12, data.VOCAB])
    return rewritten_header_ckpt(
        tmp_path, "extrakey.ckpt", model, lambda h: h["arch"].update(depth=2)
    )


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

    @pytest.mark.parametrize(
        "section, values, message",
        [
            ("model", {"n_heads": 0}, "d_model, n_heads and n_layers must be >= 1"),
            ("model", {"d_model": 0}, "d_model, n_heads and n_layers must be >= 1"),
            ("model", {"d_model": 10}, "d_model 10 is not a multiple of n_heads 4"),
            ("model", {"n_layers": -1}, "d_model, n_heads and n_layers must be >= 1"),
            ("train", {"steps_per_epoch": 0}, "steps_per_epoch must be >= 1"),
        ],
        ids=["n_heads=0", "d_model=0", "d_model%n_heads", "n_layers=-1", "steps_per_epoch=0"],
    )
    def test_bad_geometry_exits_2(self, tmp_path, corpus_file, capsys, section, values, message):
        model = {"kind": "transformer", "d_model": 8, "n_heads": 4, "n_layers": 1}
        extra = {"model": model, "data": {"seq_len": 8}}
        extra.setdefault(section, {}).update(values)
        cfg = write_cfg(tmp_path, corpus_file, extra=extra)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_settings_per_criterion(self, tmp_path, corpus_file):
        extra = {"moreau": {"eta": 1e-4}, "noise": {"m": 3, "smooth_m": 7}}
        cfg = load_config(str(write_cfg(tmp_path, corpus_file, extra=extra)))
        assert cfg.settings("plain") is None
        assert cfg.settings("smooth") == NoiseSpec(scale=0.05, m=7, seed=7)
        noise = NoiseSpec(scale=0.05, m=3, seed=7)
        assert cfg.settings("moreau") == MoreauConfig(rho=0.05, gamma=1e-3, steps=5, noise=noise)
        assert cfg.settings("moreau-gs") == MoreauConfig(
            rho=config.GS_RHO, gamma=config.GS_GAMMA, steps=5, eta=1e-4, noise=noise
        )
        assert (config.GS_RHO, config.GS_GAMMA) == (0.2, 2e-4)

    def test_unknown_agg_exits_2(self, tmp_path, corpus_file, capsys):
        cfg = write_cfg(tmp_path, corpus_file, extra={"prune": {"agg": "max"}})
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown key 'agg'" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["prune", "robustness"])
    def test_global_pool_exits_2(self, tmp_path, corpus_file, capsys, command):
        """Groups are ranked per class only: an INI that asks for one shared
        pool is rejected with the key named, and nothing is written."""
        cfg = write_cfg(tmp_path, corpus_file, extra={"prune": {"global_pool": "true"}})
        ckpt = scaled_ckpt(tmp_path, 1.0, "model.ckpt")
        rc = cli.main([command, "--config", str(cfg), "--checkpoint", str(ckpt)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown key 'global_pool' in section [prune]" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["gs_rho", "gs_gamma"])
    @pytest.mark.parametrize("command", ["prune", "robustness"])
    def test_moreau_gs_step_keys_exit_2(self, tmp_path, corpus_file, capsys, command, key):
        """moreau-gs's rho and gamma are constants, not keys: an INI that sets
        one is rejected with the key named, and nothing is written."""
        cfg = write_cfg(tmp_path, corpus_file, extra={"moreau": {key: "0.3"}})
        ckpt = scaled_ckpt(tmp_path, 1.0, "model.ckpt")
        rc = cli.main([command, "--config", str(cfg), "--checkpoint", str(ckpt)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in section [moreau]" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("moreau", "gamma", "1.0", "gamma must satisfy 0 < gamma <= rho"),
            ("noise", "m", "0", "noise sample count m must be >= 1"),
            ("noise", "mode", "gaussian", "noise mode must be relative or absolute"),
        ],
        ids=["gamma>rho", "m=0", "mode=gaussian"],
    )
    def test_bad_criterion_setting_exits_2_in_train(
        self, tmp_path, corpus_file, capsys, section, key, value, message
    ):
        """[moreau] and [noise] are checked at load by every command, not
        only by those that run a criterion reading them."""
        cfg = write_cfg(tmp_path, corpus_file, extra={section: {key: value}})
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_bad_moreau_setting_exits_2_before_reading_inputs(self, tmp_path, capsys):
        """prune --criterion plain reads no [moreau] key, yet gamma > rho
        exits 2 before the (missing) checkpoint and corpus are opened."""
        cfg = write_cfg(tmp_path, tmp_path / "no-corpus.txt", extra={"moreau": {"gamma": 1.0}})
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(tmp_path / "no.ckpt"),
                       "--criterion", "plain"])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "gamma must satisfy 0 < gamma <= rho" in err and "not found" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("train", "epochs", "0", "[train] epochs must be >= 1"),
            ("train", "batch_size", "0", "[train] batch_size must be >= 1"),
            ("data", "holdout_size", "0", "calib_size and holdout_size must be >= 1"),
            ("train", "lr", "nan", "[train] lr must be finite and >= 0, got nan"),
            ("train", "lr", "inf", "[train] lr must be finite and >= 0, got inf"),
            ("train", "lr", "-1", "[train] lr must be finite and >= 0, got -1.0"),
            ("model", "context", "0", "[model] context and hidden must be >= 1"),
            ("model", "hidden", "0", "[model] context and hidden must be >= 1"),
            ("model", "hidden", "8,0", "[model] context and hidden must be >= 1"),
            ("model", "hidden", "", "with at least one hidden width"),
            ("robustness", "criteria", "plain,moreau,plain", "[robustness] criteria repeats 'plain'"),
            ("robustness", "specs", "fp16:bf16,fp16 : bf16", "[robustness] specs repeats 'fp16 : bf16'"),
        ],
        ids=["epochs=0", "batch_size=0", "holdout_size=0", "lr=nan", "lr=inf", "lr=-1",
             "context=0", "hidden=0", "hidden=8,0", "hidden=", "criteria-repeat", "specs-repeat"],
    )
    @pytest.mark.parametrize("command", ["train", "prune", "robustness"])
    def test_bad_count_or_rate_exits_2_before_reading_inputs(
        self, tmp_path, capsys, command, section, key, value, message
    ):
        """Every command checks the [train], [data] and mlp [model] counts, lr
        and the [robustness] lists at load, before the (missing) checkpoint
        and corpus are opened."""
        cfg = write_cfg(tmp_path, tmp_path / "no-corpus.txt", extra={section: {key: value}})
        argv = [command, "--config", str(cfg)]
        if command != "train":
            argv += ["--checkpoint", str(tmp_path / "no.ckpt")]
        if command == "prune":
            argv += ["--criterion", "plain"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert "not found" not in err and "No such file" not in err
        assert not (tmp_path / "run").exists()

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        """The README's INI block loads, shows every key and differs from
        RunConfig() only in its example corpus."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        loaded, defaults = load_config(str(path)), RunConfig()
        assert loaded.corpus != defaults.corpus
        assert replace(loaded, corpus=defaults.corpus) == defaults
        shown = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        shown.read_string(block)
        for section, keys in config._SECTIONS.items():
            assert set(keys) == set(shown[section]), section

    def test_unknown_robustness_criterion_rejected(self, tmp_path, corpus_file):
        extra = {"robustness": {"criteria": "plain,moreau-sg"}}
        with pytest.raises(ConfigError, match="unknown criterion 'moreau-sg'"):
            load_config(str(write_cfg(tmp_path, corpus_file, extra=extra)))

    @pytest.mark.parametrize("key", ["specs", "criteria"])
    def test_empty_robustness_list_rejected(self, tmp_path, corpus_file, key):
        extra = {"robustness": {key: ""}}
        with pytest.raises(ConfigError, match=rf"\[robustness\] {key} must name at least one entry"):
            load_config(str(write_cfg(tmp_path, corpus_file, extra=extra)))

    def test_unknown_spec_exits_2_in_train(self, tmp_path, corpus_file, capsys):
        cfg = write_cfg(tmp_path, corpus_file, extra={"robustness": {"specs": "fp32"}})
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown perturbation spec 'fp32'" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

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
    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_nonfinite_lr_exits_2(self, tmp_path, corpus_file, capsys, lr):
        cfg = write_cfg(tmp_path, corpus_file, extra={"train": {"lr": lr}})
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"lr must be finite and >= 0, got {lr}" in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_out_of_memory_exits_2(self, tmp_path, corpus_file, capsys, monkeypatch):
        """A model too large for memory (say [model] hidden = 100000000) ends
        in numpy's MemoryError. The error is injected: a real allocation
        of that size could get the process killed on an overcommitting
        machine."""

        def too_large(cfg):
            raise MemoryError("Unable to allocate 763. GiB for an array")

        monkeypatch.setattr(cli, "_build_model", too_large)
        cfg = write_cfg(tmp_path, corpus_file)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: out of memory: Unable to allocate 763. GiB" in err
        assert not (tmp_path / "run" / "model.ckpt").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("command", ["train", "recover"])
    def test_divergence_exits_3(self, tmp_path, corpus_file, capsys, command):
        cfg = write_cfg(tmp_path, corpus_file, extra={"train": {"lr": 1e300}})
        argv = [command, "--config", str(cfg)]
        if command == "recover":
            argv += ["--checkpoint", str(scaled_ckpt(tmp_path, 1.0, "start.ckpt"))]
        assert cli.main(argv) == cli.EXIT_TRAINING
        err = capsys.readouterr().err
        assert "training diverged: non-finite loss at epoch 0, step 1" in err
        assert not list((tmp_path / "run").glob("*.ckpt"))

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
        _, params, _ = checkpoint.load(tmp_path / "p0" / "pruned.ckpt")
        _, params0, _ = checkpoint.load(ckpt)
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

    def test_all_zero_scores_warn_of_the_tied_cut(self, trained_ckpt, tmp_path, corpus_file, capsys):
        """At eta 1 moreau-gs zeroes every group of the tiny MLP, so its one
        class is cut between equal scores: prune says so on stdout and the
        outputs are those of a run without the warning."""
        _, ckpt = trained_ckpt
        cfg = write_cfg(tmp_path, corpus_file, extra={"moreau": {"eta": 1.0}}, name="eta1.ini")
        argv = ["--config", str(cfg), "--checkpoint", str(ckpt), "--ratio", "0.25"]
        assert cli.main(["prune", *argv, "--criterion", "moreau-gs", "--out", str(tmp_path / "gs")]) == 0
        doc = json.loads((tmp_path / "gs" / "importance.json").read_text())
        assert {g["score"] for g in doc["groups"]} == {0.0}
        assert doc["prune_set"] == [0, 1, 2]  # the lowest ids of 12 groups
        warnings = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("warning:")]
        assert warnings == [
            "warning: moreau-gs: the prune cut of class channel falls between "
            "equal scores; the lower group ids were pruned"
        ]
        assert "tied" not in doc

        assert cli.main(["prune", *argv, "--criterion", "moreau", "--out", str(tmp_path / "m")]) == 0
        assert "warning:" not in capsys.readouterr().out

        text = cfg.read_text() + "\n[robustness]\nspecs = fp16:bf16\ncriteria = plain,moreau-gs\n"
        cfg.write_text(text)
        assert cli.main(["robustness", *argv, "--out", str(tmp_path / "r")]) == 0
        warnings = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("warning:")]
        assert warnings == [
            f"warning: moreau-gs on {leg}: the prune cut of class channel falls between "
            "equal scores; the lower group ids were pruned"
            for leg in ("fp16-roundtrip", "bf16-roundtrip")
        ]
        rows = json.loads((tmp_path / "r" / "robustness.json").read_text())["rows"]
        assert all("tied" not in row for row in rows)

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
        model, params, _ = checkpoint.load(ckpt)
        with pytest.raises(imp.WouldEmptyLayerError):
            imp.prune_model(model, params, tuple(g.id for g in model.groups()))

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

    @pytest.mark.parametrize(
        "section, key, criterion",
        [
            ("moreau", "rho", "moreau"),
            ("moreau", "eta", "moreau-gs"),
            ("noise", "scale", "smooth"),
            ("noise", "scale", "moreau"),
        ],
    )
    def test_infinite_setting_exits_2(self, tmp_path, corpus_file, capsys, section, key, criterion):
        cfg = write_cfg(tmp_path, corpus_file, extra={section: {key: "inf"}})
        ckpt = scaled_ckpt(tmp_path, 1.0, "start.ckpt")
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--criterion", criterion, "--out", str(tmp_path / "inf")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not (tmp_path / "inf").exists()

    def test_gamma_exceeding_rho_exits_2(self, trained_ckpt, tmp_path, corpus_file):
        cfg_path = write_cfg(tmp_path, corpus_file, extra={"moreau": {"gamma": 1.0}}, name="cfg_gamma.ini")
        _, ckpt = trained_ckpt
        rc = cli.main(["prune", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                       "--criterion", "moreau", "--out", str(tmp_path / "badgamma")])
        assert rc == cli.EXIT_CONFIG


class TestDamagedCheckpoint:
    """A checkpoint whose header is malformed, or whose parameters or tables
    do not fit its architecture, is rejected on load with exit 2, before any
    criterion runs."""

    def prune(self, tmp_path, corpus_file, ckpt, capsys):
        cfg = write_cfg(tmp_path, corpus_file)
        rc = cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return rc, err

    def test_renamed_parameter_exits_2(self, tmp_path, corpus_file, capsys):
        def rename(params, structures, groups):
            renamed = ParamSet(("bias1" if n == "b1" else n, a) for n, a in params)
            return renamed, structures, groups

        ckpt = crafted_ckpt(tmp_path, "renamed.ckpt", rename)
        rc, err = self.prune(tmp_path, corpus_file, ckpt, capsys)
        assert rc == cli.EXIT_CONFIG
        assert "'bias1'" in err and "do not match the architecture" in err

    def test_slice_of_unknown_parameter_exits_2(self, tmp_path, corpus_file, capsys):
        def bad_slice(params, structures, groups):
            st = structures[0]
            moved = replace(st, slices=(replace(st.slices[0], param="w9"), *st.slices[1:]))
            return params, [moved, *structures[1:]], groups

        ckpt = crafted_ckpt(tmp_path, "slice.ckpt", bad_slice)
        rc, err = self.prune(tmp_path, corpus_file, ckpt, capsys)
        assert rc == cli.EXIT_CONFIG
        assert 'group table structure entry 0 is [0, "hidden1", [["w9", 1, 0, 1]' in err

    def test_group_of_unknown_structure_exits_2(self, tmp_path, corpus_file, capsys):
        def bad_group(params, structures, groups):
            return params, structures, [replace(groups[0], structures=(999,)), *groups[1:]]

        ckpt = crafted_ckpt(tmp_path, "group.ckpt", bad_group)
        rc, err = self.prune(tmp_path, corpus_file, ckpt, capsys)
        assert rc == cli.EXIT_CONFIG
        assert (
            'group table group entry 0 is [0, "channel", [999]], '
            'the architecture\'s is [0, "channel", [0]]'
        ) in err

    @pytest.mark.parametrize(
        "make",
        [_ten_bytes, _magic_only, _no_params, _mlp_without_widths, _transformer_without_max_len,
         _arch_with_unknown_key],
    )
    def test_malformed_header_exits_2(self, tmp_path, corpus_file, capsys, make):
        rc, err = self.prune(tmp_path, corpus_file, make(tmp_path), capsys)
        assert rc == cli.EXIT_CONFIG
        assert "malformed checkpoint" in err

    def test_trailing_bytes_exit_2(self, tmp_path, corpus_file, capsys):
        ckpt = scaled_ckpt(tmp_path, 1.0, "long.ckpt")
        size = ckpt.stat().st_size
        ckpt.write_bytes(ckpt.read_bytes() + b"\0" * 7)
        rc, err = self.prune(tmp_path, corpus_file, ckpt, capsys)
        assert rc == cli.EXIT_CONFIG
        assert f"file is {size + 7} bytes, its header describes {size}" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [("d_model", 32.0, "'embed': dimension 32.0"), ("d_head", 8.0, "'l0.wq': dimension 8.0"),
         ("vocab", 256.0, "'embed': dimension 256.0"), ("max_len", 16.0, "'pos': dimension 16.0"),
         ("heads", [4.0], "'l0.wq': dimension 4.0"), ("d_head", 0, "'l0.wq': dimension 0 ")],
        ids=["d_model-float", "d_head-float", "vocab-float", "max_len-float", "heads-float",
             "d_head-zero"],
    )
    def test_non_integer_or_zero_arch_field_exits_2(
        self, tmp_path, corpus_file, capsys, field, value, message
    ):
        model = zoo.TinyTransformer.build(data.VOCAB, 32, 4, 1, max_len=16)
        ckpt = rewritten_header_ckpt(
            tmp_path, "arch.ckpt", model, lambda h: h["arch"].update({field: value})
        )
        rc, err = self.prune(tmp_path, corpus_file, ckpt, capsys)
        assert rc == cli.EXIT_CONFIG
        assert f"malformed checkpoint: ZooError(\"parameter {message}" in err

    def test_huge_arch_width_exits_2(self, tmp_path, corpus_file, capsys):
        """An arch whose hidden layer would need 7.3 PiB of weights is
        rejected on its parameter shapes; no weight is drawn."""
        model = zoo.Mlp([data.mlp_feature_width(4), 4, data.VOCAB])
        huge = [data.mlp_feature_width(4), 10**12, data.VOCAB]
        ckpt = rewritten_header_ckpt(
            tmp_path, "huge.ckpt", model, lambda h: h["arch"].update(widths=huge)
        )
        rc, err = self.prune(tmp_path, corpus_file, ckpt, capsys)
        assert rc == cli.EXIT_CONFIG
        assert ("parameter 'w0' has shape (1024, 4), "
                "the architecture's is (1024, 1000000000000)") in err

    @pytest.mark.parametrize("argv", [["prune", "--criterion", "moreau"], ["robustness"]])
    def test_transformer_without_layers_exits_2(self, tmp_path, corpus_file, capsys, argv):
        """A zero-layer transformer checkpoint, whose parameters fit its
        header, is rejected on load like [model] n_layers = 0."""
        model = zoo.TinyTransformer.build(data.VOCAB, 8, 2, 1, max_len=8)
        params = ParamSet((n, a) for n, a in model.init_params(7) if not n.startswith("l0."))
        ckpt = tmp_path / "nolayers.ckpt"
        checkpoint.save(ckpt, {**model.arch(), "heads": [], "ffn": []}, params, [], [])
        cfg = write_cfg(tmp_path, corpus_file, extra={"data": {"seq_len": 8}})
        rc = cli.main([argv[0], "--config", str(cfg), "--checkpoint", str(ckpt), *argv[1:]])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "malformed checkpoint" in err and "transformer needs at least one layer" in err
        assert "Traceback" not in err
        assert not list((tmp_path / "run").glob("*"))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "argv",
        [["prune", "--criterion", c] for c in ("plain", "smooth", "moreau", "moreau-gs")]
        + [["robustness"], ["recover"]],
        ids=lambda argv: "-".join(argv[::2]),
    )
    def test_nonfinite_weight_exits_2(self, tmp_path, corpus_file, capsys, argv, value):
        def poison(params, structures, groups):
            params["w1"].reshape(-1)[5] = value
            return params, structures, groups

        ckpt = crafted_ckpt(tmp_path, "poisoned.ckpt", poison)
        cfg = write_cfg(tmp_path, corpus_file)
        rc = cli.main([argv[0], "--config", str(cfg), "--checkpoint", str(ckpt), *argv[1:]])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"parameter 'w1' holds {value} at flat index 5" in err
        assert "Traceback" not in err
        assert not list((tmp_path / "run").glob("*"))


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

    def test_two_hidden_layers(self, tmp_path, corpus_file):
        """Channel u of hidden1 and channel v of hidden2 share w1[u, v], and
        the distances cover each prunable element once: the experiment runs,
        and a gaussian row's weight distance is its epsilon."""
        jsonschema = pytest.importorskip("jsonschema")
        extra = {
            "model": {"hidden": "8,8"},
            "robustness": {"specs": "fp16:bf16,gaussian", "criteria": "plain,smooth,moreau",
                           "epsilon": 0.02},
        }
        cfg = write_cfg(tmp_path, corpus_file, extra=extra)
        ckpt = deep_mlp_ckpt(tmp_path)
        rc = cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rdeep")])
        assert rc == 0
        doc = json.loads((tmp_path / "rdeep" / "robustness.json").read_text())
        jsonschema.validate(doc, reports.load_schema("robustness_report.schema.json"))
        assert [r["criterion"] for r in doc["rows"]] == ["plain", "smooth", "moreau"] * 2
        gaussian = [r for r in doc["rows"] if r["perturbation"] == "gaussian-ball(eps=0.02)"]
        assert len(gaussian) == 3
        for r in gaussian:
            assert r["delta_w_l2"] == pytest.approx(0.02, rel=1e-9, abs=0)

    @pytest.mark.parametrize(
        "argv", [["prune", "--criterion", "moreau-gs"], ["robustness"]], ids=["prune", "robustness"]
    )
    def test_moreau_gs_on_two_hidden_layers_exits_2(self, tmp_path, corpus_file, capsys, argv):
        """moreau-gs needs disjoint structures; the message names two that
        share a weight, one from each hidden layer, and that weight's index."""
        extra = {"model": {"hidden": "8,8"}, "robustness": {"criteria": "plain,moreau-gs"}}
        cfg = write_cfg(tmp_path, corpus_file, extra=extra)
        ckpt = deep_mlp_ckpt(tmp_path)
        rc = cli.main([argv[0], "--config", str(cfg), "--checkpoint", str(ckpt), *argv[1:]])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        found = re.search(
            r"moreau-gs needs disjoint prune structures: layout subsets must be disjoint: "
            r"(\d+) and (\d+) share index (\d+)$",
            err.strip(),
        )
        assert found
        a, b, index = map(int, found.groups())
        model, params, _ = checkpoint.load(ckpt)
        blocks = {st.id: st.block for st in model.structures()}
        assert (blocks[a], blocks[b]) == ("hidden1", "hidden2")
        w1 = params.offsets()["w1"]
        assert w1 <= index < w1 + params["w1"].size
        assert not list((tmp_path / "run").glob("*"))

    def test_fp16_overflow_exits_2(self, tmp_path, corpus_file, capsys):
        """One weight outside the fp16 range inside the 2-d parameter w1
        (shape 12 x 256) maps to exit 2; the message names the parameter and
        the flat index within it."""
        def spike(params, structures, groups):
            params["w1"][3, 5] = 7e4
            return params, structures, groups

        cfg = write_cfg(tmp_path, corpus_file)
        ckpt = crafted_ckpt(tmp_path, "spike.ckpt", spike)
        rc = cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rover")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert (
            "parameter 'w1': value 70000.0 at flat index 773 "
            "overflows the finite fp16 range"
        ) in err
        assert "Traceback" not in err

    def test_gaussian_without_prunable_weights_exits_2(
        self, tmp_path, corpus_file, capsys, monkeypatch
    ):
        """A model without prune structures leaves the gaussian ball no
        direction to scale to its radius."""
        monkeypatch.setattr(zoo.Mlp, "structures", lambda self: [])
        monkeypatch.setattr(zoo.Mlp, "groups", lambda self: [])
        cfg = write_cfg(tmp_path, corpus_file, extra={"robustness": {"specs": "gaussian"}})
        ckpt = scaled_ckpt(tmp_path, 1.0, "bare.ckpt")
        rc = cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rbare")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "needs prunable weights" in err and "Traceback" not in err

    def test_infinite_epsilon_exits_2(self, tmp_path, corpus_file, capsys):
        extra = {"robustness": {"specs": "gaussian", "criteria": "moreau", "epsilon": "inf"}}
        cfg = write_cfg(tmp_path, corpus_file, extra=extra)
        ckpt = scaled_ckpt(tmp_path, 1.0, "start.ckpt")
        rc = cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "rinf")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "epsilon must be >= 0 and finite" in err and "Traceback" not in err
        assert not (tmp_path / "rinf").exists()

    def test_distance_whose_sum_of_squares_overflows_is_finite(self, tmp_path, corpus_file, capsys):
        """At rho = gamma = 1e-300 moreau's element scores are about 2e283, so
        the sum of squares inside np.linalg.norm overflows although each
        distance is finite. robustness exits 0, warns of nothing, and writes
        moreau's |dI| as math.hypot gives it over the two score vectors."""
        extra = {
            "model": {"hidden": 8},
            "moreau": {"rho": 1e-300, "gamma": 1e-300, "steps": 2},
            "robustness": {"criteria": "plain,moreau"},
        }
        cfg_path = write_cfg(tmp_path, corpus_file, extra=extra)
        model = zoo.Mlp([data.mlp_feature_width(4), 8, data.VOCAB])
        ckpt = tmp_path / "h8.ckpt"
        checkpoint.save(ckpt, model.arch(), model.init_params(7), model.structures(), model.groups())
        out = tmp_path / "rbig"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["robustness", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                           "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        rows = json.loads((out / "robustness.json").read_text())["rows"]
        for row in rows:
            for key in ("importance_l2", "importance_rel", "delta_w_l2", "sensitivity"):
                assert math.isfinite(row[key]), (row["criterion"], key)

        cfg = cli.load(str(cfg_path), {})
        model, params, _ = cli.load_checkpoint(str(ckpt))
        batch, _ = cli.calibration_batch(model, data.load_corpus(cfg.corpus), cfg)
        ((baseline, spec),) = cfg.experiments()
        prunable = {s.param for structure in model.structures() for s in structure.slices}
        legs = [robustness.perturb(params, sp, prunable) for sp in (baseline, spec)]
        scores = [
            np.concatenate([r.element_scores[n].reshape(-1) for n in params.names if n in prunable])
            for r in importance.run_criterion("moreau", model, legs, batch, cfg.ratio,
                                              settings=cfg.settings("moreau"))
        ]
        assert np.max(np.abs(scores[0])) > 1e154  # its square overflows
        assert rows[1]["criterion"] == "moreau"
        assert rows[1]["importance_l2"] == math.hypot(*(scores[0] - scores[1]))

    @pytest.mark.parametrize(
        "criteria, failed, code",
        [("plain,smooth,moreau", "smooth<=plain", cli.EXIT_STRICT), ("plain,moreau", None, cli.EXIT_OK)],
    )
    def test_strict_exits_6_on_a_failed_comparison(
        self, trained_ckpt, tmp_path, corpus_file, capsys, criteria, failed, code
    ):
        """--strict exits 6 when a directional comparison fails and changes
        nothing else: both reports are written, with the bytes of the same run
        without --strict, which exits 0. On this checkpoint smooth's
        importance_rel (9.27e-4) exceeds plain's (9.22e-4); moreau's is below."""
        cfg = write_cfg(tmp_path, corpus_file, extra={"robustness": {"criteria": criteria}},
                        name="cfg_strict.ini")
        _, ckpt = trained_ckpt
        written = []
        for strict, rc in (["--strict"], code), ([], cli.EXIT_OK):
            out = tmp_path / f"r{len(written)}"
            assert cli.main(["robustness", "--config", str(cfg), "--checkpoint", str(ckpt),
                             "--out", str(out), *strict]) == rc
            lines = capsys.readouterr().out.splitlines()
            assert [l for l in lines if l.endswith(": FAILED")] == (
                [f"directional {failed}: FAILED"] if failed else []
            )
            written.append([(out / n).read_bytes() for n in ("robustness.json", "robustness.csv")])
        assert written[0] == written[1]

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
        a_model, a_params, a_meta = checkpoint.load(ckpt)
        b_model, b_params, b_meta = checkpoint.load(tmp_path / "rec" / "recovered.ckpt")
        assert a_model.arch() == b_model.arch()
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
        model, _, _ = checkpoint.load(tmp_path / "tp" / "pruned.ckpt")
        assert sum(model.arch()["heads"]) == 8 - pruned_heads
        assert sum(model.arch()["ffn"]) == 128 - pruned_chans
        rc = cli.main(["recover", "--config", str(cfg),
                       "--checkpoint", str(tmp_path / "tp" / "pruned.ckpt"),
                       "--out", str(tmp_path / "tr")])
        assert rc == 0


EXIT_CODES = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_TRAINING, cli.EXIT_PRUNE,
              cli.EXIT_OPTIMIZER, cli.EXIT_STRICT}


class TestExitCodeFuzz:
    """Damaged checkpoints and odd integer settings end in a documented exit
    code; no exception escapes ``cli.main``."""

    @pytest.fixture(scope="class")
    def prune_setup(self, tmp_path_factory, corpus_file):
        tmp = tmp_path_factory.mktemp("fuzz_prune")
        cfg = write_cfg(tmp, corpus_file, extra={
            "model": {"hidden": 3},
            "data": {"calib_size": 2, "holdout_size": 2},
            "prune": {"criterion": "plain"},
        })
        model = zoo.Mlp([data.mlp_feature_width(4), 3, data.VOCAB])
        good = tmp / "good.ckpt"
        checkpoint.save(good, model.arch(), model.init_params(0), model.structures(), model.groups())
        return tmp, cfg, good.read_bytes()

    def prune(self, setup, raw: bytes) -> int:
        tmp, cfg, _ = setup
        ckpt = tmp / "fuzzed.ckpt"
        ckpt.write_bytes(raw)
        return cli.main(["prune", "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--out", str(tmp / "out")])

    @given(draw=st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated_checkpoint(self, prune_setup, draw):
        raw = prune_setup[2]
        cut = draw.draw(st.integers(0, len(raw)), label="cut")
        assert self.prune(prune_setup, raw[:cut]) in EXIT_CODES

    @given(draw=st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_header_byte(self, prune_setup, draw):
        raw = prune_setup[2]
        (hlen,) = struct.unpack("<Q", raw[8:16])
        pos = draw.draw(st.integers(0, 16 + hlen - 1), label="pos")
        byte = draw.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]), label="byte")
        damaged = raw[:pos] + bytes([byte]) + raw[pos + 1 :]
        assert self.prune(prune_setup, damaged) in EXIT_CODES

    @given(
        kind=st.sampled_from(["mlp", "transformer"]),
        values=st.fixed_dictionaries({
            "context": st.integers(1, 3), "hidden": st.integers(1, 4),
            "d_model": st.integers(1, 8), "n_heads": st.integers(1, 4),
            "n_layers": st.integers(1, 2), "epochs": st.integers(1, 2),
            "batch_size": st.integers(1, 3), "steps_per_epoch": st.integers(1, 2),
        }),
        bad=st.none() | st.tuples(
            st.sampled_from(["context", "hidden", "d_model", "n_heads", "n_layers",
                             "epochs", "batch_size", "steps_per_epoch"]),
            st.integers(-2, 0),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_integer_settings_through_train(self, tmp_path_factory, corpus_file, kind, values, bad):
        """Every key in range, or one of them at zero or below."""
        if bad is not None:
            values[bad[0]] = bad[1]
        model_keys = ("context", "hidden", "d_model", "n_heads", "n_layers")
        tmp = tmp_path_factory.mktemp("fuzz_train")
        cfg = write_cfg(tmp, corpus_file, extra={
            "model": {"kind": kind, **{k: values[k] for k in model_keys}},
            "data": {"seq_len": 8},
            "train": {k: v for k, v in values.items() if k not in model_keys},
        })
        assert cli.main(["train", "--config", str(cfg)]) in EXIT_CODES


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return True


def test_run_keeps_freed_heap(monkeypatch):
    """cli.run applies the heap setting before its command runs, so a
    script that enters through it (scripts/study.py) gets it as main does."""
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append("heap"))
    assert cli.run(lambda: calls.append("command") or cli.EXIT_OK) == cli.EXIT_OK
    assert calls == ["heap", "command"]


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc mallopt")
def test_main_keeps_freed_tape_memory_mapped():
    """After cli.main has run (here one that exits 2 on a missing config), a
    transformer gradient pass reuses the pages earlier passes freed: passes
    3-4 fault in under 1% of the pages pass 1 did (pass 2 still places a few
    blocks anew). Without the setting every pass faults in about as many as
    pass 1. It runs in a fresh process, since the setting holds
    process-wide.

    A later pass may still place its blocks on pages no pass has touched
    (by 0.25-0.9 MB, in whichever pass the process's earlier allocations,
    its environment and paths among them, happen to lead to), and they fault
    in once. That is new memory, not freed memory faulted back, so the pages
    by which the resident set grew during a pass are not counted against it.
    It is the resident set, not glibc's heap size, that counts: glibc extends
    its heap 128 KiB beyond each request, and a pass may first touch pages
    that an earlier pass added to the heap."""
    script = textwrap.dedent("""
        import json, resource
        import numpy as np
        from proxprune import autodiff as ad, cli, zoo

        def resident_pages():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1])

        assert cli.main(["train", "--config", "missing.ini"]) == 2
        model = zoo.TinyTransformer.build(256, 32, 4, 2, max_len=128)
        params = dict(model.init_params(0))
        batch = np.random.default_rng(0).integers(0, 256, size=(4, 128))
        faults, grown = [], []
        for _ in range(4):
            before, held = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, resident_pages()
            ad.gradient(model.loss, params, batch)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            grown.append(resident_pages() - held)
        print(json.dumps([faults, grown]))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    faults, grown = json.loads(run.stdout.splitlines()[-1])
    refaults = sum(faults[2:]) - sum(grown[2:])
    assert refaults < 0.01 * faults[0], (faults, grown)
