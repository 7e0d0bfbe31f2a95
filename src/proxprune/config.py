"""Experiment configuration: a flat-sectioned INI file plus CLI overrides.

Grammar: standard INI as read by configparser -- ``[section]`` headers,
``key = value`` lines, ``#``/``;`` comments. Unknown sections or keys are
rejected so typos fail loudly. Every value has a default; seeds are always
explicit (no ambient entropy anywhere in a run).
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from .importance import CRITERIA
from .moreau import MoreauConfig
from .robustness import PerturbSpec
from .smoothing import NoiseSpec


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    # [model]
    model_kind: str = "mlp"  # "mlp" | "transformer"
    context: int = 4  # mlp: input bytes per sample
    hidden: tuple[int, ...] = (16,)  # mlp hidden widths
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 2
    # [data]
    corpus: str = ""
    seq_len: int = 128
    calib_size: int = 10
    holdout_size: int = 10
    # [train]
    epochs: int = 2
    lr: float = 0.05
    batch_size: int = 16
    steps_per_epoch: int = 25
    # [prune]
    criterion: str = "moreau"
    ratio: float = 0.2
    agg: str = "sum"
    global_pool: bool = False
    # [moreau]
    rho: float = 0.05
    gamma: float = 1e-3
    steps: int = 10
    eta: float = 5e-6
    gs_rho: float = 0.2
    gs_gamma: float = 2e-4
    # [noise]
    noise_scale: float = 0.05
    noise_mode: str = "relative"
    noise_m: int = 4
    smooth_m: int = 100
    # [robustness]
    specs: tuple[str, ...] = ("fp16:bf16",)
    criteria: tuple[str, ...] = ("plain", "moreau")
    epsilon: float = 0.01
    # [run]
    seed: int = 0
    out: str = "runs/out"

    def settings(self, criterion: str) -> NoiseSpec | MoreauConfig | None:
        """The settings ``importance.run_criterion`` takes for a criterion:
        none for plain, the smooth_m noise draws for smooth, the proximal
        loop for moreau and, with gs_rho, gs_gamma and the group penalty
        eta, for moreau-gs."""
        if criterion == "plain":
            return None
        noise = NoiseSpec(
            scale=self.noise_scale,
            m=self.smooth_m if criterion == "smooth" else self.noise_m,
            seed=self.seed,
            mode=self.noise_mode,
        )
        if criterion == "smooth":
            return noise
        if criterion == "moreau":
            return MoreauConfig(rho=self.rho, gamma=self.gamma, steps=self.steps, noise=noise)
        if criterion == "moreau-gs":
            return MoreauConfig(
                rho=self.gs_rho, gamma=self.gs_gamma, steps=self.steps, eta=self.eta, noise=noise
            )
        raise ConfigError(f"unknown criterion {criterion!r}")

    def experiments(self) -> list[tuple[PerturbSpec | None, PerturbSpec]]:
        """(baseline leg, perturbed leg) per entry of ``specs``.

        A plain name compares raw weights against that perturbation; the
        pair form ``a:b`` compares the two perturbations against each other
        (e.g. fp16:bf16); ``identity`` is a no-op perturbation.
        """

        def one(name: str) -> PerturbSpec:
            if name in ("fp16", "bf16"):
                return PerturbSpec(kind=f"{name}-roundtrip")
            if name == "gaussian":
                return PerturbSpec(kind="gaussian-ball", epsilon=self.epsilon, seed=self.seed)
            if name == "identity":
                return PerturbSpec(kind="gaussian-ball", epsilon=0.0, seed=self.seed)
            raise ConfigError(
                f"unknown perturbation spec {name!r} (fp16 | bf16 | gaussian | identity)"
            )

        out: list[tuple[PerturbSpec | None, PerturbSpec]] = []
        for s in self.specs:
            if ":" in s:
                a, b = s.split(":", 1)
                out.append((one(a.strip()), one(b.strip())))
            else:
                out.append((None, one(s.strip())))
        return out


_SECTIONS = {
    "model": {"kind": "model_kind", "context": "context", "hidden": "hidden",
              "d_model": "d_model", "n_heads": "n_heads", "n_layers": "n_layers"},
    "data": {"corpus": "corpus", "seq_len": "seq_len", "calib_size": "calib_size",
             "holdout_size": "holdout_size"},
    "train": {"epochs": "epochs", "lr": "lr", "batch_size": "batch_size",
              "steps_per_epoch": "steps_per_epoch"},
    "prune": {"criterion": "criterion", "ratio": "ratio", "agg": "agg",
              "global_pool": "global_pool"},
    "moreau": {"rho": "rho", "gamma": "gamma", "steps": "steps", "eta": "eta",
               "gs_rho": "gs_rho", "gs_gamma": "gs_gamma"},
    "noise": {"scale": "noise_scale", "mode": "noise_mode", "m": "noise_m",
              "smooth_m": "smooth_m"},
    "robustness": {"specs": "specs", "criteria": "criteria", "epsilon": "epsilon"},
    "run": {"seed": "seed", "out": "out"},
}


def _convert(value: str, like) -> object:
    if isinstance(like, bool):
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {value!r}")
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, tuple):
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if like and isinstance(like[0], int):
            return tuple(int(p) for p in parts)
        return tuple(parts)
    return value.strip()


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Parse the INI file (optional) and apply CLI overrides on top."""
    cfg = RunConfig()
    defaults = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(p.read_text("utf-8"))
        except configparser.Error as e:
            raise ConfigError(f"malformed config {path}: {e}") from e
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            keymap = _SECTIONS[section]
            for key, value in parser.items(section):
                if key not in keymap:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                attr = keymap[key]
                try:
                    setattr(cfg, attr, _convert(value, defaults[attr]))
                except (ValueError, ConfigError) as e:
                    raise ConfigError(f"[{section}] {key}: {e}") from e
    for attr, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, attr, value)
    _check(cfg)
    return cfg


def _check(cfg: RunConfig) -> None:
    if cfg.model_kind not in ("mlp", "transformer"):
        raise ConfigError(f"model kind must be mlp or transformer, got {cfg.model_kind!r}")
    if not (0.0 <= cfg.ratio < 1.0):
        raise ConfigError(f"pruning ratio must be in [0, 1), got {cfg.ratio}")
    for criterion in (cfg.criterion, *cfg.criteria):
        if criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {criterion!r} (one of {', '.join(CRITERIA)})")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.calib_size < 1 or cfg.seq_len < 2:
        raise ConfigError("calib_size must be >= 1 and seq_len >= 2")
