"""Flat key=value experiment configuration with toy/paper presets.

Keys use section prefixes (e.g. train.steps). Values are typed by their
defaults; unknown keys are rejected so typos fail fast.
"""
from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .fileio import read_key_values

DEFAULTS = {
    "seed": 0,
    "data.dir": "",
    "data.gen_dir": "",
    "data.checkpoint": "",
    "synthetic.n_clips": 16,
    "synthetic.frames": 60,
    "synthetic.joints": 8,
    "synthetic.n_styles": 4,
    "synthetic.n_emotions": 8,
    "synthetic.d_audio": 24,
    "synthetic.d_text": 8,
    "synthetic.fps": 30.0,
    "model.d": 64,
    "model.layers": 8,
    "model.use_attention": True,
    "model.use_mamba": True,
    "model.use_conv": False,
    "model.residual": True,
    "model.window": 30,
    "model.n_state": 16,
    "model.expand": 2,
    "model.mode": "SEAD",
    "model.mask_prob": 0.1,
    "diffusion.steps": 50,
    "diffusion.beta_start": 1e-4,
    "diffusion.beta_end": 0.2,
    "train.steps": 300,
    "train.batch": 4,
    "train.lr": 2e-3,
    "train.weight_decay": 1e-4,
    "train.huber_delta": 1.0,
    "sample.n": 1,
    "sample.max_conditions": 4,
    "eval.sigma": 0.1,
    "eval.threshold": 0.2,
    "eval.n_diversity": 500,
    "eval.extractor_steps": 400,
    "eval.extractor_hidden": 64,
}

# The least value of each key that a run can use; below it a run crashes or silently does less.
MINIMUMS = {"train.steps": 1, "train.batch": 1, "sample.max_conditions": 0, "eval.n_diversity": 2}

# The paper-scale preset documents the reference hyperparameters; it is
# far too heavy for the bundled synthetic corpus and exists for
# completeness, not for the test suite.
PRESETS = {
    "toy": {},
    "paper": {
        "synthetic.frames": 300,
        "model.d": 256,
        "diffusion.steps": 1000,
        "diffusion.beta_end": 0.02,
        "train.steps": 40000,
        "train.batch": 400,
        "train.lr": 3e-5,
    },
}


def _coerce(key: str, raw):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("true", "1", "yes"):
            return True
        if str(raw).lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return type(default)(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected {type(default).__name__}, got {raw!r}")


def load_config(path=None, preset: str = "toy", overrides: dict | None = None) -> dict:
    """Defaults -> preset -> config file -> explicit overrides, then the range checks."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    cfg = dict(DEFAULTS)
    cfg.update(PRESETS[preset])
    layers = []
    if path:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        layers.append(read_key_values(path))
    if overrides:
        layers.append(overrides)
    for layer in layers:
        for key, raw in layer.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, raw)
    for key, least in MINIMUMS.items():
        if cfg[key] < least:
            raise ConfigError(f"{key} must be at least {least}, got {cfg[key]}")
    if cfg["eval.sigma"] <= 0:
        raise ConfigError(f"eval.sigma must be positive, got {cfg['eval.sigma']}")
    return cfg
