"""Flat key=value experiment configuration with toy/paper presets.

Keys use section prefixes (e.g. train.steps). Values are typed by their
defaults; unknown keys are rejected so typos fail fast.
"""
from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError
from .fileio import read_key_values
from .fusion import FUSION_MODES

DEFAULTS = {
    "seed": 0,
    "data.dir": "",
    "data.gen_dir": "",
    "data.checkpoint": "",
    "synthetic.n_clips": 16,
    "synthetic.frames": 60,
    "synthetic.joints": 8,
    "synthetic.n_styles": 4,
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
MINIMUMS = {"train.steps": 1, "train.batch": 1, "sample.n": 1, "sample.max_conditions": 0,
            "eval.n_diversity": 2, "eval.extractor_steps": 1, "eval.extractor_hidden": 1,
            "synthetic.n_clips": 1, "synthetic.frames": 3, "synthetic.joints": 1,
            "synthetic.n_styles": 1, "synthetic.d_audio": 1, "synthetic.d_text": 1,
            "model.d": 1, "model.n_state": 1, "model.expand": 1, "model.layers": 1,
            "model.window": 1, "diffusion.steps": 1, "seed": 0}

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
    """Defaults -> preset -> config file -> explicit overrides, then every rule on the values."""
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
    for key, value in cfg.items():  # NaN fails no range check below, so reject it here
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value}")
    for key, least in MINIMUMS.items():
        if cfg[key] < least:
            raise ConfigError(f"{key} must be at least {least}, got {cfg[key]}")
    for key in ("eval.sigma", "eval.threshold", "train.huber_delta", "synthetic.fps",
                "diffusion.beta_start"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]}")
    mode, mask, start, end = (cfg[k] for k in ("model.mode", "model.mask_prob",
                                                "diffusion.beta_start", "diffusion.beta_end"))
    for ok, message in [
            (mode in FUSION_MODES, f"model.mode must be one of {FUSION_MODES}, got {mode!r}"),
            (0 <= mask <= 1, f"model.mask_prob must be in [0, 1], got {mask}"),
            (start <= end, f"diffusion.beta_start must be at most diffusion.beta_end ({end}), "
                           f"got {start}"),
            (end < 1, f"diffusion.beta_end must be below 1, got {end}"),
            (cfg["model.use_attention"] or cfg["model.use_mamba"] or cfg["model.use_conv"],
             "model.use_attention must be true when model.use_mamba and model.use_conv are false")]:
        if not ok:
            raise ConfigError(message)
    return cfg
