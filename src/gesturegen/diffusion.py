"""DDPM noise schedule, closed-form forward sampling, and the
x0-parameterized ancestral reverse loop."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class DiffusionSchedule:
    """Precomputed per-step quantities for a linear-beta DDPM."""

    steps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    posterior_var: np.ndarray
    coef_x0: np.ndarray  # weight on predicted clean sample in the posterior mean
    coef_xt: np.ndarray  # weight on the current noisy sample


def build_schedule(steps: int, beta_start: float, beta_end: float) -> DiffusionSchedule:
    """Linear beta schedule with posterior coefficients for x0-prediction; needs
    steps >= 1 and 0 < beta_start <= beta_end < 1, as `config.load_config` checks."""
    beta = np.linspace(beta_start, beta_end, steps)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    alpha_bar_prev = np.concatenate(([1.0], alpha_bar[:-1]))
    one_minus = 1.0 - alpha_bar
    posterior_var = beta * (1.0 - alpha_bar_prev) / one_minus
    coef_x0 = np.sqrt(alpha_bar_prev) * beta / one_minus
    coef_xt = np.sqrt(alpha) * (1.0 - alpha_bar_prev) / one_minus
    return DiffusionSchedule(steps, beta, alpha, alpha_bar, posterior_var, coef_x0, coef_xt)


def q_sample(x0: np.ndarray, t: int, eps: np.ndarray, schedule: DiffusionSchedule) -> np.ndarray:
    """Closed-form noising: x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    if not 0 <= t < schedule.steps:
        raise IndexError(f"timestep {t} outside [0, {schedule.steps})")
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ShapeError(f"noise shape {eps.shape} differs from sample shape {x0.shape}")
    ab = schedule.alpha_bar[t]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def posterior_step_from_x0(x_t: np.ndarray, x0_hat: np.ndarray, t: int,
                           z: np.ndarray, schedule: DiffusionSchedule) -> np.ndarray:
    """One ancestral step x_t -> x_{t-1} given a clean-sample prediction.

    At t = 0 the chain terminates and returns x0_hat exactly.
    """
    if not 0 <= t < schedule.steps:
        raise IndexError(f"timestep {t} outside [0, {schedule.steps})")
    if t == 0:
        return np.asarray(x0_hat, dtype=np.float64).copy()
    mean = schedule.coef_x0[t] * x0_hat + schedule.coef_xt[t] * x_t
    return mean + np.sqrt(schedule.posterior_var[t]) * z


def sample_loop(denoiser, shape: tuple, schedule: DiffusionSchedule, seed: int) -> np.ndarray:
    """Full reverse chain from pure noise, deterministic given the seed.

    `denoiser(x_t, t)` must return a clean-sample prediction of the same
    shape as x_t; a conditioned denoiser closes over its condition.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    for t in range(schedule.steps - 1, -1, -1):
        x0_hat = np.asarray(denoiser(x, t), dtype=np.float64)
        if x0_hat.shape != x.shape:
            raise ShapeError(f"denoiser returned {x0_hat.shape}, expected {x.shape}")
        z = rng.standard_normal(shape) if t > 0 else np.zeros(shape)
        x = posterior_step_from_x0(x, x0_hat, t, z, schedule)
    return x
