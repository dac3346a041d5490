"""Noise schedule, forward marginals, and the reverse chain."""
import numpy as np
import pytest

from gesturegen import diffusion as df
from gesturegen.errors import ShapeError


def test_schedule_shapes_and_monotonicity():
    s = df.build_schedule(100, 1e-4, 0.02)
    assert s.beta.shape == (100,)
    assert s.beta[0] == pytest.approx(1e-4) and s.beta[-1] == pytest.approx(0.02)
    assert np.all(np.diff(s.alpha_bar) < 0)  # strictly decreasing
    assert np.all(s.posterior_var >= 0)


def test_schedule_single_step():
    s = df.build_schedule(1, 0.1, 0.1)
    assert s.alpha_bar[0] == pytest.approx(0.9)


def test_q_sample_closed_form(rng):
    s = df.build_schedule(50, 1e-4, 0.2)
    x0 = rng.normal(0, 1, (4, 3))
    eps = rng.normal(0, 1, (4, 3))
    got = df.q_sample(x0, 7, eps, s)
    ab = s.alpha_bar[7]
    assert np.allclose(got, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps, atol=1e-14)
    with pytest.raises(IndexError):
        df.q_sample(x0, 50, eps, s)
    with pytest.raises(ShapeError):
        df.q_sample(x0, 0, eps[:2], s)


def test_posterior_t0_returns_x0_exactly(rng):
    s = df.build_schedule(10, 1e-4, 0.2)
    x0_hat = rng.normal(0, 1, (3, 2))
    out = df.posterior_step_from_x0(rng.normal(0, 1, (3, 2)), x0_hat, 0,
                                    rng.normal(0, 1, (3, 2)), s)
    assert np.array_equal(out, x0_hat)
    assert out is not x0_hat  # copy, not alias


def test_posterior_coefficients_sum():
    # with x0_hat == x_t the posterior mean must reproduce the usual
    # DDPM identity: coef_x0 + coef_xt * sqrt-ratio structure collapses
    s = df.build_schedule(100, 1e-4, 0.02)
    t = 42
    ab, abp = s.alpha_bar[t], s.alpha_bar[t - 1]
    want_c0 = np.sqrt(abp) * s.beta[t] / (1 - ab)
    want_ct = np.sqrt(s.alpha[t]) * (1 - abp) / (1 - ab)
    assert s.coef_x0[t] == pytest.approx(want_c0, rel=1e-12)
    assert s.coef_xt[t] == pytest.approx(want_ct, rel=1e-12)


def test_oracle_reverse_loop_recovers_x0(rng):
    x0 = rng.normal(0, 1, (6, 4))
    s = df.build_schedule(50, 1e-4, 0.2)
    out = df.sample_loop(lambda x, t: x0, x0.shape, s, seed=3)
    assert np.abs(out - x0).max() < 1e-6


def test_zero_noise_chain_converges(rng):
    x0 = rng.normal(0, 1, (4, 3))
    s = df.build_schedule(200, 1e-4, 0.02)
    x = rng.normal(0, 1, x0.shape) * 5.0
    z = np.zeros_like(x0)
    for t in range(199, -1, -1):
        x = df.posterior_step_from_x0(x, x0, t, z, s)
    assert np.abs(x - x0).max() < 1e-6


def test_constant_zero_denoiser(rng):
    s = df.build_schedule(30, 1e-4, 0.2)
    out = df.sample_loop(lambda x, t: np.zeros_like(x), (5, 2), s, seed=1)
    assert np.array_equal(out, np.zeros((5, 2)))


def test_sample_loop_deterministic():
    s = df.build_schedule(20, 1e-4, 0.2)
    den = lambda x, t: 0.5 * x
    a = df.sample_loop(den, (4, 4), s, seed=9)
    b = df.sample_loop(den, (4, 4), s, seed=9)
    c = df.sample_loop(den, (4, 4), s, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_loop_checks_denoiser_shape():
    s = df.build_schedule(5, 1e-4, 0.2)
    with pytest.raises(ShapeError):
        df.sample_loop(lambda x, t: x[:1], (4, 2), s, seed=0)


def test_forward_marginal_monte_carlo(rng):
    """Iterative one-step noising composes to the closed-form marginal."""
    T = 200
    s = df.build_schedule(T, 1e-4, 0.02)
    n = 20000
    x0 = 1.0
    for t_check in (1, 50, 199):
        x = np.full(n, x0)
        for t in range(t_check + 1):
            x = np.sqrt(1 - s.beta[t]) * x + np.sqrt(s.beta[t]) * rng.standard_normal(n)
        mean_want = np.sqrt(s.alpha_bar[t_check]) * x0
        var_want = 1 - s.alpha_bar[t_check]
        se_mean = np.sqrt(var_want / n)
        se_var = var_want * np.sqrt(2.0 / (n - 1))
        assert abs(x.mean() - mean_want) < 3 * se_mean
        assert abs(x.var() - var_want) < 3 * se_var
