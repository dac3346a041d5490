"""Selective-scan equivalences, causality, and Mamba block behavior."""
import time

import numpy as np
import pytest

from gesturegen import autodiff as ad, ssm
from gesturegen.errors import ShapeError


def random_scan_case(rng, L, C=3, N=4):
    delta = rng.uniform(0.05, 1.0, (L, C))
    a = -rng.uniform(0.2, 2.0, (C, N))
    abar = np.exp(delta[:, :, None] * a[None])
    bbar = rng.normal(0, 1, (L, C, N))
    cmat = rng.normal(0, 1, (L, C, N))
    d = rng.normal(0, 1, C)
    u = rng.normal(0, 1, (L, C))
    return abar, bbar, cmat, d, u


@pytest.mark.parametrize("L", [1, 2, 7, 64, 300, 512])
def test_parallel_matches_sequential(L, rng, scan_oracle):
    abar, bbar, cmat, d, u = random_scan_case(rng, L)
    seq = ssm.selective_scan_seq(*(ad.tensor(v) for v in (abar, bbar, cmat, d, u))).value
    with ad.no_grad():
        par = ssm.selective_scan_seq(abar, bbar, cmat, d, u).value
    loop = scan_oracle(abar, bbar, cmat, d, u)
    denom = max(1.0, np.abs(seq).max())
    assert np.abs(seq - par).max() / denom < 1e-12
    assert np.abs(seq - loop).max() / denom < 1e-12
    assert np.abs(par - loop).max() / denom < 1e-12


def test_parallel_rejects_mismatched_shapes(rng):
    abar, bbar, cmat, d, u = random_scan_case(rng, 8)
    with ad.no_grad(), pytest.raises(ShapeError):
        ssm.selective_scan_seq(abar, bbar[:, :, :1], cmat, d, u).value
    with ad.no_grad(), pytest.raises(ShapeError):
        ssm.selective_scan_seq(abar[1:], bbar[1:], cmat[1:], d, u).value


def test_scan_causality(rng):
    abar, bbar, cmat, d, u = random_scan_case(rng, 20)
    u2 = u.copy()
    u2[10:] += 5.0
    with ad.no_grad():
        base = ssm.selective_scan_seq(abar, bbar, cmat, d, u).value
        bumped = ssm.selective_scan_seq(abar, bbar, cmat, d, u2).value
    assert np.allclose(base[:10], bumped[:10], atol=1e-12)
    assert not np.allclose(base[10:], bumped[10:])


@pytest.mark.parametrize("L", [6, 1])
def test_scan_gradients(L, rng):
    abar, bbar, cmat, d, u = random_scan_case(rng, L, C=2, N=3)
    consts = dict(abar=abar, bbar=bbar, cmat=cmat, d=d, u=u)
    for name in consts:
        def op(x, name=name):
            args = {k: ad.tensor(v) for k, v in consts.items()}
            args[name] = x
            return ssm.selective_scan_seq(args["abar"], args["bbar"], args["cmat"],
                                          args["d"], args["u"])
        assert ad.finite_diff_check(op, consts[name]) < 1e-6, name


def test_fused_scan_matches_composite(rng):
    L, C, N = 9, 4, 5
    delta = rng.uniform(0.05, 1.0, (L, C))
    b_proj = rng.normal(0, 1, (L, N))
    c_proj = rng.normal(0, 1, (L, N))
    a = -rng.uniform(0.2, 2.0, (C, N))
    d = rng.normal(0, 1, C)
    u = rng.normal(0, 1, (L, C))
    abar = np.exp(delta[:, :, None] * a[None])
    bbar = np.broadcast_to(delta[:, :, None] * b_proj[:, None, :], (L, C, N)).copy()
    cmat = np.broadcast_to(c_proj[:, None, :], (L, C, N)).copy()
    want = ssm.selective_scan_seq(*(ad.tensor(v) for v in (abar, bbar, cmat, d, u))).value
    got = ssm.selective_scan_fused(*(ad.tensor(v) for v in (delta, b_proj, c_proj, a, d, u))).value
    assert np.abs(want - got).max() < 1e-12


@pytest.mark.parametrize("L", [5, 1])
def test_fused_scan_gradients(L, rng):
    C, N = 3, 3
    consts = dict(delta=rng.uniform(0.1, 0.8, (L, C)),
                  b_proj=rng.normal(0, 1, (L, N)),
                  c_proj=rng.normal(0, 1, (L, N)),
                  a=-rng.uniform(0.3, 1.5, (C, N)),
                  d=rng.normal(0, 1, C),
                  u=rng.normal(0, 1, (L, C)))
    for name in consts:
        def op(x, name=name):
            args = {k: ad.tensor(v) for k, v in consts.items()}
            args[name] = x
            return ssm.selective_scan_fused(args["delta"], args["b_proj"], args["c_proj"],
                                            args["a"], args["d"], args["u"])
        assert ad.finite_diff_check(op, consts[name]) < 1e-6, name


@pytest.mark.parametrize("L,C,N", [pytest.param(L, 4, 5, id=str(L)) for L in (1, 2, 9)]
                         + [(60, 128, 16), (300, 128, 16)])
def test_fused_scan_gradients_chain_sequential(L, C, N, rng):
    """Fused-scan gradients equal the sequential scan's gradients chained
    through abar = exp(delta * a), bbar = delta * b and cmat = c, at toy
    and at model widths; a second backward gives the same gradients, so the
    backward leaves the forward's saved states as it found them."""
    delta = rng.uniform(0.05, 1.0, (L, C))
    b_proj = rng.normal(0, 1, (L, N))
    c_proj = rng.normal(0, 1, (L, N))
    a = -rng.uniform(0.2, 2.0, (C, N))
    d = rng.normal(0, 1, C)
    u = rng.normal(0, 1, (L, C))
    g = ad.tensor(rng.normal(0, 1, (L, C)))
    fused = [ad.tensor(v) for v in (delta, b_proj, c_proj, a, d, u)]
    loss = (ssm.selective_scan_fused(*fused) * g).sum()
    loss.backward()
    first = [t.grad.copy() for t in fused]
    loss.backward()
    for t, grad in zip(fused, first):
        assert np.array_equal(t.grad, grad)

    abar = np.exp(delta[:, :, None] * a[None])
    bbar = np.broadcast_to(delta[:, :, None] * b_proj[:, None, :], (L, C, N)).copy()
    cmat = np.broadcast_to(c_proj[:, None, :], (L, C, N)).copy()
    seq = [ad.tensor(v) for v in (abar, bbar, cmat, d, u)]
    (ssm.selective_scan_seq(*seq) * g).sum().backward()
    g_abar, g_bbar, g_cmat, g_d, g_u = (t.grad for t in seq)
    want = [(g_abar * abar * a).sum(axis=2) + (g_bbar * b_proj[:, None, :]).sum(axis=2),
            (g_bbar * delta[:, :, None]).sum(axis=1),
            g_cmat.sum(axis=1),
            (g_abar * abar * delta[:, :, None]).sum(axis=0),
            g_d, g_u]
    for name, t, w in zip(("delta", "b_proj", "c_proj", "a", "d", "u"), fused, want):
        assert np.abs(t.grad - w).max() / max(1.0, np.abs(w).max()) < 1e-12, name


def test_discretize_zoh_values():
    a = np.array([-1.0, -2.0])
    b = np.array([0.5, 1.5])
    abar, bbar = ssm.discretize_zoh(a, b, 0.1)
    assert np.allclose(abar, np.exp([-0.1, -0.2]))
    assert np.allclose(bbar, [0.05, 0.15])
    with pytest.raises(ValueError):
        ssm.discretize_zoh(a, b, 0.0)


def test_continuous_ssm_rejects_unstable():
    with pytest.raises(ValueError):
        ssm.ContinuousSsm(a=np.array([-1.0, 0.5]), b=np.ones(2), c=np.ones(2), d=0.0)


def test_impulse_kernel_matches_convolution(rng):
    N, L = 4, 40
    sys = ssm.ContinuousSsm(a=-rng.uniform(0.2, 2.0, N), b=rng.normal(0, 1, N),
                            c=rng.normal(0, 1, N), d=float(rng.normal()))
    delta = 0.3
    u = rng.normal(0, 1, L)
    kernel = ssm.ssm_impulse_kernel(sys, delta, L)
    y_conv = np.convolve(u, kernel)[:L] + sys.d * u
    abar, bbar = ssm.discretize_zoh(sys.a, sys.b, delta)
    abar_t = np.broadcast_to(abar, (L, 1, N)).copy()
    bbar_t = np.broadcast_to(bbar, (L, 1, N)).copy()
    cmat = np.broadcast_to(sys.c, (L, 1, N)).copy()
    with ad.no_grad():
        y_scan = ssm.selective_scan_seq(abar_t, bbar_t, cmat,
                                        np.array([sys.d]), u[:, None]).value[:, 0]
    assert np.abs(y_conv - y_scan).max() < 1e-9


def test_scan_linear_runtime():
    """Doubling L should roughly double sequential-scan time (not quadruple)."""
    rng = np.random.default_rng(0)
    cases = {L: [ad.tensor(v) for v in random_scan_case(rng, L, C=8, N=8)] for L in (512, 1024)}
    best = dict.fromkeys(cases, np.inf)
    for _ in range(25):  # interleaved, so a slow spell of a shared host hits both lengths
        for L, args in cases.items():
            t0 = time.perf_counter()
            ssm.selective_scan_seq(*args)
            best[L] = min(best[L], time.perf_counter() - t0)
    assert best[1024] / best[512] < 3.0  # linear-ish, generous bound for timer noise


def test_mamba_block_zero_weights_zero_output(rng):
    w = ssm.init_mamba_block(6, rng, init_std=0.0)
    y = ssm.mamba_block_forward(w, ad.tensor(rng.normal(0, 1, (5, 6))))
    assert np.allclose(y.value, 0.0, atol=1e-12)


def test_mamba_block_causality(rng):
    w = ssm.init_mamba_block(6, rng, init_std=0.3)
    x = rng.normal(0, 1, (12, 6))
    base = ssm.mamba_block_forward(w, ad.tensor(x)).value
    x2 = x.copy()
    x2[7:] += 3.0
    bumped = ssm.mamba_block_forward(w, ad.tensor(x2)).value
    assert np.allclose(base[:7], bumped[:7], atol=1e-12)


def test_mamba_block_gradient(rng):
    w = ssm.init_mamba_block(4, rng, init_std=0.4, n_state=3, conv_width=2)
    x = rng.normal(0, 1, (5, 4))
    assert ad.finite_diff_check(lambda t: ssm.mamba_block_forward(w, t), x) < 1e-6


def test_mamba_block_shape_check(rng):
    w = ssm.init_mamba_block(4, rng)
    with pytest.raises(ShapeError):
        ssm.mamba_block_forward(w, ad.tensor(np.zeros((5, 6))))
    with pytest.raises(ShapeError):
        ssm.mamba_block_forward(w, ad.tensor(np.zeros(4)))
