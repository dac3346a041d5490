"""The fused selective scan against oracles that share no code with `ssm`: a plain
per-step loop, a per-step chain of autodiff ops and an impulse-kernel convolution;
its causality, and Mamba block behavior."""
import time
import tracemalloc

import numpy as np
import pytest

from gesturegen import autodiff as ad, ssm
from gesturegen.errors import ShapeError


def random_scan_case(rng, L, C=3, N=4):
    """delta, b_proj, c_proj, a, d, u for `selective_scan_fused`, in its argument order."""
    delta = rng.uniform(0.1, 0.8, (L, C))
    b_proj = rng.normal(0, 1, (L, N))
    c_proj = rng.normal(0, 1, (L, N))
    a = -rng.uniform(0.3, 1.5, (C, N))
    d = rng.normal(0, 1, C)
    u = rng.normal(0, 1, (L, C))
    return delta, b_proj, c_proj, a, d, u


@pytest.mark.parametrize("L", [1, 2, 7, 64, 300, 512])
def test_scan_without_graph_matches_graph_and_loop(L, rng, scan_oracle):
    """The scan without a graph (`no_grad`) gives the same bits as with one, and both
    agree with a plain per-step loop."""
    case = random_scan_case(rng, L)
    graph = ssm.selective_scan_fused(*(ad.tensor(v) for v in case)).value
    with ad.no_grad():
        free = ssm.selective_scan_fused(*case).value
    loop = scan_oracle(*case)
    denom = max(1.0, np.abs(graph).max())
    assert np.array_equal(graph, free)
    assert np.abs(graph - loop).max() / denom < 1e-12


@pytest.mark.parametrize("L", [1, 15, 16, 17, 32, 33, 60, 300])
def test_scan_without_graph_is_bit_equal_across_chunks(L):
    """At the model's scan width, lengths below, at and past multiples of the
    graph-free chunk give the same bytes with and without a graph."""
    for seed in range(3):
        case = random_scan_case(np.random.default_rng(seed), L, C=128, N=16)
        graph = ssm.selective_scan_fused(*(ad.tensor(v) for v in case)).value
        with ad.no_grad():
            free = ssm.selective_scan_fused(*case).value
        assert graph.tobytes() == free.tobytes(), seed


def test_scan_without_graph_holds_no_full_state_array():
    """Under `no_grad` the scan's peak allocation stays below one L x C x N float64 array."""
    L, C, N = 300, 128, 16
    case = random_scan_case(np.random.default_rng(0), L, C, N)
    with ad.no_grad():
        tracemalloc.start()
        try:
            ssm.selective_scan_fused(*case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < L * C * N * 8


def test_parallel_rejects_mismatched_shapes(rng):
    delta, b_proj, c_proj, a, d, u = random_scan_case(rng, 8)
    with ad.no_grad(), pytest.raises(ShapeError):
        ssm.selective_scan_fused(delta, b_proj[:, :1], c_proj, a, d, u)
    with ad.no_grad(), pytest.raises(ShapeError):
        ssm.selective_scan_fused(delta[1:], b_proj[1:], c_proj[1:], a, d, u)
    with ad.no_grad(), pytest.raises(ShapeError):
        ssm.selective_scan_fused(delta, b_proj, c_proj, a[1:], d, u)


def test_scan_causality(rng):
    delta, b_proj, c_proj, a, d, u = random_scan_case(rng, 20)
    u2 = u.copy()
    u2[10:] += 5.0
    with ad.no_grad():
        base = ssm.selective_scan_fused(delta, b_proj, c_proj, a, d, u).value
        bumped = ssm.selective_scan_fused(delta, b_proj, c_proj, a, d, u2).value
    assert np.allclose(base[:10], bumped[:10], atol=1e-12)
    assert not np.allclose(base[10:], bumped[10:])


def test_fused_scan_matches_composite(rng, scan_oracle):
    L, C, N = 9, 4, 5
    delta = rng.uniform(0.05, 1.0, (L, C))
    b_proj = rng.normal(0, 1, (L, N))
    c_proj = rng.normal(0, 1, (L, N))
    a = -rng.uniform(0.2, 2.0, (C, N))
    d = rng.normal(0, 1, C)
    u = rng.normal(0, 1, (L, C))
    want = scan_oracle(delta, b_proj, c_proj, a, d, u)
    got = ssm.selective_scan_fused(*(ad.tensor(v) for v in (delta, b_proj, c_proj, a, d, u))).value
    assert np.abs(want - got).max() < 1e-12


@pytest.mark.parametrize("L", [5, 1])
def test_fused_scan_gradients(L, rng):
    consts = dict(zip(("delta", "b_proj", "c_proj", "a", "d", "u"),
                      random_scan_case(rng, L, C=3, N=3)))
    for name in consts:
        def op(x, name=name):
            args = {k: ad.tensor(v) for k, v in consts.items()}
            args[name] = x
            return ssm.selective_scan_fused(*args.values())
        assert ad.finite_diff_check(op, consts[name]) < 1e-6, name


@pytest.mark.parametrize("L,C,N", [pytest.param(L, 4, 5, id=str(L)) for L in (1, 2, 9)]
                         + [(60, 128, 16), (300, 128, 16)])
def test_fused_scan_gradients_chain_sequential(L, C, N, rng, scan_graph_oracle):
    """Fused-scan gradients equal those that the generic backward gives a per-step
    chain of plain autodiff ops, at toy and at model widths; a second backward gives
    the same gradients, so the backward leaves the forward's saved states as it
    found them."""
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

    chain = [ad.tensor(v) for v in (delta, b_proj, c_proj, a, d, u)]
    (scan_graph_oracle(*chain) * g).sum().backward()
    for name, t, leaf in zip(("delta", "b_proj", "c_proj", "a", "d", "u"), fused, chain):
        # at L = 1 the chain never reaches `a`, whose gradient is then zero
        w = np.zeros_like(leaf.value) if leaf.grad is None else leaf.grad
        assert np.abs(t.grad - w).max() / max(1.0, np.abs(w).max()) < 1e-12, name


def test_impulse_kernel_matches_convolution(rng):
    """With constant delta, b and c on one channel, the scan is a convolution with
    the impulse response k_j = c . abar^j bbar, plus d u at lag 0."""
    N, L = 4, 40
    a, b, c = -rng.uniform(0.2, 2.0, N), rng.normal(0, 1, N), rng.normal(0, 1, N)
    d = float(rng.normal())
    delta = 0.3
    u = rng.normal(0, 1, L)
    abar, bbar = np.exp(delta * a), delta * b
    kernel = (abar ** np.arange(L)[:, None] * bbar * c).sum(axis=1)
    y_conv = np.convolve(u, kernel)[:L] + d * u
    with ad.no_grad():
        y_scan = ssm.selective_scan_fused(
            np.full((L, 1), delta), np.broadcast_to(b, (L, N)), np.broadcast_to(c, (L, N)),
            a[None, :], np.array([d]), u[:, None]).value[:, 0]
    assert np.abs(y_conv - y_scan).max() < 1e-9


def test_scan_linear_runtime():
    """Doubling L should roughly double the scan's time (not quadruple)."""
    rng = np.random.default_rng(0)
    cases = {L: [ad.tensor(v) for v in random_scan_case(rng, L, C=8, N=8)] for L in (512, 1024)}
    best = dict.fromkeys(cases, np.inf)
    for _ in range(25):  # interleaved, so a slow spell of a shared host hits both lengths
        for L, args in cases.items():
            t0 = time.perf_counter()
            ssm.selective_scan_fused(*args)
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
