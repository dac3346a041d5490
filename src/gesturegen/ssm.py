"""Selective state-space sequence modeling.

The input-dependent selective scan (differentiable, and graph-free under
`autodiff.no_grad`) and the gated Mamba block that wires it in. One linear
recurrence serves the scan's forward, for the states, and its adjoint, run
over the reversed sequence. With a graph the forward keeps its L x C x N
arrays for the backward; without one it runs over chunks of `_CHUNK` rows
in two reused buffers that stay in cache.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

SSM_STATE_DIM = 16
SSM_EXPAND = 2
SSM_CONV_WIDTH = 4

# rows per graph-free scan chunk: its two 16 x C x N buffers (0.5 MB at C=128) fit a core's L2 cache
_CHUNK = 16


def _linear_recurrence(a: np.ndarray, h: np.ndarray) -> None:
    """h_k = a_{k-1} h_{k-1} + b_k along axis 0 from a zero start, in place:
    h holds b on entry and the states on exit; len(a) == len(h) - 1."""
    row = np.empty(h.shape[1:])
    for k in range(len(a)):
        h[k + 1] += np.multiply(a[k], h[k], out=row)


def selective_scan_fused(delta: Tensor, b_proj: Tensor, c_proj: Tensor,
                         a: Tensor, d_skip: Tensor, u: Tensor) -> Tensor:
    """Input-dependent scan with the ZOH discretization folded in.

    h_k = abar_k * h_{k-1} + bbar_k * u_k from h_{-1} = 0 and
    y_k = <c_k, h_k> + d_skip * u_k, with abar_k = exp(delta_k * a) and
    bbar_k = delta_k * b_k per channel, as one graph node. With a graph, the
    L x C x N arrays `abar` and `h` are filled in one pass and kept for the
    backward. Under `no_grad`, the forward runs over chunks of `_CHUNK` rows
    in one reused pair of chunk buffers, and only the last state of a chunk
    carries over to the next; the values are the same bits either way.

    Shapes: delta/u L x C, b_proj/c_proj L x N, a C x N (negative),
    d_skip C. Returns y with shape L x C.
    """
    delta, b_proj, c_proj = (ad._as_tensor(v) for v in (delta, b_proj, c_proj))
    a, d_skip, u = ad._as_tensor(a), ad._as_tensor(d_skip), ad._as_tensor(u)
    L, C = u.value.shape
    N = a.value.shape[1]
    if delta.value.shape != (L, C) or a.value.shape != (C, N):
        raise ShapeError(f"fused scan shapes inconsistent: delta {delta.value.shape}, "
                         f"a {a.value.shape}, u {u.value.shape}")
    if b_proj.value.shape != (L, N) or c_proj.value.shape != (L, N):
        raise ShapeError(f"fused scan projections must be L x N, got "
                         f"{b_proj.value.shape} / {c_proj.value.shape}")

    # abar and h: the full L x C x N arrays that the backward keeps, or one
    # reused chunk of each under no_grad. einsum forms each element as one
    # product, but stores a -0.0 product as +0.0.
    rows = L if ad.is_grad_enabled() else min(L, _CHUNK)
    abar, h = np.empty((rows, C, N)), np.empty((rows, C, N))
    du = delta.value * u.value
    y = np.empty((L, C))
    for s in range(0, L, max(rows, 1)):
        ab, hc = abar[:L - s], h[:L - s]  # the last chunk may be short
        np.exp(np.einsum("lc,cn->lcn", delta.value[s:s + rows], a.value, out=ab), out=ab)
        if s:  # abar_s * h_{s-1}, read before the chunk overwrites h_{s-1}
            carry = ab[0] * h[-1]
        np.einsum("lc,ln->lcn", du[s:s + rows], b_proj.value[s:s + rows], out=hc)
        if s:
            hc[0] += carry
        _linear_recurrence(ab[1:], hc)
        y[s:s + rows] = np.matmul(hc, c_proj.value[s:s + rows, :, None])[:, :, 0]
    y += d_skip.value * u.value

    def bwd(g):
        ad._accumulate(c_proj, np.matmul(g[:, None, :], h)[:, 0])
        ad._accumulate(d_skip, (g * u.value).sum(axis=0))
        lam = np.einsum("ln,lc->lcn", c_proj.value, g)
        _linear_recurrence(abar[:0:-1], lam[::-1])
        # chain through bbar = delta * b (lam_b = sum_n lam * b) and, from k = 1 on
        # (h_{-1} = 0), through abar = exp(delta * a): g_da = dL / d(delta * a)
        # is formed in lam's buffer after lam's last readers
        lam_b = np.matmul(lam, b_proj.value[:, :, None])[:, :, 0]
        ad._accumulate(b_proj, np.matmul((delta.value * u.value)[:, None, :], lam)[:, 0])
        g_da = lam[1:]
        g_da *= h[:-1]
        g_da *= abar[1:]
        g_delta = lam_b * u.value
        g_delta[1:] += np.einsum("lcn,cn->lc", g_da, a.value)
        ad._accumulate(delta, g_delta)
        ad._accumulate(a, np.einsum("lcn,lc->cn", g_da, delta.value[1:]))
        ad._accumulate(u, lam_b * delta.value + d_skip.value * g)

    return Tensor(y, (delta, b_proj, c_proj, a, d_skip, u), bwd)


# -- Mamba block --------------------------------------------------------


@dataclass
class MambaBlockWeights(ad.Params):
    """Weights for one gated selective-SSM block of width d."""

    w_in: Tensor       # d x 2*d_inner
    conv_kernel: Tensor  # w x d_inner
    conv_bias: Tensor    # d_inner
    w_delta: Tensor    # d_inner x d_inner
    b_delta: Tensor    # d_inner
    w_b: Tensor        # d_inner x N
    w_c: Tensor        # d_inner x N
    a_log: Tensor      # d_inner x N, A = -exp(a_log) < 0
    d_skip: Tensor     # d_inner
    w_out: Tensor      # d_inner x d

    @property
    def d_inner(self) -> int:
        return self.w_out.value.shape[0]


def init_mamba_block(d: int, rng: np.random.Generator, n_state: int = SSM_STATE_DIM,
                     expand: int = SSM_EXPAND, conv_width: int = SSM_CONV_WIDTH,
                     init_std: float = 0.02) -> MambaBlockWeights:
    """Seeded Gaussian init; A diagonal gets the -(n+1) real init."""
    di = expand * d
    t = lambda shape: ad.tensor(rng.normal(0.0, init_std, shape))
    a_init = np.log(np.broadcast_to(np.arange(1, n_state + 1, dtype=np.float64), (di, n_state)))
    return MambaBlockWeights(
        w_in=t((d, 2 * di)),
        conv_kernel=t((conv_width, di)),
        conv_bias=ad.tensor(np.zeros(di)),
        w_delta=t((di, di)),
        b_delta=ad.tensor(np.zeros(di)),
        w_b=t((di, n_state)),
        w_c=t((di, n_state)),
        a_log=ad.tensor(a_init),
        d_skip=ad.tensor(np.ones(di)),
        w_out=t((di, d)),
    )


def mamba_block_forward(weights: MambaBlockWeights, x: Tensor) -> Tensor:
    """Gated selective-SSM block: project, causal conv + SiLU, scan, gate.

    Causality holds end to end: frame k of the output depends only on
    input frames <= k.
    """
    di = weights.d_inner

    xz = ad.matmul(x, weights.w_in)
    main, gate = xz[:, :di], xz[:, di:]
    main = ad.silu(ad.causal_depthwise_conv(main, weights.conv_kernel, weights.conv_bias))

    delta = ad.softplus(ad.matmul(main, weights.w_delta) + weights.b_delta)  # L x di
    b_proj = ad.matmul(main, weights.w_b)  # L x N
    c_proj = ad.matmul(main, weights.w_c)  # L x N

    a = -ad.exp(weights.a_log)  # di x N
    y = selective_scan_fused(delta, b_proj, c_proj, a, weights.d_skip, main)
    y = y * ad.silu(gate)
    return ad.matmul(y, weights.w_out)
