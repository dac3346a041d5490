"""Selective state-space sequence modeling.

Continuous diagonal SSM, its discretization, the input-dependent scan in
sequential and fused forms (both differentiable; the forward-only numpy
form is the sequential one under `autodiff.no_grad`), and the gated Mamba
block that wires them together. Both scans share one linear recurrence:
forward for the states, and over the reversed sequence for the adjoint.
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


@dataclass
class ContinuousSsm:
    """Single-channel diagonal continuous SSM x' = Ax + Bu, y = Cx + Du."""

    a: np.ndarray  # N, strictly negative diagonal
    b: np.ndarray  # N
    c: np.ndarray  # N
    d: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.a.size < 1:
            raise ShapeError("SSM state dimension must be >= 1")
        if np.any(self.a >= 0):
            raise ValueError("diagonal A entries must be strictly negative for stability")


def discretize_zoh(a: np.ndarray, b: np.ndarray, delta: float):
    """Zero-order hold for the state path, Euler for the input path.

    Returns (abar, bbar) with abar = exp(delta * a), bbar = delta * b.
    """
    if delta <= 0:
        raise ValueError(f"discretization step must be positive, got {delta}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.exp(delta * a), delta * b


def _linear_recurrence(a: np.ndarray, h: np.ndarray) -> None:
    """h_k = a_{k-1} h_{k-1} + b_k along axis 0 from a zero start, in place:
    h holds b on entry and the states on exit; len(a) == len(h) - 1."""
    row = np.empty(h.shape[1:])
    for k in range(len(a)):
        h[k + 1] += np.multiply(a[k], h[k], out=row)


def selective_scan_seq(abar: Tensor, bbar: Tensor, cmat: Tensor, d: Tensor, u: Tensor) -> Tensor:
    """Differentiable sequential scan of the per-step recurrence.

    h_k = abar_k * h_{k-1} + bbar_k * u_k,  y_k = <cmat_k, h_k> + d * u_k

    Shapes: abar/bbar/cmat L x C x N, d C, u L x C. The state starts at
    zero. Backward runs lam_k = cmat_k g_k + abar_{k+1} lam_{k+1} in reverse.
    """
    abar, bbar, cmat = ad._as_tensor(abar), ad._as_tensor(bbar), ad._as_tensor(cmat)
    d, u = ad._as_tensor(d), ad._as_tensor(u)
    L, C = u.value.shape
    if abar.value.shape != bbar.value.shape or abar.value.shape != cmat.value.shape:
        raise ShapeError("scan parameter shapes differ")
    if abar.value.shape[:2] != (L, C):
        raise ShapeError(f"scan params {abar.value.shape} do not match input {u.value.shape}")
    h = bbar.value * u.value[:, :, None]
    _linear_recurrence(abar.value[1:], h)
    y = (cmat.value * h).sum(axis=2) + d.value * u.value

    def bwd(g):
        cmat.grad += g[:, :, None] * h
        d.grad += (g * u.value).sum(axis=0)
        lam = cmat.value * g[:, :, None]
        _linear_recurrence(abar.value[:0:-1], lam[::-1])
        abar.grad[1:] += lam[1:] * h[:-1]
        bbar.grad += lam * u.value[:, :, None]
        u.grad += (bbar.value * lam).sum(axis=2) + d.value * g

    return Tensor(y, (abar, bbar, cmat, d, u), bwd)


def selective_scan_parallel(abar: np.ndarray, bbar: np.ndarray, cmat: np.ndarray,
                            d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Forward-only `selective_scan_seq` (numpy in, numpy out): the same scan under
    `ad.no_grad`, so the same shapes, checks and bits."""
    with ad.no_grad():
        return selective_scan_seq(abar, bbar, cmat, d, u).value


def selective_scan_fused(delta: Tensor, b_proj: Tensor, c_proj: Tensor,
                         a: Tensor, d_skip: Tensor, u: Tensor) -> Tensor:
    """Input-dependent scan with the ZOH discretization folded in.

    Equivalent to building abar = exp(delta * a), bbar = delta * b and
    calling `selective_scan_seq`, but as one graph node so the large
    L x C x N intermediates never materialize as separate tensors.

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

    # abar and h are the only L x C x N arrays kept for the backward (none under no_grad)
    abar = delta.value[:, :, None] * a.value
    np.exp(abar, out=abar)
    h = (delta.value * u.value)[:, :, None] * b_proj.value[:, None, :]
    _linear_recurrence(abar[1:], h)
    y = np.matmul(h, c_proj.value[:, :, None])[:, :, 0] + d_skip.value * u.value

    def bwd(g):
        c_proj.grad += np.matmul(g[:, None, :], h)[:, 0]
        d_skip.grad += (g * u.value).sum(axis=0)
        lam = c_proj.value[:, None, :] * g[:, :, None]
        _linear_recurrence(abar[:0:-1], lam[::-1])
        # chain through bbar = delta * b (lam_b = sum_n lam * b) and, from k = 1 on
        # (h_{-1} = 0), through abar = exp(delta * a): g_da = dL / d(delta * a)
        # is formed in lam's buffer after lam's last readers
        lam_b = np.matmul(lam, b_proj.value[:, :, None])[:, :, 0]
        b_proj.grad += np.matmul((delta.value * u.value)[:, None, :], lam)[:, 0]
        g_da = lam[1:]
        g_da *= h[:-1]
        g_da *= abar[1:]
        g_delta = lam_b * u.value
        g_delta[1:] += np.einsum("lcn,cn->lc", g_da, a.value)
        delta.grad += g_delta
        a.grad += np.einsum("lcn,lc->cn", g_da, delta.value[1:])
        u.grad += lam_b * delta.value + d_skip.value * g

    return Tensor(y, (delta, b_proj, c_proj, a, d_skip, u), bwd)


def ssm_impulse_kernel(ssm: ContinuousSsm, delta: float, length: int) -> np.ndarray:
    """Impulse response k_j = c . abar^j bbar of the discretized SSM.

    The D skip term is not folded in; convolution users add d*u at lag 0.
    """
    abar, bbar = discretize_zoh(ssm.a, ssm.b, delta)
    powers = abar[None, :] ** np.arange(length)[:, None]
    return (powers * bbar * ssm.c).sum(axis=1)


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
    def d_model(self) -> int:
        return self.w_in.value.shape[0]

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
    x = ad._as_tensor(x)
    if x.value.ndim != 2 or x.value.shape[1] != weights.d_model:
        raise ShapeError(f"input {x.value.shape} does not match block width {weights.d_model}")
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
