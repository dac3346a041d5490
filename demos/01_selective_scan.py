"""Selective state-space scans: recurrence and convolution.

A diagonal SSM h' = A h + B u, y = C h + D u becomes a per-step linear
recurrence after zero-order-hold discretization. This demo runs that
recurrence as a differentiable scan, with and without a graph
(`autodiff.no_grad`), checks it against the convolution with the SSM's
impulse response, and shows why they agree.
"""
import time

import numpy as np

from gesturegen import autodiff as ad, ssm

rng = np.random.default_rng(0)

print("== constant-parameter SSM: scan vs convolution ==")
N, L, delta = 4, 60, 0.2
sys = ssm.ContinuousSsm(a=-rng.uniform(0.3, 2.0, N), b=rng.normal(0, 1, N),
                        c=rng.normal(0, 1, N), d=0.5)
u = rng.normal(0, 1, L)
kernel = ssm.ssm_impulse_kernel(sys, delta, L)
y_conv = np.convolve(u, kernel)[:L] + sys.d * u

abar, bbar = ssm.discretize_zoh(sys.a, sys.b, delta)
with ad.no_grad():
    y_scan = ssm.selective_scan_seq(
        np.broadcast_to(abar, (L, 1, N)).copy(),
        np.broadcast_to(bbar, (L, 1, N)).copy(),
        np.broadcast_to(sys.c, (L, 1, N)).copy(),
        np.array([sys.d]), u[:, None]).value[:, 0]
print(f"impulse kernel head: {np.round(kernel[:4], 4)}")
print(f"max |scan - convolution| = {np.abs(y_scan - y_conv).max():.2e}")

print("\n== input-dependent scan: with and without a graph ==")
L, C, Ns = 300, 8, 16
delta_t = rng.uniform(0.05, 1.0, (L, C))
a = -rng.uniform(0.2, 2.0, (C, Ns))
abar = np.exp(delta_t[:, :, None] * a[None])
bbar = rng.normal(0, 1, (L, C, Ns))
cmat = rng.normal(0, 1, (L, C, Ns))
d = rng.normal(0, 1, C)
u = rng.normal(0, 1, (L, C))

t0 = time.perf_counter()
y_seq = ssm.selective_scan_seq(abar, bbar, cmat, d, u).value
t_seq = time.perf_counter() - t0
t0 = time.perf_counter()
with ad.no_grad():
    y_par = ssm.selective_scan_seq(abar, bbar, cmat, d, u).value
t_par = time.perf_counter() - t0
print(f"L={L}: max |with graph - without| = {np.abs(y_seq - y_par).max():.2e}")
print(f"with graph {t_seq * 1e3:.1f} ms, without {t_par * 1e3:.1f} ms")

print("\n== gated Mamba block ==")
w = ssm.init_mamba_block(16, rng, init_std=0.1)
x = rng.normal(0, 1, (40, 16))
y = ssm.mamba_block_forward(w, ad.tensor(x))
x2 = x.copy()
x2[20:] += 5.0  # causality: later frames cannot affect earlier outputs
y2 = ssm.mamba_block_forward(w, ad.tensor(x2))
print(f"output shape {y.value.shape}")
print(f"frames 0..19 unchanged after bumping frames 20..39: "
      f"{np.allclose(y.value[:20], y2.value[:20])}")
