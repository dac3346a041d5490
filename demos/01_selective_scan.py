"""The selective state-space scan: recurrence and convolution.

A diagonal SSM h' = A h + B u, y = C h + D u becomes a per-step linear
recurrence after zero-order-hold discretization, abar = exp(delta * A) and
bbar = delta * B. `ssm.selective_scan_fused` runs that recurrence with
input-dependent delta, B and C, as the model does. This demo checks it
against the convolution with the SSM's impulse response when the
parameters are constant, runs it with and without a graph
(`autodiff.no_grad`), and shows the gated Mamba block's causality.
"""
import time

import numpy as np

from gesturegen import autodiff as ad, ssm

rng = np.random.default_rng(0)

print("== constant-parameter SSM: scan vs convolution ==")
N, L, delta = 4, 60, 0.2
a, b, c, d = -rng.uniform(0.3, 2.0, N), rng.normal(0, 1, N), rng.normal(0, 1, N), 0.5
u = rng.normal(0, 1, L)
abar, bbar = np.exp(delta * a), delta * b
kernel = (abar ** np.arange(L)[:, None] * bbar * c).sum(axis=1)  # k_j = c . abar^j bbar
y_conv = np.convolve(u, kernel)[:L] + d * u

with ad.no_grad():  # one channel, with delta, b and c the same at every step
    y_scan = ssm.selective_scan_fused(
        np.full((L, 1), delta), np.broadcast_to(b, (L, N)), np.broadcast_to(c, (L, N)),
        a[None, :], np.array([d]), u[:, None]).value[:, 0]
print(f"impulse kernel head: {np.round(kernel[:4], 4)}")
print(f"max |scan - convolution| = {np.abs(y_scan - y_conv).max():.2e}")

print("\n== input-dependent scan: with and without a graph ==")
L, C, Ns = 300, 8, 16
args = (rng.uniform(0.05, 1.0, (L, C)),  # delta
        rng.normal(0, 1, (L, Ns)),       # b_proj
        rng.normal(0, 1, (L, Ns)),       # c_proj
        -rng.uniform(0.2, 2.0, (C, Ns)),  # a
        rng.normal(0, 1, C),             # d
        rng.normal(0, 1, (L, C)))        # u

t0 = time.perf_counter()
y_graph = ssm.selective_scan_fused(*args).value
t_graph = time.perf_counter() - t0
t0 = time.perf_counter()
with ad.no_grad():
    y_free = ssm.selective_scan_fused(*args).value
t_free = time.perf_counter() - t0
# without a graph the forward runs in 16-row chunks, and gives the same bits
print(f"L={L}: same bits with and without a graph: {np.array_equal(y_graph, y_free)}")
print(f"with graph {t_graph * 1e3:.1f} ms, without {t_free * 1e3:.1f} ms")

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
