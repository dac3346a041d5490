"""DDPM mechanics: the linear-beta schedule, closed-form noising, and the
x0-parameterized reverse chain."""
import numpy as np

from gesturegen import diffusion as df

rng = np.random.default_rng(0)

print("== schedule ==")
s = df.build_schedule(1000, 1e-4, 0.02)
print(f"T=1000, beta {s.beta[0]:.1e} -> {s.beta[-1]:.1e}")
print(f"alpha_bar at t=0/499/999: {s.alpha_bar[0]:.4f} / "
      f"{s.alpha_bar[499]:.4f} / {s.alpha_bar[999]:.2e}")
print("by the final step virtually no signal survives "
      f"(alpha_bar_T < 1e-4: {s.alpha_bar[-1] < 1e-4})")

print("\n== closed-form forward noising ==")
x0 = np.ones(5)
for t in (0, 100, 500, 999):
    x_t = df.q_sample(x0, t, rng.standard_normal(5), s)
    print(f"t={t:4d}: x_t ~ {np.round(x_t, 3)}")

print("\n== reverse chain with an oracle denoiser ==")
target = rng.normal(0, 1, (6, 4))
toy = df.build_schedule(50, 1e-4, 0.2)
out = df.sample_loop(lambda x, t: target, target.shape, toy, seed=1)
print(f"a denoiser that always predicts the target reconstructs it: "
      f"max error {np.abs(out - target).max():.2e}")

print("\n== determinism ==")
den = lambda x, t: 0.3 * x
a = df.sample_loop(den, (4, 4), toy, seed=7)
b = df.sample_loop(den, (4, 4), toy, seed=7)
print(f"same seed, bit-identical samples: {np.array_equal(a, b)}")
