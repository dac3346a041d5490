"""The condition fusion ladder: SA -> SEA -> SEAD_BASIC -> SEAD.

Four modes combine audio, text, style, emotion, diffusion timestep, and
the noisy gesture into a per-frame conditioning matrix. The richer modes
disentangle audio into style/emotion/gesture streams and mix them with
windowed cross-local attention.
"""
import numpy as np

from gesturegen import fusion as fu

rng = np.random.default_rng(0)

F, d = 12, 16
base = dict(d=d, d_audio=10, d_text=6, gesture_dim=9, window=4)
audio = rng.normal(0, 1, (F, 10))
text = rng.normal(0, 1, (F, 6))
x_t = rng.normal(0, 1, (F, 9))

print("== one forward pass per mode ==")
for mode in fu.FUSION_MODES:
    cfg = fu.ModelSpec(mode=mode, **base)
    w = fu.init_fusion(cfg, np.random.default_rng(1), init_std=0.1)
    bundle = fu.encode_conditions(w, audio, text, style_id=1, emotion_id=3,
                                  x_t=x_t, t=7)
    out = fu.fusion_forward(w, bundle)
    extras = "none" if out.disentangled is None else "audio split 3 ways"
    print(f"{mode:10s} concat width {cfg.concat_width:3d} -> fused "
          f"{out.f_fuse.value.shape}, disentangled: {extras}")

print("\n== disentanglement and alignment losses (SEAD) ==")
cfg = fu.ModelSpec(mode=fu.SEAD, **base)
w = fu.init_fusion(cfg, np.random.default_rng(1), init_std=0.1)
bundle = fu.encode_conditions(w, audio, text, 1, 3, x_t, 7)
out = fu.fusion_forward(w, bundle)
l_s, l_e = fu.style_emotion_losses(out.disentangled, bundle.f_s, bundle.f_e)
print(f"audio-style stream vs style embedding L1: {l_s.value:.4f}")
print(f"audio-emotion stream vs emotion embedding L1: {l_e.value:.4f}")
print("training drives both toward zero, so the audio streams learn to")
print("carry the style and emotion labels.")

print("\n== cross-local attention is windowed ==")
x = rng.normal(0, 1, (F, cfg.concat_width))
import gesturegen.autodiff as ad
y1 = fu.cross_local_attention(w, ad.tensor(x))
x2 = x.copy()
x2[:4] += 10.0  # perturb only the first window
y2 = fu.cross_local_attention(w, ad.tensor(x2))
changed = np.abs(y1.value - y2.value).max(axis=1) > 1e-9
print(f"perturbing frames 0..3 changes frames {np.flatnonzero(changed)} only")

print("\n== classifier-free-guidance-style condition masking ==")
drops = 0
trials = 2000
mask_rng = np.random.default_rng(2)
for _ in range(trials):
    f_s, f_e = fu.mask_conditions(bundle.f_s, bundle.f_e, p=0.1, u=mask_rng.random(2))
    drops += int(not f_s.value.any())
print(f"whole-clip label dropout at p=0.1: observed rate {drops / trials:.3f}")
