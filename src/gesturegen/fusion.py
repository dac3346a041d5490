"""`ModelSpec` (the whole model), multi-modal condition encoding and the fusion ladder.

Four rungs: plain concatenation with style (SA), plus emotion (SEA),
plus audio disentanglement (SEAD_BASIC), plus cross-attention between
the audio-gesture stream and the fused style/emotion feature (SEAD).
All fused streams share a common width d; windowed self-attention over
the concatenation produces the final per-frame fusion feature.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import ssm
from .autodiff import Tensor
from .errors import ShapeError

SA = "SA"
SEA = "SEA"
SEAD_BASIC = "SEAD_BASIC"
SEAD = "SEAD"
FUSION_MODES = (SA, SEA, SEAD_BASIC, SEAD)
N_EMOTIONS = 8  # BEAT's emotion classes


@dataclass
class ModelSpec:
    """The whole model. Fields: the `model.*` key suffixes, then those of
    `harness.WIDTH_KEYS`, then the two conv widths, which have no config key."""

    d: int = 64
    layers: int = 8
    use_attention: bool = True
    use_mamba: bool = True
    use_conv: bool = False
    residual: bool = True
    window: int = 30           # cross-local attention window (frames)
    n_state: int = ssm.SSM_STATE_DIM
    expand: int = ssm.SSM_EXPAND
    mode: str = SEAD
    mask_prob: float = 0.1
    gesture_dim: int = 75
    d_audio: int = 24          # raw per-frame audio feature width
    d_text: int = 8            # raw per-frame text feature width
    n_styles: int = 4
    mamba_conv_width: int = ssm.SSM_CONV_WIDTH
    block_conv_width: int = 3

    @property
    def concat_width(self) -> int:
        # audio slot + text + style + (emotion) + gesture + time
        audio = self.d_audio if self.mode in (SA, SEA) else self.d
        width = audio + 4 * self.d
        if self.mode != SA:
            width += self.d
        return width


@dataclass
class ConditionBundle:
    """Encoded per-clip modality features (frame-aligned where applicable)."""

    f_a: Tensor                  # F x d_audio, raw audio features
    f_text: Tensor               # F x d
    f_s: Tensor                  # d
    f_e: Tensor                  # d
    f_t: Tensor                  # d
    f_g: Tensor                  # F x d

    @property
    def frames(self) -> int:
        return self.f_a.value.shape[0]


@dataclass
class DisentangledAudio:
    f_a_s: Tensor  # F x d audio-style stream
    f_a_e: Tensor  # F x d audio-emotion stream
    f_a_g: Tensor  # F x d audio-gesture stream


@dataclass
class FusionOutput:
    f_fuse: Tensor
    disentangled: Optional[DisentangledAudio] = None


@dataclass
class FusionWeights(ad.Params):
    spec: ModelSpec
    style_enc: Tensor     # n_styles x d, bias-free
    emotion_enc: Tensor   # N_EMOTIONS x d, bias-free
    text_w: Tensor        # d_text x d
    text_b: Tensor
    gesture_w: Tensor     # gesture_dim x d
    gesture_b: Tensor
    time_w1: Tensor       # d x d
    time_b1: Tensor
    time_w2: Tensor
    time_b2: Tensor
    dis_w_s: Tensor       # d_audio x d, bias-free
    dis_w_e: Tensor
    dis_w_g: Tensor
    enh_s_w: Tensor       # 2d x d
    enh_s_b: Tensor
    enh_e_w: Tensor
    enh_e_b: Tensor
    se_w: Tensor          # 2d x d
    se_b: Tensor
    local_w: Tensor       # concat_width x d
    local_b: Tensor


def init_fusion(spec: ModelSpec, rng: np.random.Generator, init_std: float = 0.02) -> FusionWeights:
    d = spec.d
    t = lambda shape: ad.tensor(rng.normal(0.0, init_std, shape))
    z = lambda n: ad.tensor(np.zeros(n))
    return FusionWeights(
        spec=spec,
        style_enc=t((spec.n_styles, d)),
        emotion_enc=t((N_EMOTIONS, d)),
        text_w=t((spec.d_text, d)), text_b=z(d),
        gesture_w=t((spec.gesture_dim, d)), gesture_b=z(d),
        time_w1=t((d, d)), time_b1=z(d),
        time_w2=t((d, d)), time_b2=z(d),
        dis_w_s=t((spec.d_audio, d)),
        dis_w_e=t((spec.d_audio, d)),
        dis_w_g=t((spec.d_audio, d)),
        enh_s_w=t((2 * d, d)), enh_s_b=z(d),
        enh_e_w=t((2 * d, d)), enh_e_b=z(d),
        se_w=t((2 * d, d)), se_b=z(d),
        local_w=t((spec.concat_width, d)), local_b=z(d),
    )


# -- per-modality encoders ---------------------------------------------


def sinusoidal_encoding(t: int, d: int) -> np.ndarray:
    """Standard sin/cos position code of width d (sin on even slots)."""
    pe = np.zeros(d)
    idx = np.arange(0, d, 2)
    freq = np.exp(-np.log(10000.0) * idx / d)
    pe[0::2] = np.sin(t * freq)
    pe[1::2] = np.cos(t * freq)[: pe[1::2].size]
    return pe


def encode_timestep(weights: FusionWeights, t: int) -> Tensor:
    """Sinusoidal code of the diffusion step pushed through a 2-layer MLP."""
    pe = ad.tensor(sinusoidal_encoding(t, weights.spec.d).reshape(1, -1))
    h = ad.silu(ad.matmul(pe, weights.time_w1) + weights.time_b1)
    out = ad.matmul(h, weights.time_w2) + weights.time_b2
    return ad.reshape(out, (weights.spec.d,))


def encode_conditions(weights: FusionWeights, audio: np.ndarray, text: np.ndarray,
                      style_id: int, emotion_id: int, x_t: np.ndarray, t: int) -> ConditionBundle:
    """Raw modality inputs -> encoded ConditionBundle; `load_dataset` checks widths and labels."""
    f_s = weights.style_enc[style_id, :]
    f_e = weights.emotion_enc[emotion_id, :]
    f_text = ad.matmul(ad.tensor(text), weights.text_w) + weights.text_b
    f_g = ad.matmul(ad.tensor(x_t), weights.gesture_w) + weights.gesture_b
    return ConditionBundle(f_a=ad.tensor(audio), f_text=f_text, f_s=f_s, f_e=f_e,
                           f_t=encode_timestep(weights, t), f_g=f_g)


# -- fusion ladder pieces ----------------------------------------------


def disentangle_audio(weights: FusionWeights, f_a: Tensor) -> DisentangledAudio:
    """Three independent bias-free projections of the audio feature."""
    return DisentangledAudio(
        f_a_s=ad.matmul(f_a, weights.dis_w_s),
        f_a_e=ad.matmul(f_a, weights.dis_w_e),
        f_a_g=ad.matmul(f_a, weights.dis_w_g),
    )


def _rows(v: Tensor, frames: int) -> Tensor:
    return ad.broadcast_to(ad.reshape(v, (1, -1)), (frames, v.value.shape[-1]))


def enhance_style_emotion(weights: FusionWeights, da: DisentangledAudio,
                          f_s: Tensor, f_e: Tensor):
    """Per-frame enhanced style/emotion from the audio streams + labels."""
    frames = da.f_a_s.value.shape[0]
    f_s_h = ad.matmul(ad.concat([da.f_a_s, _rows(f_s, frames)], axis=1), weights.enh_s_w) + weights.enh_s_b
    f_e_h = ad.matmul(ad.concat([da.f_a_e, _rows(f_e, frames)], axis=1), weights.enh_e_w) + weights.enh_e_b
    return f_s_h, f_e_h


def fuse_se(weights: FusionWeights, f_s_h: Tensor, f_e_h: Tensor) -> Tensor:
    """Concatenate enhanced style/emotion and project back to width d."""
    return ad.matmul(ad.concat([f_s_h, f_e_h], axis=1), weights.se_w) + weights.se_b


def cross_attend_audio(f_a_g: Tensor, f_prime_se: Tensor) -> Tensor:
    """Audio-gesture queries over the fused style/emotion feature, residual added."""
    if f_a_g.value.shape != f_prime_se.value.shape:
        raise ShapeError(f"shapes differ: {f_a_g.value.shape} vs {f_prime_se.value.shape}")
    return ad.scaled_dot_attention(f_a_g, f_prime_se, f_prime_se) + f_a_g


def cross_local_attention(weights: FusionWeights, x: Tensor) -> Tensor:
    """Self-attention inside non-overlapping windows, then project to d.

    Frames never attend across a window boundary; the trailing window may
    be shorter.
    """
    window = weights.spec.window
    frames = x.value.shape[0]
    pieces = []
    for start in range(0, frames, window):
        w = x[start:min(start + window, frames), :]
        pieces.append(ad.scaled_dot_attention(w, w, w))
    return ad.matmul(ad.concat(pieces, axis=0), weights.local_w) + weights.local_b


def mask_conditions(f_s: Tensor, f_e: Tensor, p: float, u):
    """Zero the whole-clip style features when u[0] < p and the emotion features when
    u[1] < p; with `u` two uniform draws, each is dropped independently with prob p."""
    keep_s = 0.0 if u[0] < p else 1.0
    keep_e = 0.0 if u[1] < p else 1.0
    return f_s * keep_s, f_e * keep_e


def style_emotion_losses(da: DisentangledAudio, f_s: Tensor, f_e: Tensor):
    """Mean absolute alignment losses between audio streams and label features."""
    frames = da.f_a_s.value.shape[0]
    l_s = ad.l1_loss(da.f_a_s - _rows(f_s, frames))
    l_e = ad.l1_loss(da.f_a_e - _rows(f_e, frames))
    return l_s, l_e


def fusion_forward(weights: FusionWeights, bundle: ConditionBundle) -> FusionOutput:
    """Run the configured fusion rung over an encoded bundle. Slots whose widths do not
    sum to `spec.concat_width` fail the `local_w` matmul with a ShapeError."""
    mode = weights.spec.mode
    frames = bundle.frames
    da = None
    if mode in (SA, SEA):
        audio_slot = bundle.f_a
        style_slot = _rows(bundle.f_s, frames)
        emotion_slot = _rows(bundle.f_e, frames) if mode == SEA else None
    else:
        da = disentangle_audio(weights, bundle.f_a)
        style_slot, emotion_slot = enhance_style_emotion(weights, da, bundle.f_s, bundle.f_e)
        audio_slot = da.f_a_g
        if mode == SEAD:
            audio_slot = cross_attend_audio(da.f_a_g, fuse_se(weights, style_slot, emotion_slot))

    parts = [audio_slot, bundle.f_text, style_slot]
    if emotion_slot is not None:
        parts.append(emotion_slot)
    parts += [bundle.f_g, _rows(bundle.f_t, frames)]
    return FusionOutput(cross_local_attention(weights, ad.concat(parts, axis=1)), da)
