"""Denoising network: stacked attention+Mamba blocks with an output
projection, the variant factory for ablation configs, the full model
built from one `fusion.ModelSpec`, and the training step (Huber gesture
loss + L1 style/emotion alignment, AdamW updates).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import fusion as fu
from . import ssm
from .autodiff import Tensor
from .diffusion import DiffusionSchedule, q_sample
from .errors import NumericalError, ShapeError


@dataclass
class MambaAttnBlockWeights(ad.Params):
    ln1_gamma: Tensor
    ln1_beta: Tensor
    w_q: Optional[Tensor]
    w_k: Optional[Tensor]
    w_v: Optional[Tensor]
    w_o: Optional[Tensor]
    ln2_gamma: Tensor
    ln2_beta: Tensor
    conv_kernel: Optional[Tensor] = None
    conv_bias: Optional[Tensor] = None
    mamba: Optional[ssm.MambaBlockWeights] = None  # last, so its keys follow the block's own


@dataclass
class DenoiserWeights(ad.Params):
    spec: fu.ModelSpec
    blocks: list
    proj_w: Tensor
    proj_b: Tensor


_INIT_STD = 0.02  # of every Gaussian weight init in the denoiser


def _init_block(spec: fu.ModelSpec, rng: np.random.Generator) -> MambaAttnBlockWeights:
    d = spec.d
    t = lambda shape: ad.tensor(rng.normal(0.0, _INIT_STD, shape))
    attn = spec.use_attention
    return MambaAttnBlockWeights(  # the keyword order is the RNG draw order
        ln1_gamma=ad.tensor(np.ones(d)), ln1_beta=ad.tensor(np.zeros(d)),
        w_q=t((d, d)) if attn else None,
        w_k=t((d, d)) if attn else None,
        w_v=t((d, d)) if attn else None,
        w_o=t((d, d)) if attn else None,
        mamba=ssm.init_mamba_block(d, rng, spec.n_state, spec.expand,
                                   spec.mamba_conv_width, _INIT_STD)
        if spec.use_mamba else None,
        ln2_gamma=ad.tensor(np.ones(d)), ln2_beta=ad.tensor(np.zeros(d)),
        conv_kernel=t((spec.block_conv_width, d)) if spec.use_conv else None,
        conv_bias=ad.tensor(np.zeros(d)) if spec.use_conv else None,
    )


def build_variant(spec: fu.ModelSpec, seed: int) -> DenoiserWeights:
    """Seeded Gaussian init (std `_INIT_STD`), layer norms at identity."""
    rng = np.random.default_rng(seed)
    blocks = [_init_block(spec, rng) for _ in range(spec.layers)]
    proj_w = ad.tensor(rng.normal(0.0, _INIT_STD, (spec.d, spec.gesture_dim)))
    proj_b = ad.tensor(np.zeros(spec.gesture_dim))
    return DenoiserWeights(spec, blocks, proj_w, proj_b)


def mambattn_block(weights: MambaAttnBlockWeights, x: Tensor, spec: fu.ModelSpec) -> Tensor:
    """LN -> (optional conv) -> (optional self-attn) -> (optional Mamba) -> LN,
    with a residual from the block input when configured."""
    if x.value.shape[1] != spec.d:
        raise ShapeError(f"block input width {x.value.shape[1]} != configured d {spec.d}")
    h = ad.layer_norm(x, weights.ln1_gamma, weights.ln1_beta)
    if spec.use_conv:
        h = ad.causal_depthwise_conv(h, weights.conv_kernel, weights.conv_bias)
    if spec.use_attention:
        attended = ad.scaled_dot_attention(
            ad.matmul(h, weights.w_q), ad.matmul(h, weights.w_k), ad.matmul(h, weights.w_v))
        h = ad.matmul(attended, weights.w_o)
    if spec.use_mamba:
        h = ssm.mamba_block_forward(weights.mamba, h)
    y = ad.layer_norm(h, weights.ln2_gamma, weights.ln2_beta)
    return x + y if spec.residual else y


def denoiser_forward(weights: DenoiserWeights, f_fuse: Tensor) -> Tensor:
    """Stacked blocks then linear projection to the gesture width."""
    h = f_fuse
    for block in weights.blocks:
        h = mambattn_block(block, h, weights.spec)
    return ad.matmul(h, weights.proj_w) + weights.proj_b


# -- full model ---------------------------------------------------------


@dataclass
class GestureModel(ad.Params):
    fusion: fu.FusionWeights
    denoiser: DenoiserWeights


def build_model(spec: fu.ModelSpec, seed: int) -> GestureModel:
    rng = np.random.default_rng(seed)
    fusion = fu.init_fusion(spec, rng)
    denoiser = build_variant(spec, int(rng.integers(2**31)))
    return GestureModel(fusion, denoiser)


def predict_x0(model: GestureModel, audio: np.ndarray, text: np.ndarray,
               style_id: int, emotion_id: int, x_t: np.ndarray, t: int) -> np.ndarray:
    """Inference path: encode conditions, fuse, denoise, all under `ad.no_grad`. No masking."""
    with ad.no_grad():
        bundle = fu.encode_conditions(model.fusion, audio, text, style_id, emotion_id, x_t, t)
        out = fu.fusion_forward(model.fusion, bundle)
        return denoiser_forward(model.denoiser, out.f_fuse).value


# -- optimizer ----------------------------------------------------------


_BLOCK = 1 << 15  # elements per AdamW update block: its six arrays (1.5 MB) fit a core's L2 cache


def _blocks(*arrays):
    """Views of same-shape arrays, cut along axis 0 into blocks of about `_BLOCK` elements
    (at least one row each; a 0-d array is one block of one element)."""
    arrays = [np.atleast_1d(a) for a in arrays]
    n = len(arrays[0])
    rows = max(1, _BLOCK * n // max(1, arrays[0].size))
    for i in range(0, n, rows):
        yield [a[i:i + rows] for a in arrays]


class AdamW:
    """Decoupled weight-decay Adam (Loshchilov & Hutter, arXiv 1711.05101)
    over a named parameter dict, with betas (0.9, 0.999) and eps 1e-8. `step`
    updates the moments and the values in place, block by block, through two
    scratch buffers of one block; they live only during the step, so they add
    nothing to a training step's peak memory."""

    def __init__(self, params: dict, lr: float, weight_decay: float = 1e-4):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in params.items()}
        self._size = max((x.size for p in params.values() for (x,) in _blocks(p.value)), default=0)

    def step(self):
        """m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
        u = (m/b1c) / (sqrt(v/b2c) + eps);  p -= lr*(u + wd*p).
        Each operation writes into an existing buffer, in this order, so the
        result equals these expressions bit for bit; blocks keep the buffers
        in cache. Parameters without a gradient are skipped."""
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1, c2 = 1.0 - b1, 1.0 - b2
        b1c = 1.0 - b1 ** self.t
        b2c = 1.0 - b2 ** self.t
        scratch = (np.empty(self._size), np.empty(self._size))
        for name, p in self.params.items():
            if p.grad is None:
                continue
            for m, v, x, g in _blocks(self.m[name], self.v[name], p.value, p.grad):
                s, u = (buf[:x.size].reshape(x.shape) for buf in scratch)
                np.multiply(m, b1, out=m)
                m += np.multiply(c1, g, out=s)
                np.multiply(v, b2, out=v)
                v += np.multiply(np.multiply(c2, g, out=s), g, out=s)
                np.divide(m, b1c, out=u)
                np.sqrt(np.divide(v, b2c, out=s), out=s)
                s += 1e-8
                u /= s
                np.multiply(self.weight_decay, x, out=s)
                s += u
                s *= self.lr
                x -= s

    def state_arrays(self) -> dict:
        """`opt.step` and the live moment arrays, not copies: the next `step`
        overwrites them, so copy what must outlive it."""
        out = {"opt.step": np.array([float(self.t)])}
        for name in self.params:
            out[f"opt.m.{name}"] = self.m[name]
            out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict):
        """Copy the moments in, so that `step` never writes to the caller's arrays."""
        self.t = int(arrays["opt.step"][0])
        for name in self.params:
            self.m[name] = np.array(arrays[f"opt.m.{name}"], dtype=np.float64)
            self.v[name] = np.array(arrays[f"opt.v.{name}"], dtype=np.float64)


# -- training -----------------------------------------------------------


@dataclass
class TrainExample:
    """One clip: clean gesture features plus raw conditioning inputs."""

    x0: np.ndarray       # F x gesture_dim
    audio: np.ndarray    # F x d_audio
    text: np.ndarray     # F x d_text
    style_id: int
    emotion_id: int


def _clip_backward(model: GestureModel, ex: TrainExample, schedule: DiffusionSchedule,
                   rng: np.random.Generator, huber_delta: float, n: int, index: int):
    """Forward one clip and backpropagate its loss l_g + l_s + l_e, over n, into the
    weights' `.grad`; a non-finite loss raises first. Returns (l_g, l_s, l_e) as
    floats, so the clip's graph is freed on return."""
    t = int(rng.integers(schedule.steps))
    eps = rng.standard_normal(ex.x0.shape)
    x_t = q_sample(ex.x0, t, eps, schedule)
    bundle = fu.encode_conditions(model.fusion, ex.audio, ex.text,
                                  ex.style_id, ex.emotion_id, x_t, t)
    target_s, target_e = bundle.f_s, bundle.f_e
    bundle.f_s, bundle.f_e = fu.mask_conditions(bundle.f_s, bundle.f_e,
                                                model.fusion.spec.mask_prob, rng)
    out = fu.fusion_forward(model.fusion, bundle)
    x0_hat = denoiser_forward(model.denoiser, out.f_fuse)
    l_g = ad.huber_loss(x0_hat - ad.tensor(ex.x0), huber_delta)
    if out.disentangled is not None:
        l_s, l_e = fu.style_emotion_losses(out.disentangled, target_s, target_e)
    else:
        l_s = l_e = ad.tensor(0.0)
    loss = l_g + l_s + l_e
    if not np.isfinite(loss.value):
        raise NumericalError(f"non-finite training loss in clip {index}: {loss.value}")
    (loss * (1.0 / n)).backward()
    return float(l_g.value), float(l_s.value), float(l_e.value)


def training_step(model: GestureModel, optimizer: AdamW, batch: list,
                  schedule: DiffusionSchedule, rng: np.random.Generator,
                  huber_delta: float = 1.0) -> dict:
    """One stochastic step over a batch of clips.

    Per clip: draw t and noise, form x_t, encode + mask conditions, fuse,
    predict the clean sample, score Huber gesture loss plus L1
    style/emotion alignment, and backpropagate that loss over the batch
    size before the next clip starts, so memory holds one clip's graph
    whatever the batch. Gradients are accumulated clip by clip, in clip
    order; as each weight gets one contribution per clip, the sums equal
    one backward over the whole batch bit for bit. A weight that no clip
    reaches keeps `grad` None. A non-finite clip loss raises
    `NumericalError` before any weight or moment changes. Returns the
    component losses, each the mean over the batch.
    """
    if not batch:
        raise ShapeError("empty training batch")
    n = len(batch)
    params = optimizer.params
    losses, grads = [], {}  # (l_g, l_s, l_e) per clip; the gradient sums so far
    for i, ex in enumerate(batch):
        for p in params.values():
            p.grad = None
        losses.append(_clip_backward(model, ex, schedule, rng, huber_delta, n, i))
        for name, p in params.items():
            if p.grad is None:
                continue
            # out of place: two weights may hold one gradient array
            grads[name] = grads[name] + p.grad if name in grads else p.grad
    for name, p in params.items():
        p.grad = grads.get(name)
    optimizer.step()
    # left folds, in clip order, as the one-graph loss formed them
    l_g, l_s, l_e = (reduce(operator.add, column, 0.0) / n for column in zip(*losses))
    total = reduce(operator.add, [g + s + e for g, s, e in losses]) * (1.0 / n)
    return {"l_total": total, "l_g": l_g, "l_s": l_s, "l_e": l_e}
