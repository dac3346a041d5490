"""Gesture evaluation: Frechet distance over learned features, diversity
scores, kinematic beat detection with Chamfer-style alignment, and
threshold recall against a reference corpus."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .bvh import MotionClip
from .denoiser import AdamW
from .errors import DataError, ShapeError

LATENT_DIM = 32
BEAT_SMOOTH_WINDOW = 5


# -- learned feature extractor for the Frechet score -------------------


@dataclass
class FeatureExtractor(ad.Params):
    """Temporal-conv autoencoder over fixed-shape gesture clips."""

    frames: int
    dim: int
    hidden: int
    enc_w1: Tensor
    enc_b1: Tensor
    enc_w2: Tensor
    enc_b2: Tensor
    dec_w1: Tensor
    dec_b1: Tensor
    dec_w2: Tensor
    dec_b2: Tensor

    @staticmethod
    def weight_shapes(frames: int, dim: int, hidden: int) -> dict:
        """Each weight's shape, in field order."""
        return {"enc_w1": (3 * dim, hidden), "enc_b1": (hidden,),  # conv over a 3-frame window
                "enc_w2": (hidden, LATENT_DIM), "enc_b2": (LATENT_DIM,),  # per frame, then mean-pooled
                "dec_w1": (LATENT_DIM, hidden), "dec_b1": (hidden,),
                "dec_w2": (hidden, frames * dim), "dec_b2": (frames * dim,)}

    def _stack3(self, x: Tensor) -> Tensor:
        # frame t sees frames t-1, t, t+1 (edge frames repeated)
        first = x[0:1, :]
        last = x[-1:, :]
        prev = ad.concat([first, x[:-1, :]], axis=0)
        nxt = ad.concat([x[1:, :], last], axis=0)
        return ad.concat([prev, x, nxt], axis=1)

    def encode(self, features: np.ndarray) -> Tensor:
        x = ad.tensor(features)
        h = ad.relu(ad.matmul(self._stack3(x), self.enc_w1) + self.enc_b1)
        per_frame = ad.matmul(h, self.enc_w2) + self.enc_b2
        return per_frame.mean(axis=0)

    def decode(self, latent: Tensor) -> Tensor:
        z = ad.reshape(latent, (1, LATENT_DIM))
        h = ad.relu(ad.matmul(z, self.dec_w1) + self.dec_b1)
        flat = ad.matmul(h, self.dec_w2) + self.dec_b2
        return ad.reshape(flat, (self.frames, self.dim))

    def features(self, clips) -> np.ndarray:
        """Latent feature matrix (n_clips x LATENT_DIM) for a corpus, under `ad.no_grad`."""
        mats = _corpus_features(clips, self.frames, self.dim)
        with ad.no_grad():
            return np.stack([self.encode(m).value for m in mats])


def _corpus_features(clips, frames=None, dim=None):
    mats = [np.asarray(c, dtype=np.float64) for c in clips]
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise DataError(f"corpus clips have heterogeneous shapes: {sorted(shapes)}")
    shape = shapes.pop()
    if frames is not None and shape != (frames, dim):
        raise DataError(f"corpus shape {shape} does not match extractor ({frames}, {dim})")
    return mats


def train_fgd_extractor(clips, seed: int, steps: int, hidden: int):
    """Fit the autoencoder with mean-L1 reconstruction loss (plain Adam, lr 1e-3).

    Returns (extractor, loss_history). Deterministic given the seed.
    """
    mats = _corpus_features(clips)
    if len(mats) < 2:
        raise DataError("extractor training needs at least 2 clips")
    frames, dim = mats[0].shape
    rng = np.random.default_rng(seed)
    # matrices are drawn in field order; biases start at zero
    ext = FeatureExtractor(frames, dim, hidden, **{
        k: ad.tensor(rng.normal(0.0, 0.05, shape) if len(shape) == 2 else np.zeros(shape))
        for k, shape in FeatureExtractor.weight_shapes(frames, dim, hidden).items()})
    opt = AdamW(ext.named(), lr=1e-3, weight_decay=0.0)
    history = []
    for step in range(steps):
        mat = mats[int(rng.integers(len(mats)))]
        recon = ext.decode(ext.encode(mat))
        loss = ad.l1_loss(recon - ad.tensor(mat))
        loss.backward()
        opt.step()
        history.append(float(loss.value))
    return ext, history


# -- distribution metrics ----------------------------------------------


def _sym_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(real_feats: np.ndarray, gen_feats: np.ndarray) -> float:
    """||mu_r - mu_g||^2 + tr(S_r + S_g - 2 (S_r S_g)^{1/2}).

    The cross term uses sqrt(S_r)^T S_g sqrt(S_r), which is symmetric, so
    the matrix square root reduces to an eigendecomposition with negative
    eigenvalues clamped at zero.
    """
    real_feats = np.asarray(real_feats, dtype=np.float64)
    gen_feats = np.asarray(gen_feats, dtype=np.float64)
    if real_feats.ndim != 2 or gen_feats.ndim != 2 or real_feats.shape[1] != gen_feats.shape[1]:
        raise ShapeError(f"feature widths differ: {real_feats.shape} vs {gen_feats.shape}")
    if real_feats.shape[0] < 2 or gen_feats.shape[0] < 2:
        raise DataError("need at least 2 samples per side for covariance")
    mu_r, mu_g = real_feats.mean(axis=0), gen_feats.mean(axis=0)
    s_r = np.cov(real_feats, rowvar=False)
    s_g = np.cov(gen_feats, rowvar=False)
    s_r = np.atleast_2d(s_r)
    s_g = np.atleast_2d(s_g)
    root_r = _sym_sqrt(s_r)
    cross = _sym_sqrt(root_r @ s_g @ root_r)
    val = float(np.sum((mu_r - mu_g) ** 2) + np.trace(s_r) + np.trace(s_g) - 2.0 * np.trace(cross))
    return max(val, 0.0)


def diversity_score(feats: np.ndarray, n: int = 500, seed: int = 0) -> float:
    """Average pairwise L1 distance over a without-replacement sample."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape[0] < 2:
        raise DataError("diversity needs at least 2 feature vectors")
    n = min(n, feats.shape[0])
    rng = np.random.default_rng(seed)
    picked = feats[rng.choice(feats.shape[0], size=n, replace=False)]
    total = 0.0
    for i in range(n):
        total += np.abs(picked[i + 1:] - picked[i]).sum()
    return float(total / (n * (n - 1) / 2))


def l1_diversity(clips) -> float:
    """Twice the mean absolute deviation from the per-element mean clip."""
    mats = _corpus_features(clips)
    if len(mats) < 2:
        raise DataError("l1 diversity needs at least 2 clips")
    stack = np.stack(mats)
    mean = stack.mean(axis=0)
    return float(2.0 * np.abs(stack - mean).mean())


# -- beat alignment -----------------------------------------------------


def detect_gesture_beats(clip: MotionClip) -> np.ndarray:
    """Beat times (s): local minima of smoothed mean angular speed."""
    if clip.frames < 3:
        raise DataError(f"beat detection needs >= 3 frames, got {clip.frames}")
    speed = np.abs(np.diff(clip.rotations, axis=0)).mean(axis=(1, 2))  # F-1
    v = np.concatenate(([speed[0]], speed))  # speed into each frame
    kernel = np.ones(BEAT_SMOOTH_WINDOW)
    smooth = np.convolve(v, kernel, mode="same") / np.convolve(np.ones_like(v), kernel, mode="same")
    interior = np.arange(1, len(smooth) - 1)
    is_min = (smooth[interior] < smooth[interior - 1]) & (smooth[interior] < smooth[interior + 1])
    return interior[is_min] / clip.fps


def beat_align(audio_beats, gesture_beats, sigma: float = 0.1) -> float:
    """One-sided exponential Chamfer score from gesture beats to audio beats; sigma > 0."""
    audio_beats = np.asarray(audio_beats, dtype=np.float64)
    gesture_beats = np.asarray(gesture_beats, dtype=np.float64)
    if audio_beats.size == 0:
        raise DataError("beat alignment is undefined without audio onsets")
    if gesture_beats.size == 0:
        return 0.0
    d2 = (gesture_beats[:, None] - audio_beats[None, :]) ** 2
    nearest = d2.min(axis=1)
    return float(np.mean(np.exp(-nearest / (2.0 * sigma ** 2))))


# -- threshold recall ---------------------------------------------------


def srgr(gen: np.ndarray, ref: np.ndarray, threshold: float) -> float:
    """Mean over frames of the fraction of joints whose rotation-matrix blocks lie
    within an L1 `threshold` of the reference's; `gen` and `ref` are F x (3 + 9J)
    feature rows (`bvh.clip_to_features`)."""
    if gen.shape != ref.shape:
        raise DataError(f"clip shapes differ: {gen.shape} vs {ref.shape}")
    dist = np.abs(gen[:, 3:] - ref[:, 3:]).reshape(gen.shape[0], -1, 9).sum(axis=2)  # F x J
    hit = (dist < threshold).mean(axis=1)  # per-frame PCK
    return float(hit.mean())
