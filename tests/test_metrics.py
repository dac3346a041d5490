"""Metric oracles: Fréchet closed forms, diversity brute force, beats, SRGR."""
import numpy as np
import pytest

from gesturegen import autodiff as ad, bvh, metrics as mt
from gesturegen.errors import DataError
from gesturegen.synthetic import chain_skeleton


def _clip(rotations, fps=30.0):
    rotations = np.asarray(rotations, dtype=np.float64)
    J = rotations.shape[1]
    layout = bvh.JointLayout([f"j{i}" for i in range(J)], ["ZXY"] * J)
    return bvh.MotionClip(fps, np.zeros((rotations.shape[0], 3)), rotations, layout)


def _feats(rotations):
    """The F x (3 + 9J) feature rows of a clip with zero translation."""
    return bvh.clip_to_features(_clip(rotations))


# -- Fréchet ------------------------------------------------------------


def test_frechet_identical_distributions_near_zero(rng):
    x = rng.normal(0, 1, (2000, 8))
    assert mt.frechet_distance(x, x) < 1e-10


def test_frechet_gaussian_1d_closed_form(rng):
    # N(0,1) vs N(1,1): distance = (mu difference)^2 = 1
    a = rng.normal(0, 1, (100000, 1))
    b = rng.normal(1, 1, (100000, 1))
    assert mt.frechet_distance(a, b) == pytest.approx(1.0, abs=0.05)


def test_frechet_gaussian_2d_closed_form(rng):
    # two unit-variance dims, means offset by (1,1): distance = 2
    a = rng.normal(0, 1, (100000, 2))
    b = rng.normal(0, 1, (100000, 2)) + np.array([1.0, 1.0])
    assert mt.frechet_distance(a, b) == pytest.approx(2.0, abs=0.1)


def test_frechet_variance_term(rng):
    # same mean, sigma 1 vs 2 in 1-D: (sigma1 - sigma2)^2 = 1
    a = rng.normal(0, 1, (100000, 1))
    b = rng.normal(0, 2, (100000, 1))
    assert mt.frechet_distance(a, b) == pytest.approx(1.0, abs=0.1)


def test_frechet_input_validation(rng):
    with pytest.raises(DataError):
        mt.frechet_distance(rng.normal(0, 1, (1, 4)), rng.normal(0, 1, (10, 4)))
    from gesturegen.errors import ShapeError
    with pytest.raises(ShapeError):
        mt.frechet_distance(rng.normal(0, 1, (10, 4)), rng.normal(0, 1, (10, 5)))


# -- diversity ----------------------------------------------------------


def test_diversity_equals_all_pairs_oracle(rng):
    feats = rng.normal(0, 1, (12, 5))
    total, count = 0.0, 0
    for i in range(12):
        for j in range(i + 1, 12):
            total += np.abs(feats[i] - feats[j]).sum()
            count += 1
    got = mt.diversity_score(feats, n=12, seed=0)
    assert got == pytest.approx(total / count, rel=1e-12)


def test_diversity_subsample_is_deterministic(rng):
    feats = rng.normal(0, 1, (50, 4))
    a = mt.diversity_score(feats, n=10, seed=3)
    b = mt.diversity_score(feats, n=10, seed=3)
    c = mt.diversity_score(feats, n=10, seed=4)
    assert a == b and a != c


def test_l1_diversity_closed_case():
    # two feature clips at +1 and -1 everywhere: MAD from the mean (0) is 1,
    # doubled = 2 (raw feature matrices, not euler clips)
    a = np.ones((4, 21))
    assert mt.l1_diversity([a, -a]) == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(DataError):
        mt.l1_diversity([a])


# -- beats --------------------------------------------------------------


def test_detect_beats_on_synthetic_minima():
    # angular speed of sin(2*pi*f*t) dips at the extrema of the sinusoid
    fps, f = 30.0, 1.0
    t = np.arange(90) / fps
    ang = 20.0 * np.sin(2 * np.pi * f * t)
    clip = _clip(np.tile(ang[:, None, None], (1, 2, 3)))
    beats = mt.detect_gesture_beats(clip)
    assert len(beats) >= 2
    # extrema of the sinusoid sit at odd multiples of 1/(4f)
    expected = np.arange(1, 12, 2) / (4 * f)
    for b in beats:
        assert np.min(np.abs(expected - b)) < 3.0 / fps


def test_detect_beats_needs_three_frames():
    with pytest.raises(DataError):
        mt.detect_gesture_beats(_clip(np.zeros((2, 1, 3))))


def test_beat_align_cases():
    assert mt.beat_align([1.0, 2.0], [1.0, 2.0], sigma=0.1) == pytest.approx(1.0)
    # one gesture beat exactly sigma away: exp(-1/2)
    got = mt.beat_align([1.0], [1.1], sigma=0.1)
    assert got == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert mt.beat_align([1.0], [], sigma=0.1) == 0.0
    with pytest.raises(DataError):
        mt.beat_align([], [1.0])


def test_beat_align_is_one_sided():
    # extra audio beats don't hurt; extra gesture beats do
    assert mt.beat_align([1.0, 5.0, 9.0], [1.0], sigma=0.1) == pytest.approx(1.0)
    assert mt.beat_align([1.0], [1.0, 5.0], sigma=0.1) < 0.6


# -- SRGR ---------------------------------------------------------------


def test_srgr_identity_is_one(rng):
    feats = _feats(rng.uniform(-1, 1, (6, 3, 9)) * 0.0 + rng.normal(0, 0.1, (6, 3, 9)))
    assert mt.srgr(feats, feats, 0.2) == pytest.approx(1.0)


def test_srgr_counts_threshold_hits():
    ref = _feats(np.zeros((2, 2, 9)))
    gen_rot = np.zeros((2, 2, 9))
    gen_rot[0, 0, 0] = 0.5   # joint (0,0) misses: L1 distance 0.5 > 0.2
    gen = _feats(gen_rot)
    # frame 0: 1/2 joints hit; frame 1: 2/2 -> mean 0.75
    assert mt.srgr(gen, ref, 0.2) == pytest.approx(0.75)


def test_srgr_rejects_clips_of_another_shape():
    with pytest.raises(DataError):
        mt.srgr(_feats(np.zeros((2, 1, 9))), _feats(np.zeros((3, 1, 9))), 0.2)


# -- feature extractor --------------------------------------------------


def test_extractor_training_reduces_loss(rng):
    clips = [_feats(rng.normal(0, 10, (8, 2, 3))) for _ in range(4)]
    ext, history = mt.train_fgd_extractor(clips, seed=0, steps=200, hidden=16)
    assert np.mean(history[-10:]) < 0.85 * np.mean(history[:10])
    feats = ext.features(clips)
    assert feats.shape == (4, mt.LATENT_DIM)


def test_extractor_features_without_graph_equal_grad_mode_encode(rng, monkeypatch):
    clips = [_feats(rng.normal(0, 1, (6, 2, 3))) for _ in range(3)]
    ext, _ = mt.train_fgd_extractor(clips, seed=1, steps=3, hidden=8)
    encoded = [ext.encode(c) for c in clips]
    assert all(e._parents for e in encoded)
    modes, encode = [], mt.FeatureExtractor.encode
    monkeypatch.setattr(mt.FeatureExtractor, "encode",
                        lambda self, m: modes.append(ad.is_grad_enabled()) or encode(self, m))
    feats = ext.features(clips)
    assert modes == [False] * 3
    assert feats.tobytes() == np.stack([e.value for e in encoded]).tobytes()


def test_extractor_deterministic(rng):
    clips = [_feats(rng.normal(0, 1, (6, 1, 3))) for _ in range(3)]
    e1, h1 = mt.train_fgd_extractor(clips, seed=5, steps=20, hidden=8)
    e2, h2 = mt.train_fgd_extractor(clips, seed=5, steps=20, hidden=8)
    assert h1 == h2
    assert np.array_equal(e1.enc_w1.value, e2.enc_w1.value)


def test_extractor_rejects_mismatched_corpus(rng):
    clips = [_feats(rng.normal(0, 1, (6, 1, 3))), _feats(rng.normal(0, 1, (7, 1, 3)))]
    with pytest.raises(DataError):
        mt.train_fgd_extractor(clips, seed=0, steps=1, hidden=8)
