"""Condition encoding and the four-rung fusion ladder."""
from dataclasses import replace

import numpy as np
import pytest

from gesturegen import autodiff as ad, fusion as fu
from gesturegen.errors import ShapeError


def make_weights(mode, d=8, d_audio=6, d_text=5, gesture_dim=7, seed=0, window=4,
                 init_std=0.3):
    cfg = fu.ModelSpec(d=d, d_audio=d_audio, d_text=d_text, n_styles=3,
                       gesture_dim=gesture_dim, window=window, mode=mode, mask_prob=0.1)
    return fu.init_fusion(cfg, np.random.default_rng(seed), init_std=init_std)


def make_inputs(cfg, rng, frames=6):
    audio = rng.normal(0, 1, (frames, cfg.d_audio))
    text = rng.normal(0, 1, (frames, cfg.d_text))
    x_t = rng.normal(0, 1, (frames, cfg.gesture_dim))
    return audio, text, x_t


def test_concat_width_per_mode():
    for mode, want in [(fu.SA, 6 + 4 * 8), (fu.SEA, 6 + 5 * 8),
                       (fu.SEAD_BASIC, 6 * 8), (fu.SEAD, 6 * 8)]:
        cfg = fu.ModelSpec(d=8, d_audio=6, mode=mode)
        assert cfg.concat_width == want, mode


def test_sinusoidal_encoding_properties():
    pe = fu.sinusoidal_encoding(0, 8)
    assert np.allclose(pe[0::2], 0.0) and np.allclose(pe[1::2], 1.0)
    a, b = fu.sinusoidal_encoding(3, 16), fu.sinusoidal_encoding(4, 16)
    assert not np.allclose(a, b)
    assert np.all(np.abs(a) <= 1.0)


def test_encode_conditions_shapes(rng):
    w = make_weights(fu.SEAD)
    audio, text, x_t = make_inputs(w.spec, rng)
    b = fu.encode_conditions(w, audio, text, 1, 2, x_t, 5)
    assert b.f_a.value.shape == (6, 6)
    assert b.f_text.value.shape == (6, 8)
    assert b.f_s.value.shape == (8,)
    assert b.f_e.value.shape == (8,)
    assert b.f_t.value.shape == (8,)
    assert b.f_g.value.shape == (6, 8)
    # style row comes straight from the embedding table
    assert np.array_equal(b.f_s.value, w.style_enc.value[1])


@pytest.mark.parametrize("mode", fu.FUSION_MODES)
@pytest.mark.parametrize("slot", ["f_text", "f_g"])
def test_fusion_forward_rejects_a_bundle_of_the_wrong_width(rng, mode, slot):
    w = make_weights(mode)
    audio, text, x_t = make_inputs(w.spec, rng)
    bundle = fu.encode_conditions(w, audio, text, 1, 2, x_t, 5)
    wide = np.hstack([getattr(bundle, slot).value, np.zeros((6, 1))])
    with pytest.raises(ShapeError):
        fu.fusion_forward(w, replace(bundle, **{slot: ad.tensor(wide)}))


def test_disentangle_is_bias_free(rng):
    w = make_weights(fu.SEAD)
    da = fu.disentangle_audio(w, ad.tensor(np.zeros((4, 6))))
    for s in (da.f_a_s, da.f_a_e, da.f_a_g):
        assert np.allclose(s.value, 0.0)
    audio = rng.normal(0, 1, (4, 6))
    da2 = fu.disentangle_audio(w, ad.tensor(audio))
    assert np.allclose(da2.f_a_s.value, audio @ w.dis_w_s.value, atol=1e-12)


def test_cross_attend_f1_is_identity_plus_value(rng):
    # with a single frame the attention weights are exactly 1
    f_a_g = ad.tensor(rng.normal(0, 1, (1, 8)))
    f_se = ad.tensor(rng.normal(0, 1, (1, 8)))
    out = fu.cross_attend_audio(f_a_g, f_se)
    assert np.allclose(out.value, f_a_g.value + f_se.value, atol=1e-12)
    with pytest.raises(ShapeError):
        fu.cross_attend_audio(f_a_g, ad.tensor(np.zeros((2, 8))))


def test_cross_local_attention_window_locality(rng):
    w = make_weights(fu.SEAD, window=4)
    width = w.spec.concat_width
    x = rng.normal(0, 1, (8, width))
    base = fu.cross_local_attention(w, ad.tensor(x)).value
    x2 = x.copy()
    x2[5] += 10.0  # second window: frames 4..7
    bumped = fu.cross_local_attention(w, ad.tensor(x2)).value
    assert np.allclose(base[:4], bumped[:4], atol=1e-12)  # first window untouched
    assert not np.allclose(base[4:], bumped[4:])


def test_cross_local_attention_trailing_window(rng):
    w = make_weights(fu.SEAD, window=4)
    x = rng.normal(0, 1, (6, w.spec.concat_width))  # trailing window of 2
    out = fu.cross_local_attention(w, ad.tensor(x))
    assert out.value.shape == (6, 8)


def test_mask_conditions_rate(rng):
    f_s = ad.tensor(np.ones(4))
    f_e = ad.tensor(np.ones(4))
    n, hits_s, hits_e = 4000, 0, 0
    for _ in range(n):
        ms, me = fu.mask_conditions(f_s, f_e, 0.25, rng.random(2))
        hits_s += np.all(ms.value == 0)
        hits_e += np.all(me.value == 0)
    for hits in (hits_s, hits_e):
        assert abs(hits / n - 0.25) < 3 * np.sqrt(0.25 * 0.75 / n)
    # masking is all-or-nothing per clip
    ms, _ = fu.mask_conditions(f_s, f_e, 1.0, rng.random(2))
    assert np.all(ms.value == 0)


@pytest.mark.parametrize("mode", fu.FUSION_MODES)
def test_fusion_forward_all_modes(mode, rng):
    w = make_weights(mode)
    audio, text, x_t = make_inputs(w.spec, rng)
    b = fu.encode_conditions(w, audio, text, 0, 3, x_t, 2)
    out = fu.fusion_forward(w, b)
    assert out.f_fuse.value.shape == (6, 8)
    assert (out.disentangled is not None) == (mode in (fu.SEAD_BASIC, fu.SEAD))
    # the fused style/emotion projection reaches f_fuse in SEAD only
    w.se_w.value[...] += 1.0
    moved = fu.fusion_forward(w, b).f_fuse.value
    assert (not np.array_equal(moved, out.f_fuse.value)) == (mode == fu.SEAD)


def test_sead_reduces_to_sead_basic_with_null_attention(rng):
    """If the fused style/emotion feature contributes nothing through the
    cross-attention value path, SEAD's audio slot collapses to SEAD_BASIC's
    plus the attended constant; with se weights zeroed the attended value
    is exactly zero and the two rungs agree."""
    w_sead = make_weights(fu.SEAD)
    w_basic = make_weights(fu.SEAD_BASIC)
    # identical parameters except the mode tag
    for name in w_basic.__dict__:
        if name != "spec":
            getattr(w_basic, name).value[...] = getattr(w_sead, name).value
    w_sead.se_w.value[...] = 0.0
    w_basic.se_w.value[...] = 0.0
    w_sead.se_b.value[...] = 0.0
    w_basic.se_b.value[...] = 0.0
    audio, text, x_t = make_inputs(w_sead.spec, rng)
    b1 = fu.encode_conditions(w_sead, audio, text, 1, 1, x_t, 0)
    b2 = fu.encode_conditions(w_basic, audio, text, 1, 1, x_t, 0)
    out1 = fu.fusion_forward(w_sead, b1)
    out2 = fu.fusion_forward(w_basic, b2)
    assert np.allclose(out1.f_fuse.value, out2.f_fuse.value, atol=1e-12)


def test_style_emotion_losses_zero_at_alignment(rng):
    w = make_weights(fu.SEAD)
    f_s = ad.tensor(rng.normal(0, 1, 8))
    f_e = ad.tensor(rng.normal(0, 1, 8))
    da = fu.DisentangledAudio(
        f_a_s=ad.broadcast_to(ad.reshape(f_s, (1, 8)), (5, 8)),
        f_a_e=ad.broadcast_to(ad.reshape(f_e, (1, 8)), (5, 8)),
        f_a_g=ad.tensor(np.zeros((5, 8))))
    l_s, l_e = fu.style_emotion_losses(da, f_s, f_e)
    assert l_s.value == pytest.approx(0.0, abs=1e-12)
    assert l_e.value == pytest.approx(0.0, abs=1e-12)


def test_fusion_gradient_sead_path(rng):
    w = make_weights(fu.SEAD, d=6, d_audio=4, d_text=3, gesture_dim=5, window=3)
    text = rng.normal(0, 1, (4, 3))
    x_t = rng.normal(0, 1, (4, 5))

    def op(audio_t):
        b = fu.ConditionBundle(
            f_a=audio_t,
            f_text=ad.matmul(ad.tensor(text), w.text_w) + w.text_b,
            f_s=w.style_enc[0, :], f_e=w.emotion_enc[2, :],
            f_t=fu.encode_timestep(w, 3),
            f_g=ad.matmul(ad.tensor(x_t), w.gesture_w) + w.gesture_b)
        return fu.fusion_forward(w, b).f_fuse

    assert ad.finite_diff_check(op, rng.normal(0, 1, (4, 4))) < 1e-6
