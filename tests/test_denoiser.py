"""Denoiser blocks, variant factory, optimizer, and the training step."""
import os
import tracemalloc

import numpy as np
import pytest

from gesturegen import autodiff as ad, denoiser as dn, fusion as fu
from gesturegen.diffusion import build_schedule, q_sample
from gesturegen.errors import NumericalError, ShapeError


def small_config(**kw):
    base = dict(layers=1, d=8, gesture_dim=5, n_state=4, expand=2,
                mamba_conv_width=2, block_conv_width=2)
    base.update(kw)
    return fu.ModelSpec(**base)


def test_residual_identity_with_zero_inner_weights(rng):
    cfg = small_config(use_attention=False, use_mamba=True)
    w = dn.build_variant(cfg, seed=0)
    blk = w.blocks[0]
    for t in blk.mamba.named("m").values():
        t.value[...] = 0.0
    blk.ln2_gamma.value[...] = 1.0  # LN of zeros is zero, so y = x + 0
    x = rng.normal(0, 1, (6, 8))
    out = dn.mambattn_block(blk, ad.tensor(x), cfg)
    assert np.allclose(out.value, x, atol=1e-12)


ALL_TOGGLES = [(a, m, c) for a in (True, False) for m in (True, False)
               for c in (True, False) if a or m or c]


@pytest.mark.parametrize("attn,mamba,conv", ALL_TOGGLES)
def test_every_block_variant_runs_and_differs(attn, mamba, conv, rng):
    cfg = small_config(use_attention=attn, use_mamba=mamba, use_conv=conv, layers=2)
    w = dn.build_variant(cfg, seed=1)
    x = ad.tensor(rng.normal(0, 1, (5, 8)))
    out = dn.denoiser_forward(w, x)
    assert out.value.shape == (5, 5)
    assert np.all(np.isfinite(out.value))
    # optional weights exist exactly when their stage is on
    blk = w.blocks[0]
    assert (blk.w_q is not None) == attn
    assert (blk.mamba is not None) == mamba
    assert (blk.conv_kernel is not None) == conv


def test_mambattn_block_gradient(rng):
    cfg = small_config(use_attention=True, use_mamba=True, use_conv=True)
    w = dn.build_variant(cfg, seed=2)
    for t in w.named().values():  # bump init so gradients are non-trivial
        if t.value.ndim >= 1:
            t.value[...] = np.random.default_rng(3).normal(0, 0.3, t.value.shape)
    w.blocks[0].ln1_gamma.value[...] = 1.0
    w.blocks[0].ln2_gamma.value[...] = 1.0
    x = rng.normal(0, 1, (4, 8))
    err = ad.finite_diff_check(lambda t: dn.mambattn_block(w.blocks[0], t, cfg), x)
    assert err < 1e-6


def test_build_variant_deterministic():
    cfg = small_config(layers=2)
    w1 = dn.build_variant(cfg, seed=7)
    w2 = dn.build_variant(cfg, seed=7)
    w3 = dn.build_variant(cfg, seed=8)
    for k in w1.named():
        assert np.array_equal(w1.named()[k].value, w2.named()[k].value)
    assert any(not np.array_equal(w1.named()[k].value, w3.named()[k].value)
               for k in w1.named())


def test_named_keys_are_pinned():
    """The checkpoint and AdamW keys of existing MGCKPT2 files, in order."""
    spec = small_config(use_conv=True, d_audio=4, d_text=3, n_styles=2)
    model = dn.build_model(spec, seed=0)
    fusion = ["style_enc", "emotion_enc", "text_w", "text_b", "gesture_w", "gesture_b",
              "time_w1", "time_b1", "time_w2", "time_b2", "dis_w_s", "dis_w_e", "dis_w_g",
              "enh_s_w", "enh_s_b", "enh_e_w", "enh_e_b", "se_w", "se_b", "local_w", "local_b"]
    block = ["ln1_gamma", "ln1_beta", "w_q", "w_k", "w_v", "w_o", "ln2_gamma", "ln2_beta",
             "conv_kernel", "conv_bias"]
    mamba = ["w_in", "conv_kernel", "conv_bias", "w_delta", "b_delta", "w_b", "w_c",
             "a_log", "d_skip", "w_out"]
    assert list(model.named()) == ([f"fusion.{k}" for k in fusion]
                                   + [f"denoiser.block0.{k}" for k in block]
                                   + [f"denoiser.block0.mamba.{k}" for k in mamba]
                                   + ["denoiser.proj_w", "denoiser.proj_b"])


# -- AdamW --------------------------------------------------------------


def test_adamw_first_step_is_signed_lr():
    # with zero weight decay the first Adam update has magnitude ~lr
    p = ad.tensor(np.array([1.0, -2.0]))
    opt = dn.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    p.grad = np.array([3.0, -4.0])
    opt.step()
    want = np.array([1.0, -2.0]) - 0.1 * np.array([1.0, -1.0]) * (1.0 / (1.0 + 1e-8 / np.sqrt(1)))
    assert np.allclose(p.value, want, atol=1e-6)


def test_adamw_decoupled_weight_decay():
    p = ad.tensor(np.array([10.0]))
    opt = dn.AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    p.grad = np.array([0.0])
    opt.step()
    # zero gradient: pure decay p -= lr * wd * p
    assert p.value[0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0)


def test_adamw_state_roundtrip():
    rng = np.random.default_rng(0)
    p = ad.tensor(rng.normal(0, 1, (3, 2)))
    opt = dn.AdamW({"p": p}, lr=0.01)
    for _ in range(3):
        p.grad = rng.normal(0, 1, (3, 2))
        opt.step()
    state = {k: v.copy() for k, v in opt.state_arrays().items()}
    opt2 = dn.AdamW({"p": p}, lr=0.01)
    m, v = opt2.m["p"], opt2.v["p"]
    opt2.load_state_arrays(state)
    assert opt2.m["p"] is m and opt2.v["p"] is v  # in place: a pool's workers see them
    assert opt2.t == 3
    assert np.array_equal(opt2.m["p"], opt.m["p"])
    assert np.array_equal(opt2.v["p"], opt.v["p"])


def _adamw_expression_step(p, m, v, g, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """The AdamW update written as whole-array expressions, with fresh temporaries."""
    b1c, b2c = 1.0 - b1 ** t, 1.0 - b2 ** t
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    update = (m / b1c) / (np.sqrt(v / b2c) + eps)
    return p - lr * (update + wd * p), m, v


@pytest.mark.parametrize("processes", [1, 2, 3])
@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_adamw_in_place_step_equals_expression_form_bit_for_bit(wd, processes):
    """On W > 1 processes each worker updates its share of the blocks in shared memory;
    3 processes is more than the cores of a 2-core machine."""
    rng = np.random.default_rng(5)
    # multi-block shapes (partial last blocks, a row wider than a block) and small ones
    shapes = {"big": (40, 1000), "long": (dn._BLOCK + 3,), "wide": (2, dn._BLOCK + 5),
              "mat": (7, 11), "vec": (13,), "col": (5, 1), "scalar": (), "frozen": (3,)}
    params = {k: ad.tensor(rng.normal(0, 1, s)) for k, s in shapes.items()}
    ref = {k: [p.value.copy(), np.zeros(s), np.zeros(s)] for (k, p), s
           in zip(params.items(), shapes.values())}
    opt = dn.AdamW(params, lr=0.05, weight_decay=wd)
    with dn.ClipPool(None, processes, opt) as pool:  # no clips: the optimizer alone
        assert len(pool.workers) == processes - 1
        for t in range(1, 6):
            for k, p in params.items():
                # gradients spanning many magnitudes, with a few exact zeros
                g = rng.normal(0, 1, shapes[k]) * 10.0 ** rng.integers(-6, 4, shapes[k])
                p.grad = None if k == "frozen" else np.where(rng.random(shapes[k]) < 0.1, 0.0, g)
                if p.grad is not None:
                    ref[k] = list(_adamw_expression_step(*ref[k], p.grad, t, 0.05, wd))
            opt.step(pool)
            for k, p in params.items():
                for got, want in zip((p.value, opt.m[k], opt.v[k]), ref[k]):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (k, t)
    assert not opt.m["frozen"].any() and not opt.v["frozen"].any()


@pytest.mark.parametrize("processes", [1, 2, 3, 5])
def test_adamw_shares_cut_the_blocks_in_order_within_one_block_of_the_mean(processes):
    shapes = {"big": (40, 1000), "long": (dn._BLOCK + 3,), "wide": (2, dn._BLOCK + 5),
              "vec": (13,), "scalar": ()}
    params = {k: ad.tensor(np.zeros(s)) for k, s in shapes.items()}
    blocks = dn._blocks(params)
    shares = dn._shares(params, processes)
    assert len(shares) == processes
    assert [block for share in shares for block in share] == blocks  # whole, once, in order
    size = lambda k, rows: np.atleast_1d(params[k].value)[rows].size
    largest = max(size(k, rows) for k, rows in blocks)
    mean = sum(size(k, rows) for k, rows in blocks) / processes
    for share in shares:
        assert abs(sum(size(k, rows) for k, rows in share) - mean) <= largest


def test_adamw_step_leaves_loaded_state_untouched():
    rng = np.random.default_rng(1)
    p = ad.tensor(rng.normal(0, 1, (4, 3)))
    state = {"opt.step": np.array([2.0]), "opt.m.p": rng.normal(0, 1, (4, 3)),
             "opt.v.p": rng.uniform(0, 1, (4, 3))}
    before = {k: a.tobytes() for k, a in state.items()}
    opt = dn.AdamW({"p": p}, lr=0.1)
    opt.load_state_arrays(state)
    p.grad = rng.normal(0, 1, (4, 3))
    opt.step()
    assert opt.t == 3
    assert {k: a.tobytes() for k, a in state.items()} == before


# -- training step ------------------------------------------------------


def make_tiny_model(mode=fu.SEAD, seed=0, **toggles):
    spec = small_config(layers=1, d_audio=4, d_text=3, n_styles=2,
                        window=4, mode=mode, mask_prob=0.1, **toggles)
    return dn.build_model(spec, seed)


def make_batch(rng, n=2, frames=6):
    return [dn.TrainExample(x0=rng.normal(0, 1, (frames, 5)),
                            audio=rng.normal(0, 1, (frames, 4)),
                            text=rng.normal(0, 1, (frames, 3)),
                            style_id=i % 2, emotion_id=i % 8) for i in range(n)]


def test_training_step_returns_losses_and_updates(rng):
    model = make_tiny_model()
    opt = dn.AdamW(model.named(), lr=1e-3)
    sch = build_schedule(10, 1e-4, 0.2)
    before = {k: p.value.copy() for k, p in model.named().items()}
    out = dn.training_step(model, opt, make_batch(rng), sch, np.random.default_rng(1))
    assert set(out) == {"l_total", "l_g", "l_s", "l_e"}
    assert out["l_total"] == pytest.approx(out["l_g"] + out["l_s"] + out["l_e"], rel=1e-9)
    changed = [k for k, p in model.named().items()
               if not np.array_equal(p.value, before[k])]
    assert len(changed) > 0


def test_training_step_sa_mode_has_no_alignment_losses(rng):
    model = make_tiny_model(mode=fu.SA)
    opt = dn.AdamW(model.named(), lr=1e-3)
    sch = build_schedule(10, 1e-4, 0.2)
    out = dn.training_step(model, opt, make_batch(rng), sch, np.random.default_rng(1))
    assert out["l_s"] == 0.0 and out["l_e"] == 0.0


def test_training_step_rejects_empty_batch(rng):
    model = make_tiny_model()
    opt = dn.AdamW(model.named(), lr=1e-3)
    with pytest.raises(ShapeError):
        dn.training_step(model, opt, [], build_schedule(10, 1e-4, 0.2), np.random.default_rng(0))


def _training_state(model, opt):
    return ({k: p.value.tobytes() for k, p in model.named().items()},
            {k: a.tobytes() for k, a in opt.m.items()},
            {k: a.tobytes() for k, a in opt.v.items()}, opt.t)


@pytest.mark.parametrize("processes", [1, 2])
def test_training_step_raises_on_nonfinite(rng, processes):
    model = make_tiny_model()
    model.fusion.gesture_w.value[...] = np.inf
    opt = dn.AdamW(model.named(), lr=1e-3)
    before = _training_state(model, opt)
    with dn.ClipPool(model, processes, opt) as pool, pytest.raises(NumericalError, match="clip 0"):
        dn.training_step(model, opt, make_batch(rng), build_schedule(10, 1e-4, 0.2),
                         np.random.default_rng(0), pool=pool)
    assert _training_state(model, opt) == before


@pytest.mark.parametrize("processes", [1, 2])
def test_training_step_raises_before_any_update_when_a_later_clip_is_nonfinite(rng, processes):
    """The first clip is finite and runs its backward; the second is not. No weight,
    moment or step count may change. On 2 processes the second clip is the worker's."""
    model = make_tiny_model()
    opt = dn.AdamW(model.named(), lr=1e-3)
    sch = build_schedule(10, 1e-4, 0.2)
    with dn.ClipPool(model, processes, opt) as pool:
        dn.training_step(model, opt, make_batch(rng), sch, np.random.default_rng(1), pool=pool)
        batch = make_batch(rng, n=3)
        batch[1].audio[2, 1] = np.inf
        before = _training_state(model, opt)
        with pytest.raises(NumericalError, match="clip 1"):
            dn.training_step(model, opt, batch, sch, np.random.default_rng(2), pool=pool)
    assert _training_state(model, opt) == before


def test_training_step_draws_each_clip_just_before_it_starts(rng, monkeypatch):
    """On W processes, clip k starts, here or sent to a worker, with at most k + W
    clips drawn (batch 8, W = 1 and 2), and both write the same bytes."""
    draw, clip_backward, send, master = dn._draw_clip, dn._clip_backward, dn.ClipPool.send, os.getpid()
    drawn, started = [], []  # one entry per draw; (clip, draws taken) per clip start

    def counted_draw(*args):
        drawn.append(args)
        return draw(*args)

    def started_here(model, *job):
        if os.getpid() == master:
            started.append((job[-1], len(drawn)))
        return clip_backward(model, *job)

    def started_there(pool, w, kind, job):
        if kind == "clip":
            started.append((job[-1], len(drawn)))
        return send(pool, w, kind, job)

    monkeypatch.setattr(dn, "_draw_clip", counted_draw)
    monkeypatch.setattr(dn, "_clip_backward", started_here)
    monkeypatch.setattr(dn.ClipPool, "send", started_there)
    batch, sch = make_batch(rng, n=8), build_schedule(10, 1e-4, 0.2)
    states = []
    for processes in (1, 2):
        model = make_tiny_model()
        opt = dn.AdamW(model.named(), lr=1e-3)
        drawn.clear()
        started.clear()
        with dn.ClipPool(model, processes, opt) as pool:
            out = dn.training_step(model, opt, batch, sch, np.random.default_rng(1), pool=pool)
        assert sorted(k for k, _ in started) == list(range(8))
        assert all(count <= k + processes for k, count in started), (processes, started)
        states.append((out, _training_state(model, opt)))
    assert states[0] == states[1]


def test_clip_pool_runs_openblas_on_one_thread_and_gives_its_count_back():
    counts = lambda: [get() for get, _ in dn._openblas_threads()]
    before = counts()
    model = make_tiny_model()
    with dn.ClipPool(model, 2, dn.AdamW(model.named(), lr=1e-3)):
        assert counts() == [1] * len(before)
    assert counts() == before


def _one_graph_step(model, optimizer, batch, schedule, rng, huber_delta=1.0):
    """The training step as one graph over the whole batch and one backward: the
    form that accumulating the gradients clip by clip must equal bit for bit."""
    total_parts = []
    sums = {"l_g": 0.0, "l_s": 0.0, "l_e": 0.0}
    for ex in batch:
        t = int(rng.integers(schedule.steps))
        eps = rng.standard_normal(ex.x0.shape)
        x_t = q_sample(ex.x0, t, eps, schedule)
        bundle = fu.encode_conditions(model.fusion, ex.audio, ex.text,
                                      ex.style_id, ex.emotion_id, x_t, t)
        target_s, target_e = bundle.f_s, bundle.f_e
        bundle.f_s, bundle.f_e = fu.mask_conditions(bundle.f_s, bundle.f_e,
                                                    model.fusion.spec.mask_prob, rng.random(2))
        out = fu.fusion_forward(model.fusion, bundle)
        x0_hat = dn.denoiser_forward(model.denoiser, out.f_fuse)
        l_g = ad.huber_loss(x0_hat - ad.tensor(ex.x0), huber_delta)
        if out.disentangled is not None:
            l_s, l_e = fu.style_emotion_losses(out.disentangled, target_s, target_e)
        else:
            l_s = l_e = ad.tensor(0.0)
        total_parts.append(l_g + l_s + l_e)
        sums["l_g"] += float(l_g.value)
        sums["l_s"] += float(l_s.value)
        sums["l_e"] += float(l_e.value)
    n = len(batch)
    total = total_parts[0]
    for p in total_parts[1:]:
        total = total + p
    total = total / n
    total.backward()
    optimizer.step()
    return {"l_total": float(total.value),
            "l_g": sums["l_g"] / n, "l_s": sums["l_s"] / n, "l_e": sums["l_e"] / n}


@pytest.mark.parametrize("mode,toggles", [
    (fu.SA, {}), (fu.SEA, {}), (fu.SEAD_BASIC, {}), (fu.SEAD, {}),
    (fu.SEAD, {"use_conv": True}), (fu.SEAD, {"use_attention": False}),
    (fu.SEAD, {"use_mamba": False})], ids=str)
def test_training_step_equals_one_graph_step_bit_for_bit(mode, toggles):
    sch = build_schedule(10, 1e-4, 0.2)
    runs = []
    for step in (dn.training_step, _one_graph_step):
        model = make_tiny_model(mode=mode, seed=3, **toggles)
        for p in model.named().values():  # a larger init, so every gradient matters
            p.value[...] += np.random.default_rng(4).normal(0, 0.3, p.value.shape)
        opt = dn.AdamW(model.named(), lr=1e-2)
        rng, data = np.random.default_rng(5), np.random.default_rng(6)
        losses = [step(model, opt, make_batch(data, n=3), sch, rng) for _ in range(3)]
        arrays = {k: p.value.tobytes() for k, p in model.named().items()}
        arrays |= {f"{k}.m": a.tobytes() for k, a in opt.m.items()}
        arrays |= {f"{k}.v": a.tobytes() for k, a in opt.v.items()}
        skipped = {k for k, p in model.named().items() if p.grad is None}
        runs.append((losses, arrays, skipped, opt.t))
    assert runs[0] == runs[1]
    assert bool(runs[0][2]) == (mode != fu.SEAD)  # the lower rungs leave some weights unreached


def _step_peak_bytes(batch_size):
    model = make_tiny_model()
    opt = dn.AdamW(model.named(), lr=1e-3)
    batch = make_batch(np.random.default_rng(0), n=batch_size, frames=40)
    tracemalloc.start()
    try:
        dn.training_step(model, opt, batch, build_schedule(10, 1e-4, 0.2),
                         np.random.default_rng(1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_memory_does_not_grow_with_the_batch():
    """Each clip's graph is freed after its backward, so the peak holds one clip's
    graph plus one gradient per weight, whatever the batch size."""
    assert _step_peak_bytes(8) <= 1.25 * _step_peak_bytes(1)


def test_training_is_deterministic(rng):
    losses = []
    for _ in range(2):
        model = make_tiny_model(seed=5)
        opt = dn.AdamW(model.named(), lr=1e-3)
        sch = build_schedule(10, 1e-4, 0.2)
        r = np.random.default_rng(42)
        batch = make_batch(np.random.default_rng(7))
        losses.append([dn.training_step(model, opt, batch, sch, r)["l_total"]
                       for _ in range(3)])
    assert losses[0] == losses[1]


def test_predict_x0_shape(rng):
    model = make_tiny_model()
    x0_hat = dn.predict_x0(model, rng.normal(0, 1, (6, 4)), rng.normal(0, 1, (6, 3)),
                           0, 1, rng.normal(0, 1, (6, 5)), 3)
    assert x0_hat.shape == (6, 5)
    assert isinstance(x0_hat, np.ndarray)


def test_predict_x0_without_graph_equals_grad_mode_forward_bit_for_bit(rng, monkeypatch):
    model = make_tiny_model()
    audio, text = rng.normal(0, 1, (6, 4)), rng.normal(0, 1, (6, 3))
    x_t = rng.normal(0, 1, (6, 5))
    bundle = fu.encode_conditions(model.fusion, audio, text, 1, 2, x_t, 3)
    f_fuse = fu.fusion_forward(model.fusion, bundle).f_fuse
    graph = dn.denoiser_forward(model.denoiser, f_fuse)
    assert graph._parents  # the reference was built with a graph
    modes, forward = [], dn.denoiser_forward
    monkeypatch.setattr(dn, "denoiser_forward",
                        lambda *a: modes.append(ad.is_grad_enabled()) or forward(*a))
    got = dn.predict_x0(model, audio, text, 1, 2, x_t, 3)
    assert modes == [False]
    assert got.tobytes() == graph.value.tobytes()
