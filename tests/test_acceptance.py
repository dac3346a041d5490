"""Acceptance gate: end-to-end correctness and reproducibility criteria.

Each criterion prints a single PASS/FAIL line so the gate can be read off
the test log directly. The expensive pipelines (the overfit run and the
ablation matrix) are executed twice inside module fixtures so the
reproducibility criterion can compare artifacts byte-for-byte.
"""
import time

import numpy as np
import pytest

from gesturegen import autodiff as ad
from gesturegen import bvh, denoiser as dn, diffusion as df, fusion as fu
from gesturegen import harness, metrics as mt, ssm, synthetic


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# 1. graph scan == graph-free scan == a plain per-step loop, for the fused scan the model runs


def test_criterion_1_scan_equivalence(scan_oracle):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    lengths = list(rng.integers(1, 513, size=197)) + [1, 300, 512]
    worst = worst_loop = 0.0
    for L in lengths:
        L = int(L)
        C, N = 2, 3
        delta = rng.uniform(0.05, 1.0, (L, C))
        a = -rng.uniform(0.2, 2.0, (C, N))
        b_proj = rng.normal(0, 1, (L, N))
        c_proj = rng.normal(0, 1, (L, N))
        d = rng.normal(0, 1, C)
        u = rng.normal(0, 1, (L, C))
        seq = ssm.selective_scan_fused(delta, b_proj, c_proj, a, d, u).value
        with ad.no_grad():
            par = ssm.selective_scan_fused(delta, b_proj, c_proj, a, d, u).value
        loop = scan_oracle(delta, b_proj, c_proj, a, d, u)
        denom = max(1.0, np.abs(seq).max())
        worst = max(worst, float(np.abs(seq - par).max() / denom))
        worst_loop = max(worst_loop, float(max(np.abs(seq - loop).max(),
                                               np.abs(par - loop).max()) / denom))
    dt = time.perf_counter() - t0
    _report("1 scan-equivalence", worst < 1e-9 and worst_loop < 1e-9 and dt < 30.0,
            f"(200 cases, max rel err {worst:.2e}, vs per-step loop {worst_loop:.2e}, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 2. constant-parameter scan == impulse-kernel convolution


def test_criterion_2_convolution_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(1, 7))
        L = int(rng.integers(2, 200))
        a, b, c = -rng.uniform(0.2, 2.0, N), rng.normal(0, 1, N), rng.normal(0, 1, N)
        d = float(rng.normal())
        delta = float(rng.uniform(0.05, 0.8))
        u = rng.normal(0, 1, L)
        # impulse response k_j = c . abar^j bbar of the zero-order-hold discretization
        abar, bbar = np.exp(delta * a), delta * b
        kernel = (abar ** np.arange(L)[:, None] * bbar * c).sum(axis=1)
        y_conv = np.convolve(u, kernel)[:L] + d * u
        with ad.no_grad():  # one channel, with constant delta, b and c
            y_scan = ssm.selective_scan_fused(
                np.full((L, 1), delta), np.broadcast_to(b, (L, N)).copy(),
                np.broadcast_to(c, (L, N)).copy(), a[None, :],
                np.array([d]), u[:, None]).value[:, 0]
        worst = max(worst, float(np.abs(y_conv - y_scan).max() / max(1.0, np.abs(y_conv).max())))
    dt = time.perf_counter() - t0
    _report("2 convolution-equivalence", worst < 1e-9 and dt < 10.0,
            f"(50 cases, max rel err {worst:.2e}, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 3. gradient suite


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    errs = {}

    gamma = ad.tensor(rng.normal(1.0, 0.2, 8))
    beta = ad.tensor(rng.normal(0, 0.2, 8))
    errs["layer_norm"] = ad.finite_diff_check(
        lambda x: ad.layer_norm(x, gamma, beta), rng.normal(0, 1, (5, 8)))

    k = ad.tensor(rng.normal(0, 1, (6, 4)))
    v = ad.tensor(rng.normal(0, 1, (6, 4)))
    errs["attention"] = ad.finite_diff_check(
        lambda q: ad.scaled_dot_attention(q, k, v), rng.normal(0, 1, (5, 4)))

    mw = ssm.init_mamba_block(6, rng, n_state=4, conv_width=3, init_std=0.35)
    errs["mamba_block"] = ad.finite_diff_check(
        lambda x: ssm.mamba_block_forward(mw, x), rng.normal(0, 1, (6, 6)))

    dcfg = fu.ModelSpec(layers=1, d=8, gesture_dim=5, n_state=4,
                        use_conv=True, mamba_conv_width=2, block_conv_width=2)
    dw = dn.build_variant(dcfg, seed=1)
    for p in dw.named().values():
        p.value[...] = rng.normal(0, 0.3, p.value.shape)
    dw.blocks[0].ln1_gamma.value[...] = 1.0
    dw.blocks[0].ln2_gamma.value[...] = 1.0
    errs["mambattn_block"] = ad.finite_diff_check(
        lambda x: dn.mambattn_block(dw.blocks[0], x, dcfg), rng.normal(0, 1, (5, 8)))

    spec = fu.ModelSpec(layers=2, d=12, d_audio=5, d_text=4, n_styles=2,
                        gesture_dim=6, window=3, mode=fu.SEAD, n_state=4, mamba_conv_width=2)
    fw = fu.init_fusion(spec, rng, init_std=0.25)
    text = rng.normal(0, 1, (6, 4))
    x_t = rng.normal(0, 1, (6, 6))

    def sead_path(audio_t):
        bundle = fu.ConditionBundle(
            f_a=audio_t,
            f_text=ad.matmul(ad.tensor(text), fw.text_w) + fw.text_b,
            f_s=fw.style_enc[1, :], f_e=fw.emotion_enc[3, :],
            f_t=fu.encode_timestep(fw, 4),
            f_g=ad.matmul(ad.tensor(x_t), fw.gesture_w) + fw.gesture_b)
        return fu.fusion_forward(fw, bundle).f_fuse

    errs["sead_path"] = ad.finite_diff_check(sead_path, rng.normal(0, 1, (6, 5)))

    model = dn.GestureModel(fw, dn.build_variant(spec, seed=2))
    for name, p in model.denoiser.named().items():
        if "gamma" in name:
            p.value[...] = 1.0 + rng.normal(0, 0.1, p.value.shape)
        else:
            p.value[...] = rng.normal(0, 0.25, p.value.shape)
    audio = rng.normal(0, 1, (6, 5))

    def full_denoiser(x):
        bundle = fu.ConditionBundle(
            f_a=ad.tensor(audio),
            f_text=ad.matmul(ad.tensor(text), fw.text_w) + fw.text_b,
            f_s=fw.style_enc[0, :], f_e=fw.emotion_enc[1, :],
            f_t=fu.encode_timestep(fw, 2),
            f_g=ad.matmul(x, fw.gesture_w) + fw.gesture_b)
        out = fu.fusion_forward(fw, bundle)
        return dn.denoiser_forward(model.denoiser, out.f_fuse)

    errs["full_denoiser"] = ad.finite_diff_check(full_denoiser, x_t)

    dt = time.perf_counter() - t0
    worst = max(errs.values())
    _report("3 gradient-suite", worst < 1e-4 and dt < 120.0,
            f"(max rel err {worst:.2e} in {max(errs, key=errs.get)}, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 4. forward marginals at T=1000


def test_criterion_4_diffusion_marginals():
    t0 = time.perf_counter()
    T = 1000
    s = df.build_schedule(T, 1e-4, 0.02)
    ok = s.alpha_bar[-1] < 1e-4
    detail = [f"abar_T={s.alpha_bar[-1]:.2e}"]
    rng = np.random.default_rng(2)
    n, x0 = 10000, 1.0
    for t_check in (1, 10, 500, 999):
        x = np.full(n, x0)
        for t in range(t_check + 1):
            x = np.sqrt(1 - s.beta[t]) * x + np.sqrt(s.beta[t]) * rng.standard_normal(n)
        mean_want = np.sqrt(s.alpha_bar[t_check]) * x0
        var_want = 1 - s.alpha_bar[t_check]
        se_mean = np.sqrt(var_want / n)
        se_var = var_want * np.sqrt(2.0 / (n - 1))
        mean_ok = abs(x.mean() - mean_want) < 3 * se_mean
        var_ok = abs(x.var() - var_want) < 3 * se_var
        # the closed form itself must agree with its own parameters
        direct = df.q_sample(np.array([x0]), t_check, np.array([0.7]), s)[0]
        closed_ok = abs(direct - (mean_want + np.sqrt(var_want) * 0.7)) < 1e-12
        ok = ok and mean_ok and var_ok and closed_ok
        detail.append(f"t={t_check}:{'ok' if mean_ok and var_ok else 'BAD'}")
    dt = time.perf_counter() - t0
    _report("4 diffusion-marginals", ok and dt < 60.0,
            f"({', '.join(detail)}, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 5. oracle reverse loop


def test_criterion_5_oracle_reverse_loop():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    x0 = rng.normal(0, 1, (60, 75))
    s = df.build_schedule(50, 1e-4, 0.2)
    out = df.sample_loop(lambda x, t: x0, x0.shape, s, seed=8)
    err = float(np.abs(out - x0).max())
    # zero-noise chain converges to the oracle before the final step too
    x = rng.normal(0, 1, x0.shape) * 3.0
    z = np.zeros_like(x0)
    for t in range(49, 0, -1):
        x = df.posterior_step_from_x0(x, x0, t, z, s)
    pre_final = float(np.abs(x - x0).max())
    dt = time.perf_counter() - t0
    _report("5 oracle-reverse-loop", err < 1e-6 and pre_final < 1e-3 and dt < 30.0,
            f"(final err {err:.2e}, pre-final {pre_final:.2e}, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 6 + 7 + 11a. toy overfit, disentanglement losses, reproducibility


@pytest.fixture(scope="module")
def warm_extractor(toy_corpus, toy_cfg):
    # train the feature extractor once and cache it next to the corpus so
    # every subsequent evaluation (including repeats) loads identical weights
    harness.get_extractor(toy_corpus, toy_cfg)
    return toy_corpus / "fgd_extractor.ckpt"


@pytest.fixture(scope="module")
def overfit_runs(tmp_path_factory, toy_cfg, toy_corpus, warm_extractor):
    root = tmp_path_factory.mktemp("overfit")
    res_a = harness.run_train(toy_cfg, toy_corpus, root / "run_a")
    res_b = harness.run_train(toy_cfg, toy_corpus, root / "run_b")
    gen = harness.run_sample(res_a["checkpoint"], toy_corpus, n=1, seed=toy_cfg["seed"],
                             out_dir=root / "gen", max_conditions=8)
    rep1 = harness.run_eval(root / "gen", toy_corpus, toy_cfg, out_dir=root / "eval1")
    rep2 = harness.run_eval(root / "gen", toy_corpus, toy_cfg, out_dir=root / "eval2")
    return {"root": root, "a": res_a, "b": res_b, "gen": gen,
            "rep1": rep1, "rep2": rep2}


def test_criterion_6_toy_overfit_and_ordering(overfit_runs, toy_cfg, toy_corpus):
    rows = overfit_runs["a"]["loss_rows"]
    lg_start = float(np.mean([r["l_g"] for r in rows[:5]]))
    lg_end = float(np.mean([r["l_g"] for r in rows[-5:]]))
    loss_ok = lg_end < 0.3 * lg_start

    ext, ref = harness.get_extractor(toy_corpus, toy_cfg)
    ref_clips = [r.x0 for r in ref.records]
    ref_feats = ext.features(ref_clips)
    fgd_trained = overfit_runs["rep1"]["fgd"]
    rng = np.random.default_rng(99)
    shape = (ref.frames, ref.gesture_dim)
    noise_feats = ext.features([rng.normal(0, 1, shape) for _ in range(len(ref_clips))])
    fgd_noise = mt.frechet_distance(ref_feats, noise_feats)
    order_ok = fgd_trained * 2.0 < fgd_noise
    _report("6 toy-overfit", loss_ok and order_ok,
            f"(l_g {lg_start:.4f}->{lg_end:.4f}, fgd trained {fgd_trained:.4f} "
            f"vs noise {fgd_noise:.4f})")


def test_criterion_7_disentanglement_losses(overfit_runs):
    rows = overfit_runs["a"]["loss_rows"]
    oks, details = [], []
    for key in ("l_s", "l_e"):
        start = float(np.mean([r[key] for r in rows[:5]]))
        end = float(np.mean([r[key] for r in rows[-5:]]))
        oks.append(end < 0.5 * start)
        details.append(f"{key} {start:.4f}->{end:.4f}")
    _report("7 disentanglement-losses", all(oks), f"({', '.join(details)})")


# ----------------------------------------------------------------------
# 8. metric sanity


def test_criterion_8_metric_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    fgd_1d = mt.frechet_distance(rng.normal(0, 1, (100000, 1)),
                                 rng.normal(1, 1, (100000, 1)))
    fgd_2d = mt.frechet_distance(rng.normal(0, 1, (100000, 2)),
                                 rng.normal(0, 1, (100000, 2)) + 1.0)
    gauss_ok = abs(fgd_1d - 1.0) < 0.05 and abs(fgd_2d - 2.0) < 0.1

    feats = rng.normal(0, 1, (10, 4))
    oracle = np.mean([np.abs(feats[i] - feats[j]).sum()
                      for i in range(10) for j in range(i + 1, 10)])
    div_ok = mt.diversity_score(feats, n=10) == pytest.approx(oracle, rel=1e-12)

    beat_ok = (mt.beat_align([1.0, 2.0], [1.0, 2.0]) == 1.0
               and abs(mt.beat_align([1.0], [1.1], sigma=0.1) - np.exp(-0.5)) < 1e-12)

    layout = bvh.JointLayout(["a", "b"], ["ZXY", "ZXY"])
    clip = bvh.MotionClip(30.0, np.zeros((5, 3)), rng.normal(0, 0.3, (5, 2, 9)), layout)
    rows = bvh.clip_to_features(clip)
    srgr_ok = mt.srgr(rows, rows, 0.2) == 1.0
    dt = time.perf_counter() - t0
    _report("8 metric-sanity", gauss_ok and div_ok and beat_ok and srgr_ok and dt < 60.0,
            f"(fgd1d {fgd_1d:.3f}, fgd2d {fgd_2d:.3f}, {dt:.1f}s)")


# ----------------------------------------------------------------------
# 9 + 11b. ablation matrix, twice


@pytest.fixture(scope="module")
def ablation_runs(tmp_path_factory, toy_cfg, toy_corpus, warm_extractor):
    cfg = dict(toy_cfg)
    cfg["train.steps"] = 50
    cfg["sample.max_conditions"] = 2
    root = tmp_path_factory.mktemp("ablation")
    rows_a = harness.run_ablation(cfg, toy_corpus, root / "a")
    rows_b = harness.run_ablation(cfg, toy_corpus, root / "b")
    return {"root": root, "a": rows_a, "b": rows_b}


def test_criterion_9_ablation_matrix(ablation_runs):
    rows = ablation_runs["a"]
    failures = [r["name"] for r in rows if "error" in r]
    names = [r["name"] for r in rows]
    complete = (len(rows) == 16
                and sum(n.startswith("layers-") for n in names) == 5
                and sum(n.startswith("fusion-") for n in names) == 4)
    metrics_ok = all(np.isfinite([r[c] for c in harness.METRIC_COLUMNS])
                     .all() for r in rows if "error" not in r)
    steps_ok = all(
        len((ablation_runs["root"] / "a" / n / "loss.csv").read_text().splitlines()) >= 51
        for n in names)
    _report("9 ablation-matrix", not failures and complete and metrics_ok and steps_ok,
            f"(16 variants, failures: {failures or 'none'})")


def test_criterion_10_bvh_roundtrip(toy_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    files = sorted(toy_corpus.glob("*.bvh"))
    assert len(files) == 16
    for path in files:
        text = path.read_text()
        skel, clip = bvh.parse_bvh(text)
        skel2, clip2 = bvh.parse_bvh(bvh.write_bvh(skel, clip))
        worst = max(worst,
                    float(np.abs(clip.rotations - clip2.rotations).max()),
                    float(np.abs(clip.root_translation - clip2.root_translation).max()),
                    abs(clip.fps - clip2.fps))
    rng = np.random.default_rng(6)
    layout = bvh.JointLayout(["a"], ["ZXY"])
    hi = bvh.MotionClip(120.0, rng.normal(0, 1, (650, 3)),
                        rng.uniform(-90, 90, (650, 1, 3)), layout)
    down = bvh.resample(hi, 30.0)
    dec_ok = (np.array_equal(down.rotations, hi.rotations[::4])
              and np.array_equal(down.root_translation, hi.root_translation[::4]))
    segs = bvh.segment_clips(hi, 300, 300)
    seg_ok = (len(segs) == 2
              and np.array_equal(segs[0].rotations, hi.rotations[:300])
              and np.array_equal(segs[1].rotations, hi.rotations[300:600]))
    dt = time.perf_counter() - t0
    _report("10 bvh-roundtrip", worst < 1e-6 and dec_ok and seg_ok and dt < 30.0,
            f"(max round-trip err {worst:.2e}, {dt:.1f}s)")


def test_criterion_11_reproducibility(overfit_runs, ablation_runs):
    root = overfit_runs["root"]
    loss_ok = ((root / "run_a" / "loss.csv").read_bytes()
               == (root / "run_b" / "loss.csv").read_bytes())
    ckpt_ok = ((root / "run_a" / "model.ckpt").read_bytes()
               == (root / "run_b" / "model.ckpt").read_bytes())
    report_ok = ((root / "eval1" / "report.json").read_bytes()
                 == (root / "eval2" / "report.json").read_bytes())

    aroot = ablation_runs["root"]
    table_ok = (aroot / "a" / "ablation.txt").read_bytes() == \
        (aroot / "b" / "ablation.txt").read_bytes()
    variant_ok = all(
        (aroot / "a" / name / "loss.csv").read_bytes()
        == (aroot / "b" / name / "loss.csv").read_bytes()
        for name, _ in harness.ablation_variants())
    _report("11 reproducibility",
            loss_ok and ckpt_ok and report_ok and table_ok and variant_ok,
            f"(loss {loss_ok}, ckpt {ckpt_ok}, report {report_ok}, "
            f"table {table_ok}, variants {variant_ok})")
