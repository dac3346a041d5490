"""Experiment harness (train/sample/eval) and the CLI surface."""
import hashlib
import json
import shutil

import numpy as np
import pytest

from gesturegen import cli, harness, metrics as mt, synthetic
from gesturegen.errors import DataError, ParseError
from gesturegen.fileio import read_checkpoint, write_checkpoint


def test_run_train_outputs(mini_run, mini_cfg):
    rows = mini_run["loss_rows"]
    assert len(rows) == mini_cfg["train.steps"]
    assert all(set(r) == {"l_total", "l_g", "l_s", "l_e"} for r in rows)
    log = mini_run["loss_log"].read_text().splitlines()
    assert log[0] == "step,l_total,l_g,l_s,l_e"
    assert len(log) == mini_cfg["train.steps"] + 1
    first = log[1].split(",")
    assert first[0] == "0" and len(first) == 5
    float(first[1])  # parseable


def test_checkpoint_contains_model_and_optimizer(mini_run):
    arrays, cfg, step = read_checkpoint(mini_run["checkpoint"])
    assert step == 8
    assert "fusion.style_enc" in arrays
    assert "denoiser.proj_w" in arrays
    assert "opt.step" in arrays
    assert any(k.startswith("opt.m.") for k in arrays)
    assert cfg["model.d"] == "32"
    assert "data.gesture_dim" in cfg


def test_checkpoint_holds_the_training_state_bit_for_bit(tmp_path, mini_cfg, mini_corpus,
                                                         monkeypatch):
    saved = {}

    def capture(path, arrays, config, step):
        saved.update({k: np.array(v, dtype=np.float64) for k, v in arrays.items()})
        write_checkpoint(path, arrays, config, step)

    monkeypatch.setattr(harness, "write_checkpoint", capture)
    cfg = dict(mini_cfg, **{"train.steps": 2, "model.layers": 1})
    ckpt = harness.run_train(cfg, mini_corpus, tmp_path / "run")["checkpoint"]
    arrays, _, step = read_checkpoint(ckpt)
    assert step == 2 and set(arrays) == set(saved)
    for k, v in saved.items():
        assert arrays[k].dtype == np.float64 and arrays[k].tobytes() == v.tobytes(), k

    model, spec, _, opt_state = harness.load_model(ckpt)
    assert all(spec[k] == cfg[k] for k in cfg if k.split(".")[0] in ("model", "diffusion", "train"))
    assert all(p.value.tobytes() == saved[k].tobytes() for k, p in model.named().items())
    assert all(v.tobytes() == saved[k].tobytes() for k, v in opt_state.items())


def test_load_model_rejects_header_without_widths(tmp_path, mini_run):
    arrays, header, step = read_checkpoint(mini_run["checkpoint"])
    del header["data.d_audio"]
    write_checkpoint(tmp_path / "m.ckpt", arrays, header, step)
    with pytest.raises(DataError, match="corpus widths"):
        harness.load_model(tmp_path / "m.ckpt")


def test_load_model_bit_exact_reload(mini_run):
    m1, cfg1, step1, opt1 = harness.load_model(mini_run["checkpoint"])
    m2, _, _, _ = harness.load_model(mini_run["checkpoint"])
    p1, p2 = m1.named(), m2.named()
    assert set(p1) == set(p2)
    for k in p1:
        assert np.array_equal(p1[k].value, p2[k].value), k
    assert step1 == 8


def test_resume_training_is_deterministic(mini_run, mini_cfg, mini_corpus):
    """Two resumes from the same checkpoint take identical steps."""
    from gesturegen import denoiser as dn
    from gesturegen.diffusion import build_schedule

    def resume_losses():
        model, cfg, step, opt_state = harness.load_model(mini_run["checkpoint"])
        opt = dn.AdamW(model.named(), lr=mini_cfg["train.lr"],
                       weight_decay=mini_cfg["train.weight_decay"])
        opt.load_state_arrays(opt_state)
        assert opt.t > 0
        ds = synthetic.load_dataset(mini_corpus)
        sch = build_schedule(mini_cfg["diffusion.steps"], mini_cfg["diffusion.beta_start"],
                             mini_cfg["diffusion.beta_end"])
        rng = np.random.default_rng(123)
        batch = [dn.TrainExample(r.x0, r.audio, r.text, r.style_id, r.emotion_id)
                 for r in ds.records[:2]]
        return [dn.training_step(model, opt, batch, sch, rng)["l_total"]
                for _ in range(3)]

    a, b = resume_losses(), resume_losses()
    assert a == b
    assert np.isfinite(a).all()


def test_run_sample_writes_parseable_bvh(tmp_path, mini_run, mini_corpus):
    written = harness.run_sample(mini_run["checkpoint"], mini_corpus, n=2, seed=4,
                                 out_dir=tmp_path / "gen", max_conditions=2)
    assert len(written) == 4  # 2 conditions x 2 samples
    names = {p.name for p in written}
    assert "clip_0000.sample00.bvh" in names and "clip_0001.sample01.bvh" in names
    from gesturegen.bvh import parse_bvh
    ds = synthetic.load_dataset(mini_corpus)
    for p in written:
        _, clip = parse_bvh(p.read_text())
        assert clip.frames == ds.frames
        assert clip.layout.joint_count == ds.layout.joint_count


def test_run_sample_deterministic(tmp_path, mini_run, mini_corpus):
    a = harness.run_sample(mini_run["checkpoint"], mini_corpus, n=1, seed=4,
                           out_dir=tmp_path / "a", max_conditions=1)
    b = harness.run_sample(mini_run["checkpoint"], mini_corpus, n=1, seed=4,
                           out_dir=tmp_path / "b", max_conditions=1)
    c = harness.run_sample(mini_run["checkpoint"], mini_corpus, n=1, seed=5,
                           out_dir=tmp_path / "c", max_conditions=1)
    assert a[0].read_bytes() == b[0].read_bytes()
    assert a[0].read_bytes() != c[0].read_bytes()


def test_run_eval_fixed_point(tmp_path, mini_cfg, mini_corpus):
    """Evaluating the reference against itself: fgd ~ 0, srgr = 1,
    beat_align = 1 (onsets are the clips' own detected beats)."""
    report = harness.run_eval(mini_corpus, mini_corpus, mini_cfg, out_dir=tmp_path / "e")
    assert report["fgd"] < 1e-6
    assert report["srgr"] == 1.0
    assert report["beat_align"] == pytest.approx(1.0, abs=1e-9)
    assert report["l1div"] > 0
    assert report["n_gen"] == report["n_ref"] == 6
    saved = json.loads((tmp_path / "e" / "report.json").read_text())
    assert saved["fgd"] == report["fgd"]
    assert (tmp_path / "e" / "report.txt").is_file()


def test_eval_uses_cached_extractor(tmp_path, mini_cfg, monkeypatch):
    corpus = tmp_path / "data"
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(mini_cfg), corpus)
    ext1, _ = harness.get_extractor(corpus, mini_cfg)
    assert (corpus / "fgd_extractor.ckpt").is_file()

    def retrain(*args, **kwargs):
        raise AssertionError("the cached extractor was retrained")

    monkeypatch.setattr(mt, "train_fgd_extractor", retrain)
    ext2, _ = harness.get_extractor(corpus, mini_cfg)
    first, second = ext1.named(), ext2.named()
    assert list(first) == list(second)
    for name, p in first.items():
        assert p.value.tobytes() == second[name].value.tobytes(), name


def test_extractor_cache_retrains_on_config_change(tmp_path, mini_cfg):
    corpus = tmp_path / "data"
    spec = synthetic.SyntheticSpec(n_clips=3, frames=20, joints=2, seed=3)
    synthetic.gen_synthetic_dataset(spec, corpus)
    cfg = dict(mini_cfg, **{"eval.extractor_steps": 3, "eval.extractor_hidden": 8})
    assert harness.get_extractor(corpus, cfg)[0].hidden == 8
    cfg["eval.extractor_hidden"] = 16
    ext, _ = harness.get_extractor(corpus, cfg)
    assert ext.hidden == 16 and ext.enc_w1.value.shape[1] == 16
    _, meta, _ = read_checkpoint(corpus / "fgd_extractor.ckpt")
    assert meta["hidden"] == "16"
    cached, _ = harness.get_extractor(corpus, cfg)
    assert cached.hidden == 16
    assert np.array_equal(cached.enc_w1.value, ext.enc_w1.value)


def test_cold_and_warm_eval_reports_are_equal(tmp_path, mini_cfg):
    ref, gen = tmp_path / "ref", tmp_path / "gen"
    for seed, corpus in ((3, ref), (4, gen)):
        spec = synthetic.SyntheticSpec(n_clips=3, frames=20, joints=2, seed=seed)
        synthetic.gen_synthetic_dataset(spec, corpus)
    cfg = dict(mini_cfg, **{"eval.extractor_steps": 5, "eval.extractor_hidden": 8})
    cold = harness.run_eval(gen, ref, cfg)
    assert (ref / "fgd_extractor.ckpt").is_file()
    assert harness.run_eval(gen, ref, cfg) == cold


def _write_mgckpt1(path, arrays, config, step):
    """The float32 checkpoint layout that preceded MGCKPT2."""
    with open(path, "wb") as f:
        f.write(b"MGCKPT1\n" + "".join(f"{k}={config[k]}\n" for k in sorted(config)).encode()
                + f"step={step}\n--\n".encode())
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f4")
            f.write(f"{name}\n{' '.join(map(str, arr.shape))}\n".encode() + arr.tobytes() + b"\n")


def test_mgckpt1_is_rejected_and_retrained_as_extractor_cache(tmp_path, mini_cfg):
    corpus = tmp_path / "data"
    synthetic.gen_synthetic_dataset(
        synthetic.SyntheticSpec(n_clips=3, frames=20, joints=2, seed=3), corpus)
    cfg = dict(mini_cfg, **{"eval.extractor_steps": 3, "eval.extractor_hidden": 8})
    trained, _ = harness.get_extractor(corpus, cfg)
    cache = corpus / "fgd_extractor.ckpt"
    _write_mgckpt1(cache, {k: np.zeros_like(p.value) for k, p in trained.named().items()},
                   {"seed": cfg["seed"], "steps": 3, "hidden": 8}, 3)
    with pytest.raises(ParseError):
        read_checkpoint(cache)
    ext, _ = harness.get_extractor(corpus, cfg)
    assert cache.read_bytes().startswith(b"MGCKPT2\n")
    assert all(np.array_equal(ext.named()[k].value, p.value) for k, p in trained.named().items())


def _corrupt_shape_line(path):
    """Replace the first array's shape line with a non-integer one."""
    head, sep, rest = path.read_bytes().partition(b"--\n")
    name, shape, payload = rest.split(b"\n", 2)
    path.write_bytes(head + sep + name + b"\n" + shape + b"x\n" + payload)


def test_extractor_cache_with_a_bad_shape_line_is_retrained(tmp_path, mini_cfg):
    corpus = tmp_path / "data"
    synthetic.gen_synthetic_dataset(
        synthetic.SyntheticSpec(n_clips=3, frames=20, joints=2, seed=3), corpus)
    cfg = dict(mini_cfg, **{"eval.extractor_steps": 3, "eval.extractor_hidden": 8})
    trained, _ = harness.get_extractor(corpus, cfg)
    cache = corpus / "fgd_extractor.ckpt"
    _corrupt_shape_line(cache)
    with pytest.raises(ParseError):
        read_checkpoint(cache)
    ext, _ = harness.get_extractor(corpus, cfg)
    assert read_checkpoint(cache)[1] == {"seed": str(cfg["seed"]), "steps": "3", "hidden": "8",
                                         "corpus": _x0_digest(corpus)}
    assert all(np.array_equal(ext.named()[k].value, p.value) for k, p in trained.named().items())


def _x0_digest(corpus):
    h = hashlib.sha256()
    for r in synthetic.load_dataset(corpus).records:
        h.update(np.ascontiguousarray(r.x0, dtype="<f8").tobytes())
    return h.hexdigest()


def test_extractor_cache_retrains_when_the_corpus_changes(tmp_path, mini_cfg):
    """Another corpus copied over the reference directory is a cache miss."""
    ref, other = tmp_path / "ref", tmp_path / "other"
    for seed, corpus in ((3, ref), (4, other)):
        synthetic.gen_synthetic_dataset(
            synthetic.SyntheticSpec(n_clips=3, frames=20, joints=2, seed=seed), corpus)
    cfg = dict(mini_cfg, **{"eval.extractor_steps": 3, "eval.extractor_hidden": 8})
    stale, _ = harness.get_extractor(ref, cfg)
    fresh, _ = harness.get_extractor(other, cfg)
    for f in other.iterdir():
        if f.name != "fgd_extractor.ckpt":
            shutil.copy(f, ref / f.name)
    ext, _ = harness.get_extractor(ref, cfg)
    for k, p in ext.named().items():
        assert np.array_equal(p.value, fresh.named()[k].value), k
    assert not np.array_equal(ext.dec_w2.value, stale.dec_w2.value)
    meta = read_checkpoint(ref / "fgd_extractor.ckpt")[1]
    assert meta["corpus"] == _x0_digest(other)


def test_ablation_variant_lists():
    names = [n for n, _ in harness.ablation_variants()]
    assert len(names) == 16
    assert names.count("layers-12") == 1
    assert {"full-block", "with-conv", "no-attn", "no-mamba", "conv-no-attn",
            "conv-no-mamba", "conv-only"} <= set(names)
    assert {"fusion-SA", "fusion-SEA", "fusion-SEAD-basic", "fusion-SEAD"} <= set(names)


def test_ablation_records_package_errors_and_raises_bugs(tmp_path, mini_cfg, monkeypatch):
    def failing(exc):
        def run_train(cfg, dataset_dir, out_dir):
            raise exc
        return run_train

    monkeypatch.setattr(harness, "run_train", failing(DataError("no clips")))
    rows = harness.run_ablation(mini_cfg, tmp_path / "data", tmp_path / "a")
    assert [r["name"] for r in rows] == [n for n, _ in harness.ablation_variants()]
    assert all(r["error"] == "DataError: no clips" for r in rows)
    assert "FAILED: DataError: no clips" in (tmp_path / "a" / "ablation.txt").read_text()
    assert all((tmp_path / "a" / n / "error.txt").read_text().endswith("DataError: no clips\n")
               for n, _ in harness.ablation_variants())

    monkeypatch.setattr(harness, "run_train", failing(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        harness.run_ablation(mini_cfg, tmp_path / "data", tmp_path / "b")


# -- CLI ----------------------------------------------------------------


def _write_cfg(path, mini_corpus, extra=""):
    path.write_text(
        "synthetic.n_clips = 4\nsynthetic.frames = 40\nsynthetic.joints = 3\n"
        "model.d = 32\nmodel.layers = 1\ntrain.steps = 2\ndiffusion.steps = 5\n"
        "eval.extractor_steps = 10\nsample.max_conditions = 2\n"
        f"data.dir = {mini_corpus}\n" + extra)
    return path


def test_cli_gen_train_sample_eval(tmp_path, mini_corpus):
    cfg = _write_cfg(tmp_path / "base.cfg", mini_corpus)
    assert cli.main(["gen-synthetic", "--config", str(cfg), "--out",
                     str(tmp_path / "data"), "--seed", "2"]) == 0
    assert (tmp_path / "data" / "clip_0003.bvh").is_file()

    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    ckpt = tmp_path / "run" / "model.ckpt"
    assert ckpt.is_file()

    cfg_sample = _write_cfg(tmp_path / "sample.cfg", mini_corpus,
                            extra=f"data.checkpoint = {ckpt}\n")
    assert cli.main(["sample", "--config", str(cfg_sample),
                     "--out", str(tmp_path / "gen")]) == 0
    assert len(list((tmp_path / "gen").glob("*.bvh"))) == 2

    cfg_eval = _write_cfg(tmp_path / "eval.cfg", mini_corpus,
                          extra=f"data.gen_dir = {tmp_path / 'gen'}\n")
    assert cli.main(["eval", "--config", str(cfg_eval), "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "report.json").is_file()


def test_cli_exit_codes(tmp_path, mini_corpus, capsys):
    # 2: configuration problems
    assert cli.main(["train", "--config", "/nonexistent.cfg",
                     "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["train", "--out", str(tmp_path / "o")]) == 2  # data.dir unset
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.stepz = 1\n")
    assert cli.main(["gen-synthetic", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    for key in ("train.steps", "train.batch"):  # a run with no steps or an empty batch
        bad.write_text(f"data.dir = {mini_corpus}\n{key} = 0\n")
        assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be at least 1")

    # 3: data problems (empty corpus dir)
    empty = tmp_path / "empty"
    empty.mkdir()
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {empty}\ntrain.steps = 1\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()

    # 3: file-system problems (--out below a regular file; a missing feature file)
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg.write_text(f"data.dir = {mini_corpus}\ntrain.steps = 1\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(afile / "sub")]) == 3
    assert capsys.readouterr().err.startswith("I/O error")
    partial = tmp_path / "partial"
    shutil.copytree(mini_corpus, partial)
    (partial / "clip_0003.audio.feat").unlink()
    cfg.write_text(f"data.dir = {partial}\ntrain.steps = 1\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("I/O error")

    # 3: a generated clip with no frames
    gen = tmp_path / "gen0"
    gen.mkdir()
    head = (mini_corpus / "clip_0000.bvh").read_text().split("Frames:")[0]
    (gen / "clip_0000.bvh").write_text(head + "Frames: 0\nFrame Time: 0.033333333333\n")
    cfg.write_text(f"data.dir = {mini_corpus}\ndata.gen_dir = {gen}\n"
                   "eval.extractor_steps = 30\n")
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Frames: must be at least 1" in err and str(gen / "clip_0000.bvh") in err

    # 3: a reference corpus clip with no frames
    bad_ref = tmp_path / "bad_ref"
    shutil.copytree(mini_corpus, bad_ref)
    (bad_ref / "clip_0002.bvh").write_text(head + "Frames: 0\nFrame Time: 0.033333333333\n")
    cfg.write_text(f"data.dir = {bad_ref}\ntrain.steps = 1\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert str(bad_ref / "clip_0002.bvh") in capsys.readouterr().err

    # 2, before any work: values a run would crash on or silently misuse
    gen_cfg = (f"data.dir = {mini_corpus}\ndata.gen_dir = {mini_corpus}\n"
               "eval.extractor_steps = 30\n")
    ckpt_cfg = f"data.dir = {mini_corpus}\ndata.checkpoint = {tmp_path / 'none.ckpt'}\n"
    for command, base, line in [("eval", gen_cfg, "eval.sigma = 0"),
                                ("eval", gen_cfg, "eval.sigma = -0.1"),
                                ("eval", gen_cfg, "eval.n_diversity = 0"),
                                ("eval", gen_cfg, "eval.n_diversity = 1"),
                                ("sample", ckpt_cfg, "sample.max_conditions = -1")]:
        cfg.write_text(base + line + "\n")
        out = tmp_path / "never"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2, line
        assert capsys.readouterr().err.startswith(f"config error: {line.split()[0]} must be")
        assert not out.exists(), line


def _corpus_copy(tmp_path, mini_corpus, name):
    copy = tmp_path / name
    shutil.copytree(mini_corpus, copy)
    (copy / "fgd_extractor.ckpt").unlink(missing_ok=True)
    return copy


@pytest.mark.parametrize("file, edit", [
    ("clip_0001.labels", lambda b: b.replace(b"style=", b"stile=")),
    ("clip_0001.labels", lambda b: b.replace(b"emotion=0\n", b"")),
    ("clip_0001.labels", lambda b: b.replace(b"style=1", b"style=1.5")),
    ("dataset.meta", lambda b: b.replace(b"n_styles=4", b"n_styles=four")),
    ("dataset.meta", lambda b: b.replace(b"n_emotions=8", b"n_emotions=8.0")),
    ("clip_0001.audio.feat", lambda b: b.replace(b"\naudio\n", b"\n\xff\xfe\n", 1)),
], ids=["labels-no-style", "labels-no-emotion", "labels-float", "meta-word", "meta-float",
        "feat-not-utf8"])
def test_cli_rejects_corrupt_side_file(tmp_path, mini_corpus, capsys, file, edit):
    corpus = _corpus_copy(tmp_path, mini_corpus, "corrupt")
    path = corpus / file
    before = path.read_bytes()
    path.write_bytes(edit(before))
    assert path.read_bytes() != before
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ntrain.steps = 1\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(path) in err


def test_cli_train_takes_feature_widths_from_the_files(tmp_path, mini_corpus):
    corpus = _corpus_copy(tmp_path, mini_corpus, "stale_meta")
    meta = corpus / "dataset.meta"
    meta.write_text(meta.read_text().replace("d_audio=24", "d_audio=20"))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ntrain.steps = 1\nmodel.d = 32\nmodel.layers = 1\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    _, header, _ = read_checkpoint(tmp_path / "o" / "model.ckpt")
    assert header["data.d_audio"] == "24"


def test_cli_eval_names_a_reference_clip_without_onsets(tmp_path, mini_corpus, capsys):
    ref = _corpus_copy(tmp_path, mini_corpus, "ref")
    (ref / "clip_0000.onsets").unlink()
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {ref}\ndata.gen_dir = {mini_corpus}\n"
                   "eval.extractor_steps = 5\n")
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and "clip_0000" in err


def test_cli_sample_rejects_corrupt_checkpoint(tmp_path, mini_run, mini_corpus, capsys):
    ckpt = tmp_path / "model.ckpt"
    shutil.copy(mini_run["checkpoint"], ckpt)
    _corrupt_shape_line(ckpt)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {mini_corpus}\ndata.checkpoint = {ckpt}\n")
    assert cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {ckpt}")


def test_cli_sample_rejects_condition_width_mismatch(tmp_path, mini_run, mini_cfg, capsys):
    corpus = tmp_path / "narrow"
    narrow = dict(mini_cfg, **{"synthetic.d_audio": 12, "synthetic.n_clips": 2})
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(narrow), corpus)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ndata.checkpoint = {mini_run['checkpoint']}\n")
    assert cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 2
    assert "(39, 12, 8)" in capsys.readouterr().err


def test_cli_exit_code_numerical(tmp_path, mini_corpus, capsys):
    # 4: numerical failure (absurd learning rate blows up the loss)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {mini_corpus}\nmodel.d = 32\nmodel.layers = 1\n"
                   "train.steps = 30\ntrain.lr = 1e6\ndiffusion.steps = 5\n")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    capsys.readouterr()
    arrays, _, _ = read_checkpoint(tmp_path / "o" / "model.ckpt")
    assert all(np.isfinite(a).all() for a in arrays.values())


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--out", "x"])
