"""Experiment harness (train/sample/eval) and the CLI surface."""
import hashlib
import json
import multiprocessing
import os
import shutil
from dataclasses import fields

import numpy as np
import pytest

from gesturegen import cli, config, denoiser as dn, fusion as fu, harness, metrics as mt, synthetic
from gesturegen.errors import ConfigError, DataError, ParseError
from gesturegen.fileio import read_checkpoint, read_features, write_checkpoint, write_features


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


def _use_cores(monkeypatch, n):
    """Make `run_train` see n usable cores, so that it trains on min(batch, n) processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("patch", [{}, {"synthetic.frames": 300}, {"model.mode": "SA"},
                                   {"train.batch": 3}], ids=["60", "300", "SA", "batch-3"])
def test_run_train_writes_the_same_bytes_on_one_and_two_processes(tmp_path, mini_cfg, mini_corpus,
                                                                  monkeypatch, patch):
    cfg = config.load_config(overrides=mini_cfg | patch | {"train.steps": 3})
    corpus = mini_corpus
    if cfg["synthetic.frames"] != mini_cfg["synthetic.frames"]:
        corpus = tmp_path / "data"
        synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(cfg), corpus)
    outputs = []
    for cores in (1, 2):
        _use_cores(monkeypatch, cores)
        out = tmp_path / f"run-{cores}"
        harness.run_train(cfg, corpus, out)
        outputs.append([(out / f).read_bytes() for f in ("loss.csv", "model.ckpt")])
    assert outputs[0] == outputs[1]
    if patch == {"model.mode": "SA"}:  # some weights no clip reaches: never stepped
        arrays, _, _ = read_checkpoint(tmp_path / "run-2" / "model.ckpt")
        assert any(not a.any() for k, a in arrays.items() if k.startswith("opt.m."))


def test_run_train_reraises_a_worker_error_and_leaves_no_process(tmp_path, mini_cfg, mini_corpus,
                                                                  monkeypatch):
    clip_backward, master = dn._clip_backward, os.getpid()

    def failing(model, ex, schedule, draws, huber_delta, n, index):
        if index == 1:
            raise RuntimeError(f"clip {index} failed in process {os.getpid()}")
        return clip_backward(model, ex, schedule, draws, huber_delta, n, index)

    monkeypatch.setattr(dn, "_clip_backward", failing)
    _use_cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="clip 1 failed") as err:
        harness.run_train(mini_cfg, mini_corpus, tmp_path)
    assert str(err.value) != f"clip 1 failed in process {master}"  # it ran on the worker
    assert multiprocessing.active_children() == []


def test_run_train_raises_when_a_worker_dies_and_leaves_no_process(tmp_path, mini_cfg, mini_corpus,
                                                                   monkeypatch):
    clip_backward = dn._clip_backward

    def dying(model, ex, schedule, draws, huber_delta, n, index):
        if index == 1:
            os._exit(1)
        return clip_backward(model, ex, schedule, draws, huber_delta, n, index)

    monkeypatch.setattr(dn, "_clip_backward", dying)
    _use_cores(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="exited with code 1 before it returned clip 1"):
        harness.run_train(mini_cfg, mini_corpus, tmp_path)
    assert multiprocessing.active_children() == []


def _fail_in_workers(monkeypatch, how):
    """Make every AdamW share update outside this process raise, or end its process."""
    update, master = dn._adamw_update, os.getpid()

    def failing(*args):
        if os.getpid() != master:
            if how == "raise":
                raise RuntimeError(f"share failed in process {os.getpid()}")
            os._exit(1)
        return update(*args)

    monkeypatch.setattr(dn, "_adamw_update", failing)


_RUNS = {"train": lambda cfg, corpus, out: harness.run_train(cfg, corpus, out),
         "extractor": lambda cfg, corpus, out: harness.get_extractor(corpus, cfg)}


@pytest.mark.parametrize("run", sorted(_RUNS))
@pytest.mark.parametrize("how, error, match", [
    ("raise", RuntimeError, "share failed in process"),
    ("exit", ChildProcessError, "exited with code 1 before it returned its share of AdamW step 1")],
    ids=["raise", "exit"])
def test_a_worker_failing_in_its_adamw_share_is_raised_and_leaves_no_process(
        tmp_path, mini_cfg, monkeypatch, run, how, error, match):
    corpus = tmp_path / "data"
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(mini_cfg), corpus)
    _fail_in_workers(monkeypatch, how)
    _use_cores(monkeypatch, 2)
    with pytest.raises(error, match=match):
        _RUNS[run](mini_cfg, corpus, tmp_path / "out")
    assert multiprocessing.active_children() == []


def _count_forks(monkeypatch):
    """Count the `multiprocessing` contexts asked for: `ClipPool` asks once per fork set."""
    calls, get_context = [], multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda *a, **k: calls.append(a) or get_context(*a, **k))
    return calls


def test_cold_eval_writes_the_same_bytes_on_one_and_two_processes(tmp_path, mini_cfg,
                                                                  monkeypatch):
    """The mini extractor has about 164k weights, more than 4 update blocks, so at 2
    usable cores its AdamW steps run on 2 processes."""
    corpus = tmp_path / "data"
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(mini_cfg), corpus)
    outputs = []
    for cores in (1, 2):
        ref = tmp_path / f"ref-{cores}"
        shutil.copytree(corpus, ref)
        _use_cores(monkeypatch, cores)
        forks = _count_forks(monkeypatch)
        harness.run_eval(ref, ref, mini_cfg, out_dir=tmp_path / f"eval-{cores}")
        assert len(forks) == (cores > 1)
        outputs.append([(ref / "fgd_extractor.ckpt").read_bytes(),
                        (tmp_path / f"eval-{cores}" / "report.json").read_bytes()])
    assert outputs[0] == outputs[1]
    forks = _count_forks(monkeypatch)
    harness.get_extractor(ref, mini_cfg)  # a cache hit
    assert forks == [] and multiprocessing.active_children() == []


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


def test_load_model_rejects_header_without_widths(tmp_path, mini_run, mini_corpus, capsys):
    """A header without non-negative integer corpus widths, or with a key that breaks a
    config rule, is a DataError that names the checkpoint: exit 3, not a traceback."""
    arrays, header, step = read_checkpoint(mini_run["checkpoint"])
    ckpt = tmp_path / "m.ckpt"
    for key, value, message in [("data.d_audio", None, "header needs the corpus widths"),
                                ("data.d_audio", "x", "header needs the corpus widths"),
                                ("data.d_audio", "-3", "header needs the corpus widths"),
                                ("model.mode", "bogus", "model.mode must be one of")]:
        edited = {k: v for k, v in header.items() if k != key}
        if value is not None:
            edited[key] = value
        write_checkpoint(ckpt, arrays, edited, step)
        with pytest.raises(DataError) as e:
            harness.load_model(ckpt)
        assert str(e.value).startswith(f"{ckpt}: {message}"), (key, value)

    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {mini_corpus}\ndata.checkpoint = {ckpt}\n")
    out = tmp_path / "gen"
    assert cli.main(["sample", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {ckpt}: model.mode must be one of")
    assert not out.exists()


def test_spec_fields_are_the_config_keys():
    """Every spec field is set by exactly one config key or corpus width, in key order,
    except `ModelSpec`'s two conv widths, which have no key."""
    def suffixes(section):
        return [k.split(".")[1] for k in config.DEFAULTS if k.startswith(section + ".")]

    assert [f.name for f in fields(synthetic.SyntheticSpec)] == suffixes("synthetic") + ["seed"]
    no_key = ["mamba_conv_width", "block_conv_width"]
    assert ([f.name for f in fields(fu.ModelSpec)]
            == suffixes("model") + [k.split(".")[1] for k in harness.WIDTH_KEYS] + no_key)

    # each default is the config default, and the widths are those of the default corpus
    synth = {f.name: f.default for f in fields(synthetic.SyntheticSpec)}
    model = {f.name: f.default for f in fields(fu.ModelSpec)}
    defaults = config.DEFAULTS
    assert synth == {s: defaults[f"synthetic.{s}"] for s in suffixes("synthetic")} | {
        "seed": defaults["seed"]}
    assert all(model[s] == defaults[f"model.{s}"] for s in suffixes("model"))
    assert ([model[k.split(".")[1]] for k in harness.WIDTH_KEYS]
            == [3 + 9 * defaults["synthetic.joints"], defaults["synthetic.d_audio"],
                defaults["synthetic.d_text"], defaults["synthetic.n_styles"]])


def test_files_that_still_name_the_emotion_count_load_and_sample_the_same_bytes(
        tmp_path, mini_run, mini_corpus):
    """A `dataset.meta` with `n_emotions=8` and `latent_dim=8`, and a checkpoint header
    with `data.n_emotions=8`, as written while those were settable, still work."""
    old_corpus = _corpus_copy(tmp_path, mini_corpus, "old_corpus")
    meta = old_corpus / "dataset.meta"
    text = meta.read_text()
    assert "n_emotions" not in text and "latent_dim" not in text
    meta.write_text(text.replace("d_audio=", "n_emotions=8\nd_audio=")
                    .replace("seed=", "latent_dim=8\nseed="))
    arrays, header, step = read_checkpoint(mini_run["checkpoint"])
    assert "data.n_emotions" not in header
    old_ckpt = tmp_path / "old.ckpt"
    write_checkpoint(old_ckpt, arrays, header | {"data.n_emotions": 8}, step)

    old, new = synthetic.load_dataset(old_corpus), synthetic.load_dataset(mini_corpus)
    assert [r.emotion_id for r in old.records] == [r.emotion_id for r in new.records]
    written = [harness.run_sample(ckpt, corpus, n=1, seed=4, out_dir=tmp_path / name,
                                  max_conditions=2)
               for ckpt, corpus, name in [(old_ckpt, old_corpus, "old"),
                                          (mini_run["checkpoint"], mini_corpus, "new")]]
    assert [p.name for p in written[0]] == [p.name for p in written[1]]
    assert [p.read_bytes() for p in written[0]] == [p.read_bytes() for p in written[1]]


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
        assert clip.layout.joint_count == ds.skeleton.layout().joint_count


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


@pytest.mark.parametrize("edit", [lambda a: a.pop("dec_b2"),
                                  lambda a: a.update(junk=np.zeros(2)),
                                  lambda a: a.update(enc_b1=np.zeros(3))],
                         ids=["missing-array", "extra-array", "other-shape"])
def test_extractor_cache_with_other_arrays_is_retrained(tmp_path, mini_cfg, edit):
    ref, gen = tmp_path / "ref", tmp_path / "gen"
    for seed, corpus in ((3, ref), (4, gen)):
        spec = synthetic.SyntheticSpec(n_clips=3, frames=20, joints=2, seed=seed)
        synthetic.gen_synthetic_dataset(spec, corpus)
    cfg = dict(mini_cfg, **{"eval.extractor_steps": 5, "eval.extractor_hidden": 8})
    cold = harness.run_eval(gen, ref, cfg)
    cache = ref / "fgd_extractor.ckpt"
    arrays, header, step = read_checkpoint(cache)
    shapes = {k: v.shape for k, v in arrays.items()}
    edit(arrays)
    write_checkpoint(cache, arrays, header, step)
    assert harness.run_eval(gen, ref, cfg) == cold
    assert {k: v.shape for k, v in read_checkpoint(cache)[0].items()} == shapes


@pytest.mark.parametrize("patch", [{"frames": 24}, {"joints": 3}], ids=["frames", "joints"])
def test_run_eval_rejects_a_generated_corpus_of_another_shape(tmp_path, mini_cfg, patch):
    """Every scored clip has the reference's (frames, 3 + 9J) shape, so every clip has an SRGR."""
    ref, gen = tmp_path / "ref", tmp_path / "gen"
    base = dict(n_clips=3, frames=20, joints=2)
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec(**base, seed=3), ref)
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec(**(base | patch), seed=4), gen)
    cfg = dict(mini_cfg, **{"eval.extractor_steps": 3, "eval.extractor_hidden": 8})
    with pytest.raises(DataError, match="does not match extractor"):
        harness.run_eval(gen, ref, cfg, out_dir=tmp_path / "rep")
    assert not (tmp_path / "rep").exists()


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


def test_extractor_cache_with_a_nan_is_retrained(tmp_path, mini_cfg):
    corpus = tmp_path / "data"
    synthetic.gen_synthetic_dataset(
        synthetic.SyntheticSpec(n_clips=3, frames=20, joints=2, seed=3), corpus)
    cfg = dict(mini_cfg, **{"eval.extractor_steps": 3, "eval.extractor_hidden": 8})
    trained, _ = harness.get_extractor(corpus, cfg)
    cache = corpus / "fgd_extractor.ckpt"
    arrays, header, step = read_checkpoint(cache)
    write_checkpoint(cache, arrays | {"dec_b2": np.full_like(arrays["dec_b2"], np.nan)},
                     header, step)
    with pytest.raises(ParseError, match="'dec_b2'"):
        read_checkpoint(cache)
    ext, _ = harness.get_extractor(corpus, cfg)
    assert all(np.array_equal(ext.named()[k].value, p.value) for k, p in trained.named().items())
    assert all(np.isfinite(v).all() for v in read_checkpoint(cache)[0].values())


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


def test_ablation_sends_each_variant_through_the_config_rules(tmp_path, mini_cfg, monkeypatch):
    """With mamba and conv off, `no-attn` turns off the last block kind: its row fails
    with the rule's ConfigError, and every other variant trains on `cfg | patch`."""
    trained = []
    monkeypatch.setattr(harness, "run_train", lambda cfg, data, out: trained.append(cfg))
    monkeypatch.setattr(harness, "run_sample", lambda *args, **kwargs: [])
    monkeypatch.setattr(harness, "run_eval",
                        lambda *args, **kwargs: dict.fromkeys(harness.METRIC_COLUMNS, 0.0))
    cfg = mini_cfg | {"model.use_mamba": False, "model.use_conv": False}
    rows = harness.run_ablation(cfg, tmp_path / "data", tmp_path / "a")
    assert {r["name"]: r["error"] for r in rows if "error" in r} == {
        "no-attn": "ConfigError: model.use_attention must be true when model.use_mamba "
                   "and model.use_conv are false"}
    assert trained == [cfg | patch for name, patch in harness.ablation_variants()
                       if name != "no-attn"]


def test_ablation_rejects_a_config_whose_every_eval_must_fail(tmp_path, mini_cfg, mini_corpus,
                                                             monkeypatch, capsys):
    """An eval needs 2 generated clips; 1 sample of 1 condition can never score, so
    nothing may train. 2 samples of 1 condition can."""
    def run_train(cfg, dataset_dir, out_dir):
        raise DataError("trained")

    monkeypatch.setattr(harness, "run_train", run_train)
    cfg = mini_cfg | {"sample.n": 1, "sample.max_conditions": 1}
    with pytest.raises(ConfigError, match=r"sample\.n = 1 and sample\.max_conditions = 1 give 1 "):
        harness.run_ablation(cfg, mini_corpus, tmp_path / "a")
    assert not (tmp_path / "a").exists()

    conf = tmp_path / "one.cfg"
    conf.write_text(f"data.dir = {mini_corpus}\nsample.n = 1\nsample.max_conditions = 1\n")
    assert cli.main(["ablate", "--config", str(conf), "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert "sample.n" in err and "sample.max_conditions" in err
    assert not (tmp_path / "b").exists()

    rows = harness.run_ablation(mini_cfg | {"sample.n": 2, "sample.max_conditions": 1},
                                mini_corpus, tmp_path / "c")
    assert all(r["error"] == "DataError: trained" for r in rows)


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
    train_cfg = f"data.dir = {mini_corpus}\ntrain.steps = 1\nmodel.layers = 1\n"
    for command, base, line in [("eval", gen_cfg, "eval.sigma = 0"),
                                ("eval", gen_cfg, "eval.sigma = -0.1"),
                                ("eval", gen_cfg, "eval.threshold = 0"),
                                ("train", train_cfg, "train.huber_delta = 0"),
                                ("train", train_cfg, "train.huber_delta = -1"),
                                ("eval", gen_cfg, "eval.n_diversity = 0"),
                                ("eval", gen_cfg, "eval.n_diversity = 1"),
                                ("sample", ckpt_cfg, "sample.max_conditions = -1"),
                                ("sample", ckpt_cfg, "sample.n = 0"),
                                ("sample", ckpt_cfg, "sample.n = -2"),
                                ("eval", gen_cfg, "eval.extractor_steps = 0"),
                                ("eval", gen_cfg, "eval.extractor_steps = -3"),
                                ("eval", gen_cfg, "eval.extractor_hidden = 0"),
                                ("gen-synthetic", "", "synthetic.n_styles = 0"),
                                ("gen-synthetic", "", "synthetic.n_clips = 0"),
                                ("gen-synthetic", "", "synthetic.d_audio = 0"),
                                ("gen-synthetic", "", "synthetic.d_text = 0"),
                                ("gen-synthetic", "", "synthetic.joints = 0"),
                                ("gen-synthetic", "", "synthetic.frames = 2"),
                                ("gen-synthetic", "", "synthetic.fps = 0"),
                                ("train", train_cfg, "model.d = 0"),
                                ("train", train_cfg, "model.n_state = 0"),
                                ("train", train_cfg, "model.expand = 0"),
                                ("train", train_cfg, "model.mode = bogus"),
                                ("train", train_cfg, "model.mask_prob = 1.5"),
                                ("train", train_cfg, "model.window = 0"),
                                ("train", train_cfg, "model.layers = 0"),
                                ("train", train_cfg, "model.use_attention = false\n"
                                 "model.use_mamba = false\nmodel.use_conv = false"),
                                ("train", train_cfg, "diffusion.steps = 0"),
                                ("train", train_cfg, "diffusion.beta_start = 0"),
                                ("train", train_cfg, "diffusion.beta_start = 0.3\n"
                                 "diffusion.beta_end = 0.2"),
                                ("train", train_cfg, "diffusion.beta_end = 1"),
                                ("gen-synthetic", "", "seed = -1"),
                                ("train", train_cfg, "seed = -1"),
                                ("sample", ckpt_cfg, "seed = -1"),
                                ("eval", gen_cfg, "seed = -1")]:
        cfg.write_text(base + line + "\n")
        out = tmp_path / "never"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2, line
        assert capsys.readouterr().err.startswith(f"config error: {line.split()[0]} must be")
        assert not out.exists(), line


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, key", [("train", "train.lr"), ("train", "train.weight_decay"),
                                          ("eval", "eval.sigma"), ("train", "train.huber_delta"),
                                          ("gen-synthetic", "synthetic.fps")])
def test_cli_rejects_a_non_finite_config_value(tmp_path, mini_corpus, capsys, command, key, value):
    """NaN passes every range check, so each float key is checked to be finite, before any work."""
    base = {"train": f"data.dir = {mini_corpus}\ntrain.steps = 1\nmodel.layers = 1\n",
            "eval": (f"data.dir = {mini_corpus}\ndata.gen_dir = {mini_corpus}\n"
                     "eval.extractor_steps = 30\n"),
            "gen-synthetic": ""}[command]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{base}{key} = {value}\n")
    out = tmp_path / "never"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must be a finite number")
    assert not out.exists()


TO_60_FPS = (b"Frame Time: 0.033333333333", b"Frame Time: 0.016666666667")


def _corpus_copy(tmp_path, mini_corpus, name):
    copy = tmp_path / name
    shutil.copytree(mini_corpus, copy)
    (copy / "fgd_extractor.ckpt").unlink(missing_ok=True)
    return copy


@pytest.mark.parametrize("command, file, edit", [
    ("train", "clip_0001.labels", lambda b: b.replace(b"style=", b"stile=")),
    ("train", "clip_0001.labels", lambda b: b.replace(b"emotion=0\n", b"")),
    ("train", "clip_0001.labels", lambda b: b.replace(b"style=1", b"style=1.5")),
    ("train", "dataset.meta", lambda b: b.replace(b"n_styles=4", b"n_styles=four")),
    ("train", "dataset.meta", lambda b: b.replace(b"n_styles=4", b"n_styles=4.0")),
    ("train", "clip_0001.audio.feat", lambda b: b.replace(b"\naudio\n", b"\n\xff\xfe\n", 1)),
    # two negative dimensions whose product fits the payload of 16 bytes
    ("train", "clip_0001.audio.feat", lambda b: b"MGFEAT1\n-2 -2\naudio\n" + bytes(16)),
    ("sample", "clip_0001.audio.feat", lambda b: b[:-4] + np.float32(np.nan).tobytes()),
    ("eval", "clip_0000.onsets", lambda b: b + b"nan\n"),
    # a corpus keeps one skeleton: a renamed joint would be paired by index with another
    ("train", "clip_0001.bvh", lambda b: b.replace(b"JOINT joint1", b"JOINT elbow")),
    # and one frame rate: a 60 fps clip among 30 fps ones was trained, and sampled at 30 fps
    ("train", "clip_0001.bvh", lambda b: b.replace(*TO_60_FPS)),
    ("sample", "clip_0001.bvh", lambda b: b.replace(*TO_60_FPS)),
], ids=["labels-no-style", "labels-no-emotion", "labels-float", "meta-word", "meta-float",
        "feat-not-utf8", "feat-negative-shape", "feat-nan", "onsets-nan", "bvh-renamed-joint",
        "bvh-frame-rate-train", "bvh-frame-rate-sample"])
def test_cli_rejects_corrupt_side_file(tmp_path, mini_corpus, mini_run, capsys,
                                       command, file, edit):
    corpus = _corpus_copy(tmp_path, mini_corpus, "corrupt")
    path = corpus / file
    before = path.read_bytes()
    path.write_bytes(edit(before))
    assert path.read_bytes() != before
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ndata.checkpoint = {mini_run['checkpoint']}\n"
                   f"data.gen_dir = {mini_corpus}\ntrain.steps = 1\n"
                   "eval.extractor_steps = 5\n")
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(path) in err
    assert not (out / "loss.csv" if command == "train" else out).exists()


@pytest.mark.parametrize("file", ["clip_0001.labels", "clip_0001.onsets", "clip_0001.bvh",
                                  "dataset.meta", "c.cfg"])
def test_cli_names_a_text_file_that_is_not_utf8(tmp_path, mini_corpus, capsys, file):
    corpus = _corpus_copy(tmp_path, mini_corpus, "not_utf8")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ntrain.steps = 1\n")
    path = cfg if file == "c.cfg" else corpus / file
    path.write_bytes(path.read_bytes() + b"\xff")
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path}: not UTF-8")


@pytest.mark.parametrize("command, label, bad", [("train", b"style=1", b"style=9"),
                                                  ("train", b"emotion=0", b"emotion=-1"),
                                                  ("sample", b"emotion=0", b"emotion=8")])
def test_cli_names_the_labels_file_of_an_out_of_range_id(tmp_path, mini_corpus, mini_run,
                                                         capsys, command, label, bad):
    corpus = _corpus_copy(tmp_path, mini_corpus, "bad_label")
    path = corpus / "clip_0001.labels"
    path.write_bytes(path.read_bytes().replace(label, bad))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ndata.checkpoint = {mini_run['checkpoint']}\n"
                   "train.steps = 1\n")
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path}: ")
    assert not (out / "loss.csv").exists() and not list(out.glob("*.bvh"))


@pytest.mark.parametrize("prefix, below, word, value", [
    ("Frame Time:", 0, 2, "nan"),
    ("Frame Time:", 0, 2, "inf"),
    ("OFFSET", 0, 2, "-inf"),
    ("Frame Time:", 5, 4, "nan"),  # a channel value of the fifth frame
], ids=["frame-time-nan", "frame-time-inf", "offset-inf", "channel-nan"])
def test_cli_names_the_bvh_line_of_a_non_finite_number(tmp_path, mini_corpus, capsys,
                                                        prefix, below, word, value):
    gen = _corpus_copy(tmp_path, mini_corpus, "gen")
    path = gen / "clip_0001.bvh"
    lines = path.read_text().split("\n")
    i = below + next(i for i, line in enumerate(lines) if line.strip().startswith(prefix))
    words = lines[i].split()
    words[word] = value
    lines[i] = " ".join(words)
    path.write_text("\n".join(lines))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {mini_corpus}\ndata.gen_dir = {gen}\n"
                   "eval.extractor_steps = 30\n")
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path}: line {i + 1}: ")


def _cut_features(path, rows=None, cols=None):
    feats, modality = read_features(path)
    write_features(path, feats[:rows, :cols], modality)


@pytest.mark.parametrize("files, rows, cols", [
    (["clip_0001.audio.feat", "clip_0001.text.feat"], 50, None),
    (["clip_0001.text.feat"], 50, None),
    (["clip_0003.audio.feat"], None, 20),
], ids=["audio-and-text-rows", "text-rows", "audio-columns"])
def test_cli_names_a_feature_file_that_disagrees(tmp_path, mini_corpus, capsys, files, rows, cols):
    """Each clip's features have its BVH's frame count and the first clip's widths."""
    corpus = _corpus_copy(tmp_path, mini_corpus, "cut")
    for name in files:
        _cut_features(corpus / name, rows, cols)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ntrain.steps = 1\n")
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {corpus / files[0]}: ")
    assert not (out / "loss.csv").exists()


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


def test_cli_eval_rejects_a_generated_clip_with_another_skeleton(tmp_path, mini_corpus, capsys):
    """SRGR and the extractor pair joints by index, so a generated clip must have the
    reference's joint names and parents."""
    ref = _corpus_copy(tmp_path, mini_corpus, "ref")
    gen = _corpus_copy(tmp_path, mini_corpus, "gen")
    path = gen / "clip_0001.bvh"
    path.write_text(path.read_text().replace("JOINT joint2", "JOINT elbow"))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {ref}\ndata.gen_dir = {gen}\neval.extractor_steps = 5\n")
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(
        f"data error: {path}: joint names or parents differ from those of the reference corpus")
    assert not (tmp_path / "o" / "report.json").exists()


def test_cli_sample_rejects_corrupt_checkpoint(tmp_path, mini_run, mini_corpus, capsys):
    ckpt = tmp_path / "model.ckpt"
    shutil.copy(mini_run["checkpoint"], ckpt)
    _corrupt_shape_line(ckpt)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {mini_corpus}\ndata.checkpoint = {ckpt}\n")
    assert cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {ckpt}")


def test_cli_sample_names_a_checkpoint_array_with_a_nan(tmp_path, mini_run, mini_corpus,
                                                        capsys):
    """Before, the NaN reached the rotation fit and ended in an SVD traceback."""
    arrays, header, step = read_checkpoint(mini_run["checkpoint"])
    beta = arrays["denoiser.block0.ln1_beta"].copy()
    beta[0] = np.nan
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(ckpt, arrays | {"denoiser.block0.ln1_beta": beta}, header, step)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {mini_corpus}\ndata.checkpoint = {ckpt}\n")
    out = tmp_path / "gen"
    assert cli.main(["sample", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        f"data error: {ckpt}: non-finite value in array 'denoiser.block0.ln1_beta'")
    assert not list(out.glob("*.bvh"))


def test_cli_sample_rejects_a_checkpoint_array_of_another_shape(tmp_path, mini_run,
                                                                mini_corpus, capsys):
    arrays, header, step = read_checkpoint(mini_run["checkpoint"])
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(ckpt, arrays | {"fusion.text_b": np.zeros(1)}, header, step)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {mini_corpus}\ndata.checkpoint = {ckpt}\n")
    out = tmp_path / "gen"
    assert cli.main(["sample", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {ckpt}: ")
    assert "'fusion.text_b'" in err and "(1,)" in err and "(32,)" in err
    assert not list(out.glob("*.bvh"))


def _renamed_joint_corpus(tmp_path, mini_corpus):
    """A copy of the mini corpus with `joint2` renamed to `elbow` in every clip: the same
    joint count and widths, another skeleton."""
    corpus = _corpus_copy(tmp_path, mini_corpus, "renamed")
    for path in sorted(corpus.glob("*.bvh")):
        path.write_text(path.read_text().replace("JOINT joint2", "JOINT elbow"))
    return corpus


def test_checkpoint_records_the_training_skeleton(mini_run):
    _, header, _ = read_checkpoint(mini_run["checkpoint"])
    assert header["data.skeleton"] == json.dumps(
        [["root", None], ["joint1", 0], ["joint2", 1], ["joint3", 2]])


def test_cli_sample_rejects_conditions_with_another_skeleton(tmp_path, mini_run, mini_corpus,
                                                             capsys):
    """Before, the samples were written under the conditions' joint names, with exit 0.
    The check runs before `--out` is made, so a rejected run writes nothing."""
    corpus = _renamed_joint_corpus(tmp_path, mini_corpus)
    ckpt = mini_run["checkpoint"]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ndata.checkpoint = {ckpt}\n")
    out = tmp_path / "gen"
    assert cli.main(["sample", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        f"data error: {corpus / 'clip_0000.bvh'}: joint names or parents differ from those "
        f"of the checkpoint {ckpt}")
    assert not out.exists()


def test_a_checkpoint_without_the_skeleton_samples_the_same_bytes_and_skips_the_check(
        tmp_path, mini_run, mini_corpus):
    """A header written before `data.skeleton` existed still loads, samples the same
    bytes, and cannot tell a renamed joint."""
    arrays, header, step = read_checkpoint(mini_run["checkpoint"])
    old_ckpt = tmp_path / "old.ckpt"
    write_checkpoint(old_ckpt, arrays, {k: v for k, v in header.items() if k != "data.skeleton"},
                     step)
    written = [harness.run_sample(ckpt, mini_corpus, n=1, seed=4, out_dir=tmp_path / name,
                                  max_conditions=2)
               for ckpt, name in [(old_ckpt, "old"), (mini_run["checkpoint"], "new")]]
    assert [p.name for p in written[0]] == [p.name for p in written[1]]
    assert [p.read_bytes() for p in written[0]] == [p.read_bytes() for p in written[1]]
    renamed = harness.run_sample(old_ckpt, _renamed_joint_corpus(tmp_path, mini_corpus), n=1,
                                 seed=4, out_dir=tmp_path / "renamed-out", max_conditions=1)
    assert "JOINT elbow" in renamed[0].read_text()


def test_a_checkpoint_whose_blocks_skip_their_input_is_rejected(tmp_path, mini_run,
                                                                mini_corpus, capsys):
    """Headers written while `model.residual` was settable hold it. `True` loads as
    before; `False` would otherwise be dropped as an unknown key and its weights built
    into a residual model with exit 0, so it exits 3 and names the checkpoint."""
    arrays, header, step = read_checkpoint(mini_run["checkpoint"])
    assert "model.residual" not in header
    ckpt = tmp_path / "old.ckpt"
    write_checkpoint(ckpt, arrays, header | {"model.residual": True}, step)
    old, new = (harness.load_model(c)[0].named() for c in (ckpt, mini_run["checkpoint"]))
    assert all(old[k].value.tobytes() == p.value.tobytes() for k, p in new.items())

    write_checkpoint(ckpt, arrays, header | {"model.residual": False}, step)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {mini_corpus}\ndata.checkpoint = {ckpt}\n")
    out = tmp_path / "gen"
    assert cli.main(["sample", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {ckpt}: model.residual=False")
    assert not out.exists()


def test_cli_sample_rejects_condition_width_mismatch(tmp_path, mini_run, mini_cfg, capsys):
    corpus = tmp_path / "narrow"
    narrow = dict(mini_cfg, **{"synthetic.d_audio": 12, "synthetic.n_clips": 2})
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(narrow), corpus)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ndata.checkpoint = {mini_run['checkpoint']}\n")
    assert cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 2
    assert "(39, 12, 8)" in capsys.readouterr().err


def test_cli_sample_rejects_conditions_with_more_styles_than_the_checkpoint(
        tmp_path, mini_run, mini_cfg, capsys):
    """The checkpoint has 4 styles; clip_0004 of a 6-style corpus has style 4. The
    check runs before any sample is drawn, so no BVH is written."""
    corpus = tmp_path / "styles"
    wide = dict(mini_cfg, **{"synthetic.n_styles": 6})
    synthetic.gen_synthetic_dataset(synthetic.SyntheticSpec.from_config(wide), corpus)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ndata.checkpoint = {mini_run['checkpoint']}\n"
                   "sample.max_conditions = 0\n")
    out = tmp_path / "gen"
    assert cli.main(["sample", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {corpus / 'clip_0004.labels'}: style id 4 outside the checkpoint's 4")
    assert not out.exists()


def test_cli_train_names_a_negative_style_id_without_dataset_meta(tmp_path, mini_corpus,
                                                                 capsys):
    """With no `dataset.meta` the style count comes from the labels, but an id is still
    at least 0; numpy would wrap a negative index without an error."""
    corpus = _corpus_copy(tmp_path, mini_corpus, "no_meta")
    (corpus / "dataset.meta").unlink()
    path = corpus / "clip_0001.labels"
    path.write_text(path.read_text().replace("style=1", "style=-1"))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.dir = {corpus}\ntrain.steps = 1\n")
    out = tmp_path / "o"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"data error: {path}: style id -1")
    assert not (out / "loss.csv").exists()


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
