"""Experiment drivers: training runs with loss logs and checkpoints,
sampling back to BVH, corpus evaluation, and the ablation matrix."""
from __future__ import annotations

import csv
import hashlib
import traceback
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import denoiser as dn
from . import fusion as fu
from . import metrics as mt
from .bvh import (bvh_paths, clip_to_euler, clip_to_features, features_to_clip, read_bvh_dir,
                  write_bvh)
from .config import DEFAULTS, load_config
from .diffusion import build_schedule, sample_loop
from .errors import ConfigError, DataError, GestureGenError, NumericalError, ParseError
from .fileio import read_checkpoint, write_checkpoint, write_report
from .synthetic import Dataset, check_joints, load_dataset

LOSS_HEADER = ["step", "l_total", "l_g", "l_s", "l_e"]
WIDTH_KEYS = ("data.gesture_dim", "data.d_audio", "data.d_text", "data.n_styles")


def _corpus_widths(dataset: Dataset):
    """(gesture, audio, text, styles) widths of a corpus, as in `WIDTH_KEYS`;
    the feature widths are those of the clips' arrays, whatever the meta says."""
    first = dataset.records[0]
    return (dataset.gesture_dim, first.audio.shape[1], first.text.shape[1],
            dataset.meta.get("n_styles", max(r.style_id for r in dataset.records) + 1))


def _model_spec(cfg: dict, widths) -> fu.ModelSpec:
    """`cfg`'s `model.*` keys plus the corpus widths (in `WIDTH_KEYS` order), by suffix."""
    keys = {k: cfg[k] for k in cfg if k.startswith("model.")} | dict(zip(WIDTH_KEYS, map(int, widths)))
    return fu.ModelSpec(**{k.split(".")[1]: v for k, v in keys.items()})


def _checkpoint_config(cfg: dict, dataset: Dataset) -> dict:
    keep = [k for k in cfg if k.split(".")[0] in ("model", "diffusion", "train", "seed")]
    return {k: cfg[k] for k in keep} | dict(zip(WIDTH_KEYS, _corpus_widths(dataset)))


def run_train(cfg: dict, dataset_dir, out_dir) -> dict:
    """Train for cfg['train.steps'] steps; write checkpoint + loss CSV.

    Returns {'loss_rows': [...], 'checkpoint': path, 'loss_log': path}.
    On a non-finite loss the last good checkpoint is kept and the error
    re-raised.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = load_dataset(dataset_dir)
    model = dn.build_model(_model_spec(cfg, _corpus_widths(dataset)), cfg["seed"])
    schedule = build_schedule(cfg["diffusion.steps"], cfg["diffusion.beta_start"],
                              cfg["diffusion.beta_end"])
    opt = dn.AdamW(model.named(), lr=cfg["train.lr"],
                   weight_decay=cfg["train.weight_decay"])
    rng = np.random.default_rng(cfg["seed"])
    ckpt_path = out / "model.ckpt"
    log_path = out / "loss.csv"

    def save(step):
        arrays = {k: p.value for k, p in model.named().items()}
        arrays.update(opt.state_arrays())
        write_checkpoint(ckpt_path, arrays, _checkpoint_config(cfg, dataset), step)

    rows = []
    with open(log_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(LOSS_HEADER)
        for step in range(cfg["train.steps"]):
            batch_idx = rng.choice(len(dataset.records), size=min(cfg["train.batch"], len(dataset.records)),
                                   replace=False)
            batch = [dataset.records[i] for i in batch_idx]
            try:
                losses = dn.training_step(model, opt, batch, schedule, rng,
                                          huber_delta=cfg["train.huber_delta"])
            except NumericalError:
                if rows:
                    save(step)
                raise
            writer.writerow([step] + [f"{losses[k]:.10f}" for k in LOSS_HEADER[1:]])
            rows.append(losses)
    save(cfg["train.steps"])
    return {"loss_rows": rows, "checkpoint": ckpt_path, "loss_log": log_path}


def load_model(checkpoint_path):
    """Rebuild a model from an MGCKPT2 file. The header is the whole spec: its
    config keys over the defaults, plus the corpus widths under `WIDTH_KEYS`."""
    arrays, header, step = read_checkpoint(checkpoint_path)
    try:
        cfg = load_config(overrides={k: v for k, v in header.items() if k in DEFAULTS})
    except ConfigError as e:
        raise DataError(f"{checkpoint_path}: {e}") from None
    widths = [header.get(k, "") for k in WIDTH_KEYS]
    if not all(w.isdecimal() for w in widths):
        raise DataError(f"{checkpoint_path}: header needs the corpus widths {WIDTH_KEYS} as "
                        f"non-negative integers, got {widths}")
    model = dn.build_model(_model_spec(cfg, widths), cfg["seed"])
    params = model.named()
    missing = set(params) - set(arrays)
    if missing:
        raise DataError(f"checkpoint is missing parameters: {sorted(missing)[:5]} ...")
    for name, p in params.items():
        if arrays[name].shape != p.value.shape:
            raise DataError(f"{checkpoint_path}: array {name!r} has shape {arrays[name].shape}, "
                            f"the model needs {p.value.shape}")
        p.value = np.array(arrays[name], dtype=np.float64)
    opt_state = {k: v for k, v in arrays.items() if k.startswith("opt.")}
    return model, cfg, step, opt_state


def run_sample(checkpoint_path, conditions_dir, n: int, seed: int, out_dir,
               max_conditions: int | None = None) -> list:
    """Draw n gesture samples per condition clip and emit them as BVH."""
    model, cfg, _, _ = load_model(checkpoint_path)
    dataset = load_dataset(conditions_dir)
    spec = model.fusion.spec
    widths = _corpus_widths(dataset)[:3]
    expected = (spec.gesture_dim, spec.d_audio, spec.d_text)
    if widths != expected:
        raise ConfigError(f"conditions (gesture, audio, text) widths {widths} do not match "
                          f"checkpoint {expected}")
    records = dataset.records[:max_conditions] if max_conditions else dataset.records
    for rec in records:
        if rec.style_id >= spec.n_styles:
            raise ConfigError(f"{Path(conditions_dir) / rec.name}.labels: style id {rec.style_id} "
                              f"outside the checkpoint's {spec.n_styles} styles")
    schedule = build_schedule(cfg["diffusion.steps"], cfg["diffusion.beta_start"],
                              cfg["diffusion.beta_end"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for ci, rec in enumerate(records):
        def denoise(x_t, t, rec=rec):
            return dn.predict_x0(model, rec.audio, rec.text, rec.style_id,
                                 rec.emotion_id, x_t, t)

        for k in range(n):
            feats = sample_loop(denoise, rec.x0.shape, schedule,
                                seed=seed * 1_000_003 + ci * 1_000 + k)
            clip = features_to_clip(feats, dataset.fps, dataset.layout)
            euler = clip_to_euler(clip)
            path = out / f"{rec.name}.sample{k:02d}.bvh"
            path.write_text(write_bvh(dataset.skeleton, euler))
            written.append(path)
    return written


def get_extractor(ref_dataset_dir, cfg: dict):
    """Train (or load a cached) reconstruction feature extractor on the
    reference corpus. The cache `<ref>/fgd_extractor.ckpt` is reused only if it reads,
    its seed, steps and hidden width match `cfg`, its `corpus` digest (sha256 of the
    clips' `x0` bytes in record order) matches, and its arrays are the extractor's
    weights by name and shape; otherwise it is retrained and overwritten."""
    ref = load_dataset(ref_dataset_dir)
    cache = Path(ref_dataset_dir) / "fgd_extractor.ckpt"
    key = {"seed": cfg["seed"], "steps": cfg["eval.extractor_steps"],
           "hidden": cfg["eval.extractor_hidden"]}
    corpus = hashlib.sha256()
    for r in ref.records:
        corpus.update(r.x0.tobytes())
    header = key | {"corpus": corpus.hexdigest()}
    frames, dim = ref.records[0].x0.shape
    try:
        arrays, meta, _ = read_checkpoint(cache)
    except (OSError, ParseError):  # absent or unreadable: a miss
        arrays, meta = {}, None
    shapes = {k: v.shape for k, v in arrays.items()}
    if (meta == {k: str(v) for k, v in header.items()}
            and shapes == mt.FeatureExtractor.weight_shapes(frames, dim, key["hidden"])):
        weights = {k: ad.tensor(v) for k, v in arrays.items()}
        return mt.FeatureExtractor(frames, dim, key["hidden"], **weights), ref
    ext, _ = mt.train_fgd_extractor([r.x0 for r in ref.records], **key)
    write_checkpoint(cache, {k: p.value for k, p in ext.named().items()}, header, key["steps"])
    return ext, ref


def run_eval(gen_dir, ref_dir, cfg: dict, out_dir=None) -> dict:
    """Full metric suite for a generated corpus against a reference corpus."""
    ext, ref = get_extractor(ref_dir, cfg)
    gen = read_bvh_dir(gen_dir)
    gen_mats = [clip_to_features(c) for _, _, c in gen]

    ref_feats = ext.features([r.x0 for r in ref.records])
    gen_feats = ext.features(gen_mats)
    report = {
        "fgd": mt.frechet_distance(ref_feats, gen_feats),
        "diversity": mt.diversity_score(gen_feats, n=cfg["eval.n_diversity"], seed=cfg["seed"]),
        "l1div": mt.l1_diversity(gen_mats),
        "n_gen": len(gen),
        "n_ref": len(ref.records),
        "seed": cfg["seed"],
    }

    # pair generated clips with reference conditions by prefix, falling
    # back to index order
    by_name = {r.name: r for r in ref.records}
    aligns, srgrs = [], []
    for i, ((name, skel, clip), mat) in enumerate(zip(gen, gen_mats)):
        check_joints(Path(gen_dir) / f"{name}.bvh", skel, ref.skeleton,
                     f"the reference corpus {ref_dir}")
        rec = by_name.get(name.split(".")[0], ref.records[i % len(ref.records)])
        if rec.onsets.size == 0:
            raise DataError(f"reference clip {rec.name} has no onsets in {ref_dir}")
        aligns.append(mt.beat_align(rec.onsets, mt.detect_gesture_beats(clip),
                                    sigma=cfg["eval.sigma"]))
        srgrs.append(mt.srgr(mat, rec.x0, cfg["eval.threshold"]))
    report["beat_align"] = float(np.mean(aligns))
    report["srgr"] = float(np.mean(srgrs))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(out / "report.txt", out / "report.json",
                     {k: report[k] for k in sorted(report)})
    return report


# -- ablation matrix ----------------------------------------------------

LAYER_VARIANTS = [("layers-1", {"model.layers": 1}),
                  ("layers-2", {"model.layers": 2}),
                  ("layers-4", {"model.layers": 4}),
                  ("layers-8", {"model.layers": 8}),
                  ("layers-12", {"model.layers": 12})]

BLOCK_VARIANTS = [
    ("full-block", {}),
    ("with-conv", {"model.use_conv": True}),
    ("no-attn", {"model.use_attention": False}),
    ("no-mamba", {"model.use_mamba": False}),
    ("conv-no-attn", {"model.use_conv": True, "model.use_attention": False}),
    ("conv-no-mamba", {"model.use_conv": True, "model.use_mamba": False}),
    ("conv-only", {"model.use_conv": True, "model.use_attention": False,
                   "model.use_mamba": False}),
]

FUSION_VARIANTS = [("fusion-SA", {"model.mode": "SA"}),
                   ("fusion-SEA", {"model.mode": "SEA"}),
                   ("fusion-SEAD-basic", {"model.mode": "SEAD_BASIC"}),
                   ("fusion-SEAD", {"model.mode": "SEAD"})]

METRIC_COLUMNS = ["fgd", "diversity", "l1div", "srgr", "beat_align"]


def ablation_variants():
    return LAYER_VARIANTS + BLOCK_VARIANTS + FUSION_VARIANTS


def run_ablation(cfg: dict, dataset_dir, out_dir) -> list:
    """Train + sample + evaluate every ablation variant on one corpus.

    Package errors (`GestureGenError`) are recorded per row, with the traceback in
    `<out>/<variant>/error.txt`, and the run continues; any other exception is a
    bug and propagates. Returns the list of row dicts and writes a fixed-width
    table plus per-row reports.

    Each eval needs at least 2 generated clips, so a config that samples fewer,
    `sample.n * min(sample.max_conditions or n_clips, n_clips)` for the corpus's
    n_clips >= 1 clips, is a ConfigError before any variant trains. An empty corpus
    is left to each row's DataError.
    """
    n_clips = len(bvh_paths(dataset_dir))
    n, most = cfg["sample.n"], cfg["sample.max_conditions"]
    per_eval = n * min(most or n_clips, n_clips)
    if n_clips and per_eval < 2:
        raise ConfigError(f"sample.n = {n} and sample.max_conditions = {most} give {per_eval} "
                          f"generated clip(s) from the {n_clips} clip(s) in {dataset_dir}; "
                          "each variant's eval needs at least 2")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, patch in ablation_variants():
        row = {"name": name}
        vdir = out / name
        try:
            variant_cfg = load_config(overrides=cfg | patch)
            run_train(variant_cfg, dataset_dir, vdir)
            run_sample(vdir / "model.ckpt", dataset_dir, n=cfg["sample.n"],
                       seed=cfg["seed"], out_dir=vdir / "samples",
                       max_conditions=cfg["sample.max_conditions"])
            report = run_eval(vdir / "samples", dataset_dir, variant_cfg, out_dir=vdir)
            for col in METRIC_COLUMNS:
                row[col] = report[col]
        except GestureGenError as e:  # record and continue with the next variant
            row["error"] = f"{type(e).__name__}: {e}"
            vdir.mkdir(parents=True, exist_ok=True)
            (vdir / "error.txt").write_text(traceback.format_exc())
        rows.append(row)

    lines = [_table_row(["name"] + METRIC_COLUMNS)]
    for row in rows:
        if "error" in row:
            lines.append(_table_row([row["name"], "FAILED: " + row["error"]]))
        else:
            lines.append(_table_row([row["name"]] + [f"{row[c]:.4f}" for c in METRIC_COLUMNS]))
    (out / "ablation.txt").write_text("\n".join(lines) + "\n")
    return rows


def _table_row(cells):
    return "  ".join(f"{c:<18}" for c in cells).rstrip()
