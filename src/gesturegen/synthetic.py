"""Seeded synthetic gesture corpus.

Each clip is a chain skeleton driven by sinusoidal joint trajectories
whose frequency is keyed to the emotion label and amplitude to the style
label. Audio features are seeded linear projections of the generating
parameters, so style and emotion are genuinely recoverable from audio;
text features encode only the per-clip latent. Onset files carry the
clip's detected kinematic beats so a corpus is self-consistent under the
beat-alignment metric.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bvh import (BvhJoint, JointLayout, MotionClip, Skeleton, clip_to_features,
                  read_bvh_dir, write_bvh)
from .denoiser import TrainExample
from .errors import DataError, ParseError
from .fileio import (read_features, read_float_lines, read_key_values, write_features,
                     write_float_lines, write_key_values)
from .fusion import N_EMOTIONS
from .metrics import detect_gesture_beats

LATENT_DIM = 8  # width of each clip's free latent, which alone drives its text features


@dataclass
class SyntheticSpec:
    """Fields: the `synthetic.*` key suffixes, plus `seed`."""

    n_clips: int = 16
    frames: int = 60
    joints: int = 8
    n_styles: int = 4
    d_audio: int = 24
    d_text: int = 8
    fps: float = 30.0
    seed: int = 0

    @classmethod
    def from_config(cls, cfg: dict) -> "SyntheticSpec":
        return cls(**{k.split(".")[1]: cfg[k] for k in cfg if k.startswith("synthetic.")},
                   seed=cfg["seed"])


def chain_skeleton(joints: int) -> Skeleton:
    """Simple kinematic chain of joints >= 1; root carries translation + rotation channels."""
    rot = ["Zrotation", "Xrotation", "Yrotation"]
    out = [BvhJoint("root", None, np.zeros(3),
                    ["Xposition", "Yposition", "Zposition"] + rot)]
    for i in range(1, joints):
        out.append(BvhJoint(f"joint{i}", i - 1, np.array([0.0, 10.0, 0.0]), list(rot)))
    return Skeleton(out, end_sites={joints - 1: np.array([0.0, 10.0, 0.0])})


def emotion_frequency(emotion_id: int) -> float:
    """Dominant trajectory frequency in Hz for an emotion class."""
    return 0.5 + 0.2 * emotion_id


def _clip_motion(spec: SyntheticSpec, layout: JointLayout, style_id: int, emotion_id: int,
                 rng: np.random.Generator) -> MotionClip:
    t = np.arange(spec.frames) / spec.fps
    freq = emotion_frequency(emotion_id)
    amp = 8.0 + 3.0 * style_id + rng.uniform(-0.5, 0.5, (spec.joints, 3))
    phase = rng.uniform(0.0, 2 * np.pi, (spec.joints, 3))
    angles = amp[None] * np.sin(2 * np.pi * freq * t[:, None, None] + phase[None])
    trans = 0.05 * np.sin(2 * np.pi * freq * t[:, None] + rng.uniform(0, 2 * np.pi, 3))
    return MotionClip(spec.fps, trans, angles, layout)


def gen_synthetic_dataset(spec: SyntheticSpec, out_dir) -> list:
    """Write BVH + feature + label + onset files; returns clip names.

    Refuses to write into a non-empty directory. Byte-identical output
    for identical (spec, seed).
    """
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise DataError(f"output directory {out} is not empty; refusing to overwrite")
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(spec.seed)
    d_lat = spec.n_styles + N_EMOTIONS + LATENT_DIM
    p_base = rng.normal(0.0, 1.0, (d_lat, spec.d_audio))
    p_mod = rng.normal(0.0, 0.3, (d_lat, spec.d_audio))
    p_text = rng.normal(0.0, 1.0, (LATENT_DIM, spec.d_text))
    skeleton = chain_skeleton(spec.joints)
    layout = skeleton.layout()

    names = []
    t_sec = np.arange(spec.frames) / spec.fps
    for i in range(spec.n_clips):
        style_id = i % spec.n_styles
        emotion_id = (i // spec.n_styles) % N_EMOTIONS
        clip = _clip_motion(spec, layout, style_id, emotion_id, rng)
        z = rng.normal(0.0, 1.0, LATENT_DIM)
        latent = np.concatenate([np.eye(spec.n_styles)[style_id], np.eye(N_EMOTIONS)[emotion_id], z])
        carrier = np.sin(2 * np.pi * emotion_frequency(emotion_id) * t_sec)
        audio = latent @ p_base + carrier[:, None] * (latent @ p_mod)
        text = np.tile(z @ p_text, (spec.frames, 1)) * (1.0 + 0.1 * np.cos(2 * np.pi * 0.3 * t_sec))[:, None]

        name = f"clip_{i:04d}"
        (out / f"{name}.bvh").write_text(write_bvh(skeleton, clip))
        write_features(out / f"{name}.audio.feat", audio, "audio")
        write_features(out / f"{name}.text.feat", text, "text")
        write_key_values(out / f"{name}.labels", {"style": style_id, "emotion": emotion_id})
        write_float_lines(out / f"{name}.onsets", detect_gesture_beats(clip))
        names.append(name)

    write_key_values(out / "dataset.meta", asdict(spec))
    return names


@dataclass
class ClipRecord(TrainExample):
    """A corpus clip: its training example plus its name and beat onsets."""

    name: str
    onsets: np.ndarray


@dataclass
class Dataset:
    """A corpus's records plus what all its clips share, decided once by `load_dataset`."""

    records: list
    skeleton: Skeleton
    fps: float
    n_styles: int  # dataset.meta's n_styles, else one past the largest style id

    @property
    def gesture_dim(self) -> int:
        return self.records[0].x0.shape[1]

    @property
    def frames(self) -> int:
        return self.records[0].x0.shape[0]

    @property
    def widths(self) -> tuple:
        """(gesture, audio, text, style) widths as in `harness.WIDTH_KEYS`, from the arrays."""
        first = self.records[0]
        return self.gesture_dim, first.audio.shape[1], first.text.shape[1], self.n_styles


def _int_entries(path, entries: dict, keys) -> dict:
    """`entries[k]` as an int for each of `keys`, or a ParseError that names `path`."""
    try:
        return {k: int(entries[k]) for k in keys}
    except (KeyError, ValueError):
        raise ParseError(f"{path}: needs integer {', '.join(keys)}; got {entries}") from None


def joints_key(skeleton: Skeleton) -> str:
    """The joint names and parents of `skeleton`, in order, as one line of JSON: all that
    `check_joints` compares. Rotation orders and offsets may differ between corpora:
    features hold rotation matrices."""
    return json.dumps([[j.name, j.parent] for j in skeleton.joints])


def check_joints(path, skeleton: Skeleton, ref: str, ref_name: str):
    """A DataError naming `path` unless `skeleton`'s `joints_key` is `ref`, that of
    `ref_name`."""
    if joints_key(skeleton) != ref:
        raise DataError(f"{path}: joint names or parents differ from those of {ref_name}")


def load_dataset(directory) -> Dataset:
    """Read a corpus produced by `gen_synthetic_dataset` (or matching it)."""
    directory = Path(directory)
    clips = read_bvh_dir(directory)
    n_styles = math.inf  # the style ids' bound: dataset.meta's count, or none
    meta_path = directory / "dataset.meta"
    if meta_path.is_file():
        meta = read_key_values(meta_path)
        if "n_styles" in meta:
            n_styles = _int_entries(meta_path, meta, ["n_styles"])["n_styles"]

    first_name, skeleton, first = clips[0]  # one skeleton and one frame rate per corpus
    joints = joints_key(skeleton)
    records = []
    widths = {}  # each modality's feature width, from the first clip
    for name, skel, clip in clips:
        path = directory / f"{name}.bvh"
        check_joints(path, skel, joints, f"{first_name}.bvh")
        if clip.fps != first.fps:
            raise DataError(f"{path}: frame rate {clip.fps:g} fps differs from the "
                            f"{first.fps:g} fps of {first_name}.bvh")
        feats = {}
        for modality in ("audio", "text"):
            path = directory / f"{name}.{modality}.feat"
            feats[modality], _ = read_features(path)
            want = (clip.frames, widths.setdefault(modality, feats[modality].shape[1]))
            if feats[modality].shape != want:
                raise DataError(f"{path}: {modality} features {feats[modality].shape}, "
                                f"expected (frames, width) {want}")
        label_path = directory / f"{name}.labels"
        labels = _int_entries(label_path, read_key_values(label_path), ("style", "emotion"))
        for key, n in (("style", n_styles), ("emotion", N_EMOTIONS)):
            if not 0 <= labels[key] < n:
                raise DataError(f"{label_path}: {key} id {labels[key]} outside [0, {n})")
        onset_path = directory / f"{name}.onsets"
        onsets = np.array([])
        if onset_path.is_file():
            onsets = read_float_lines(onset_path)
        records.append(ClipRecord(
            name=name, x0=clip_to_features(clip), audio=feats["audio"], text=feats["text"],
            style_id=labels["style"], emotion_id=labels["emotion"], onsets=onsets))
    shapes = {r.x0.shape for r in records}
    if len(shapes) != 1:
        raise DataError(f"corpus clips have heterogeneous shapes: {sorted(shapes)}")
    if n_styles == math.inf:
        n_styles = max(r.style_id for r in records) + 1
    return Dataset(records, skeleton, first.fps, n_styles)
