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

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bvh import (BvhJoint, JointLayout, MotionClip, Skeleton, clip_to_features,
                  read_bvh, write_bvh)
from .errors import DataError, ParseError
from .fileio import (read_features, read_float_lines, read_key_values, write_features,
                     write_float_lines, write_key_values)
from .metrics import detect_gesture_beats


@dataclass
class SyntheticSpec:
    n_clips: int = 16
    frames: int = 300
    joints: int = 8
    n_styles: int = 4
    n_emotions: int = 8
    d_audio: int = 24
    d_text: int = 8
    fps: float = 30.0
    latent_dim: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.frames < 3:
            raise DataError(f"clips need >= 3 frames, got {self.frames}")
        if self.n_emotions != 8:
            raise DataError("the emotion label set is fixed at 8 classes")

    @classmethod
    def from_config(cls, cfg: dict) -> "SyntheticSpec":
        return cls(**{k.split(".")[1]: cfg[k] for k in cfg if k.startswith("synthetic.")},
                   seed=cfg["seed"])


def chain_skeleton(joints: int) -> Skeleton:
    """Simple kinematic chain; root carries translation + rotation channels."""
    if joints < 1:
        raise DataError("need at least one joint")
    rot = ["Zrotation", "Xrotation", "Yrotation"]
    out = [BvhJoint("root", None, np.zeros(3),
                    ["Xposition", "Yposition", "Zposition"] + rot)]
    for i in range(1, joints):
        out.append(BvhJoint(f"joint{i}", i - 1, np.array([0.0, 10.0, 0.0]), list(rot)))
    return Skeleton(out, end_sites={joints - 1: np.array([0.0, 10.0, 0.0])})


def emotion_frequency(emotion_id: int) -> float:
    """Dominant trajectory frequency in Hz for an emotion class."""
    return 0.5 + 0.2 * emotion_id


def _clip_motion(spec: SyntheticSpec, style_id: int, emotion_id: int,
                 rng: np.random.Generator) -> MotionClip:
    t = np.arange(spec.frames) / spec.fps
    freq = emotion_frequency(emotion_id)
    amp = 8.0 + 3.0 * style_id + rng.uniform(-0.5, 0.5, (spec.joints, 3))
    phase = rng.uniform(0.0, 2 * np.pi, (spec.joints, 3))
    angles = amp[None] * np.sin(2 * np.pi * freq * t[:, None, None] + phase[None])
    trans = 0.05 * np.sin(2 * np.pi * freq * t[:, None] + rng.uniform(0, 2 * np.pi, 3))
    layout = JointLayout(["root"] + [f"joint{i}" for i in range(1, spec.joints)],
                         ["ZXY"] * spec.joints)
    return MotionClip(spec.fps, trans, angles, layout)


def _clip_latent(spec: SyntheticSpec, style_id: int, emotion_id: int,
                 z: np.ndarray) -> np.ndarray:
    onehot_s = np.eye(spec.n_styles)[style_id]
    onehot_e = np.eye(spec.n_emotions)[emotion_id]
    return np.concatenate([onehot_s, onehot_e, z])


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
    d_lat = spec.n_styles + spec.n_emotions + spec.latent_dim
    p_base = rng.normal(0.0, 1.0, (d_lat, spec.d_audio))
    p_mod = rng.normal(0.0, 0.3, (d_lat, spec.d_audio))
    p_text = rng.normal(0.0, 1.0, (spec.latent_dim, spec.d_text))
    skeleton = chain_skeleton(spec.joints)

    names = []
    t_sec = np.arange(spec.frames) / spec.fps
    for i in range(spec.n_clips):
        style_id = i % spec.n_styles
        emotion_id = (i // spec.n_styles) % spec.n_emotions
        clip = _clip_motion(spec, style_id, emotion_id, rng)
        z = rng.normal(0.0, 1.0, spec.latent_dim)
        latent = _clip_latent(spec, style_id, emotion_id, z)
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
class ClipRecord:
    name: str
    clip: MotionClip          # euler-degrees, as parsed
    x0: np.ndarray            # F x (3 + 9J) gesture features
    audio: np.ndarray
    text: np.ndarray
    style_id: int
    emotion_id: int
    onsets: np.ndarray


@dataclass
class Dataset:
    records: list
    skeleton: Skeleton
    layout: JointLayout
    meta: dict  # dataset.meta's strings, with n_styles and n_emotions as ints

    @property
    def gesture_dim(self) -> int:
        return self.records[0].x0.shape[1]

    @property
    def frames(self) -> int:
        return self.records[0].x0.shape[0]

    @property
    def fps(self) -> float:
        return self.records[0].clip.fps


def _int_entries(path, entries: dict, keys) -> dict:
    """`entries[k]` as an int for each of `keys`, or a ParseError that names `path`."""
    try:
        return {k: int(entries[k]) for k in keys}
    except (KeyError, ValueError):
        raise ParseError(f"{path}: needs integer {', '.join(keys)}; got {entries}") from None


def load_dataset(directory) -> Dataset:
    """Read a corpus produced by `gen_synthetic_dataset` (or matching it)."""
    directory = Path(directory)
    bvh_files = sorted(directory.glob("*.bvh"))
    if not bvh_files:
        raise DataError(f"no BVH clips found in {directory}")
    meta = {}
    meta_path = directory / "dataset.meta"
    if meta_path.is_file():
        meta = read_key_values(meta_path)
        meta |= _int_entries(meta_path, meta, [k for k in ("n_styles", "n_emotions") if k in meta])

    records = []
    skeleton = layout = None
    for path in bvh_files:
        name = path.stem
        skel, clip = read_bvh(path)
        if skeleton is None:
            skeleton, layout = skel, clip.layout
        audio, _ = read_features(directory / f"{name}.audio.feat")
        text, _ = read_features(directory / f"{name}.text.feat")
        label_path = directory / f"{name}.labels"
        labels = _int_entries(label_path, read_key_values(label_path), ("style", "emotion"))
        onset_path = directory / f"{name}.onsets"
        onsets = np.array([])
        if onset_path.is_file():
            onsets = read_float_lines(onset_path)
        records.append(ClipRecord(
            name=name, clip=clip, x0=clip_to_features(clip), audio=audio, text=text,
            style_id=labels["style"], emotion_id=labels["emotion"],
            onsets=onsets))
    shapes = {r.x0.shape for r in records}
    if len(shapes) != 1:
        raise DataError(f"corpus clips have heterogeneous shapes: {sorted(shapes)}")
    return Dataset(records, skeleton, layout, meta)
