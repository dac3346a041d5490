"""BVH motion I/O: parse/emit, representation conversion, resampling,
segmentation, and joint-subset selection.

Layout convention: the root translation occupies pseudo-joint index 0 of
the selection layout; rotation joint j of the skeleton is index j + 1.
Files carry degrees; matrix conversions happen in radians internally.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ParseError, ShapeError
from .rotations import euler_to_rotmat, nearest_rotation, rotmat_to_euler

_POSITION_CHANNELS = {"Xposition", "Yposition", "Zposition"}
_ROTATION_CHANNELS = {"Xrotation", "Yrotation", "Zrotation"}

EULER_DEGREES = "euler-degrees"
ROTMAT9 = "rotmat9"


@dataclass
class BvhJoint:
    name: str
    parent: Optional[int]
    offset: np.ndarray  # 3
    channels: list  # channel labels in file order


@dataclass
class Skeleton:
    joints: list  # BvhJoint in hierarchy (topological) order
    end_sites: dict = field(default_factory=dict)  # joint index -> offset

    def __post_init__(self):
        roots = [i for i, j in enumerate(self.joints) if j.parent is None]
        if roots != [0]:
            raise ShapeError(f"skeleton must have exactly one root at index 0, found {roots}")
        for i, j in enumerate(self.joints[1:], start=1):
            if j.parent >= i:
                raise ShapeError("skeleton joints must be in topological order")

    def rotation_orders(self):
        return [_rotation_order(j.channels) for j in self.joints]

    def joint_names(self):
        return [j.name for j in self.joints]


@dataclass
class JointLayout:
    names: list  # rotation-joint names, hierarchy order
    orders: list  # per-joint channel-order tags, e.g. "ZXY"
    rep: str = EULER_DEGREES

    @property
    def joint_count(self):
        return len(self.names)


@dataclass
class MotionClip:
    fps: float
    root_translation: np.ndarray  # F x 3
    rotations: np.ndarray  # F x J x 3 (euler-degrees) or F x J x 9 (rotmat9)
    layout: JointLayout

    def __post_init__(self):
        self.root_translation = np.asarray(self.root_translation, dtype=np.float64)
        self.rotations = np.asarray(self.rotations, dtype=np.float64)
        if self.fps <= 0:
            raise ShapeError(f"fps must be positive, got {self.fps}")
        if self.rotations.ndim != 3 or self.rotations.shape[0] < 1:
            raise ShapeError(f"rotations must be F x J x width with F >= 1, got {self.rotations.shape}")
        width = 9 if self.layout.rep == ROTMAT9 else 3
        if self.rotations.shape[1] != self.layout.joint_count or self.rotations.shape[2] != width:
            raise ShapeError(f"rotations {self.rotations.shape} do not match layout "
                             f"({self.layout.joint_count} joints, width {width})")
        if self.root_translation.shape != (self.rotations.shape[0], 3):
            raise ShapeError(f"root translation {self.root_translation.shape} does not match frame count")

    @property
    def frames(self):
        return self.rotations.shape[0]


@dataclass
class JointSubset:
    """Strictly increasing indices into the selection layout (0 = translation)."""

    name: str
    indices: list

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError(f"joint subset {self.name!r} is empty")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"joint subset {self.name!r} indices must be strictly increasing")


def _rotation_order(channels) -> str:
    return "".join(c[0] for c in channels if c in _ROTATION_CHANNELS)


# -- parsing ------------------------------------------------------------


def parse_bvh(text: str):
    """Parse a complete BVH document into (Skeleton, MotionClip).

    Every joint must carry exactly 3 rotation channels, one per axis; the
    root may add 3 position channels. The clip comes back tagged euler-degrees.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    toks = [(i + 1, line.split()) for i, line in enumerate(lines) if line.split()]
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (len(lines), ["<eof>"])

    def take(expect=None):
        nonlocal pos
        ln, words = peek()
        if pos >= len(toks):
            raise ParseError("unexpected end of file", line=ln)
        if expect is not None and words[0] != expect:
            raise ParseError(f"expected {expect!r}, found {words[0]!r}", line=ln)
        pos += 1
        return ln, words

    take("HIERARCHY")
    joints: list = []
    end_sites: dict = {}

    def parse_joint(parent):
        ln, words = take()
        if words[0] not in ("ROOT", "JOINT") or len(words) < 2:
            raise ParseError(f"expected ROOT/JOINT declaration, found {' '.join(words)!r}", line=ln)
        if words[0] == "ROOT" and parent is not None:
            raise ParseError("ROOT inside hierarchy", line=ln)
        name = words[1]
        take("{")
        ln, words = take("OFFSET")
        if len(words) != 4:
            raise ParseError("OFFSET needs 3 values", line=ln)
        offset = _floats(words[1:], ln)
        ln, words = take("CHANNELS")
        try:
            n = int(words[1])
        except (IndexError, ValueError):
            raise ParseError("CHANNELS needs a count", line=ln)
        channels = words[2:]
        if len(channels) != n:
            raise ParseError(f"CHANNELS count {n} but {len(channels)} labels", line=ln)
        bad = [c for c in channels if c not in _POSITION_CHANNELS | _ROTATION_CHANNELS]
        if bad:
            raise ParseError(f"unknown channel labels {bad}", line=ln)
        n_rot = sum(c in _ROTATION_CHANNELS for c in channels)
        n_pos = n - n_rot
        if n_rot != 3:
            raise ParseError(f"joint {name!r} must have exactly 3 rotation channels", line=ln)
        if len(set(_rotation_order(channels))) != 3:
            raise ParseError(f"joint {name!r} repeats a rotation axis", line=ln)
        if n_pos not in (0, 3) or (n_pos == 3 and parent is not None):
            raise ParseError(f"position channels only allowed on the root (joint {name!r})", line=ln)
        idx = len(joints)
        joints.append(BvhJoint(name, parent, offset, channels))
        while True:
            ln, words = peek()
            if words[0] in ("JOINT",):
                parse_joint(idx)
            elif words[0] == "End":
                take("End")
                take("{")
                ln, words = take("OFFSET")
                end_sites[idx] = _floats(words[1:], ln)
                take("}")
            elif words[0] == "}":
                take("}")
                return
            else:
                raise ParseError(f"unexpected token {words[0]!r} in hierarchy", line=ln)

    parse_joint(None)
    skeleton = Skeleton(joints, end_sites)

    take("MOTION")
    ln, words = take("Frames:")
    try:
        n_frames = int(words[1])
    except (IndexError, ValueError):
        raise ParseError("Frames: needs an integer", line=ln)
    if n_frames < 1:
        raise ParseError(f"Frames: must be at least 1, got {n_frames}", line=ln)
    ln, words = take("Frame")
    if len(words) < 3 or words[1] != "Time:":
        raise ParseError("expected 'Frame Time:'", line=ln)
    frame_time = _floats(words[2:3], ln)[0]
    if frame_time <= 0:
        raise ParseError("frame time must be positive", line=ln)

    n_channels = sum(len(j.channels) for j in joints)
    data = np.zeros((n_frames, n_channels))
    for f in range(n_frames):
        if pos >= len(toks):
            raise ParseError(f"expected {n_frames} frames, found {f}", line=len(lines))
        ln, words = take()
        if len(words) != n_channels:
            raise ParseError(f"frame has {len(words)} values, expected {n_channels}", line=ln)
        data[f] = _floats(words, ln)
    if pos < len(toks):
        ln, words = peek()
        raise ParseError(f"trailing content after {n_frames} frames", line=ln)

    pos_cols, pos_axes, rot_cols = _channel_columns(joints)
    root_translation = np.zeros((n_frames, 3))
    root_translation[:, pos_axes] = data[:, pos_cols]
    rotations = data[:, rot_cols].reshape(n_frames, len(joints), 3)
    layout = JointLayout(skeleton.joint_names(), skeleton.rotation_orders(), EULER_DEGREES)
    clip = MotionClip(1.0 / frame_time, root_translation, rotations, layout)
    return skeleton, clip


def read_bvh(path):
    """`parse_bvh` of the file at a `pathlib.Path`; a ParseError names the file."""
    try:
        return parse_bvh(path.read_text())
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e


def _channel_columns(joints):
    """Map motion-data columns to the clip: (position columns, their XYZ
    axes, rotation columns). The rotation columns map in order onto
    `rotations.reshape(F, 3 * J)`."""
    channels = [ch for j in joints for ch in j.channels]
    pos_cols = [c for c, ch in enumerate(channels) if ch in _POSITION_CHANNELS]
    rot_cols = [c for c, ch in enumerate(channels) if ch in _ROTATION_CHANNELS]
    return pos_cols, ["XYZ".index(channels[c][0]) for c in pos_cols], rot_cols


def _floats(words, ln):
    try:
        return np.array([float(w) for w in words])
    except ValueError as e:
        raise ParseError(f"non-numeric value: {e}", line=ln)


# -- writing ------------------------------------------------------------


def write_bvh(skeleton: Skeleton, clip: MotionClip) -> str:
    """Emit HIERARCHY + MOTION text (6 decimals, LF line endings)."""
    if clip.layout.rep != EULER_DEGREES:
        raise ShapeError("write_bvh requires an euler-degrees clip; convert rotmat9 first")
    if clip.layout.joint_count != len(skeleton.joints):
        raise ShapeError(f"clip has {clip.layout.joint_count} joints, skeleton {len(skeleton.joints)}")

    children: dict = {i: [] for i in range(len(skeleton.joints))}
    for i, j in enumerate(skeleton.joints):
        if j.parent is not None:
            children[j.parent].append(i)

    out = ["HIERARCHY"]

    def emit(idx, depth):
        j = skeleton.joints[idx]
        pad = "  " * depth
        out.append(f"{pad}{'ROOT' if j.parent is None else 'JOINT'} {j.name}")
        out.append(pad + "{")
        inner = "  " * (depth + 1)
        out.append(f"{inner}OFFSET {_fmt(j.offset)}")
        out.append(f"{inner}CHANNELS {len(j.channels)} {' '.join(j.channels)}")
        for c in children[idx]:
            emit(c, depth + 1)
        if idx in skeleton.end_sites:
            out.append(f"{inner}End Site")
            out.append(inner + "{")
            out.append(f"{inner}  OFFSET {_fmt(skeleton.end_sites[idx])}")
            out.append(inner + "}")
        out.append(pad + "}")

    emit(0, 0)
    out.append("MOTION")
    out.append(f"Frames: {clip.frames}")
    # extra header precision keeps fps stable under parse/write cycles
    out.append(f"Frame Time: {1.0 / clip.fps:.12f}")
    pos_cols, pos_axes, rot_cols = _channel_columns(skeleton.joints)
    data = np.empty((clip.frames, len(pos_cols) + len(rot_cols)))
    data[:, pos_cols] = clip.root_translation[:, pos_axes]
    data[:, rot_cols] = clip.rotations.reshape(clip.frames, -1)
    out.extend(_fmt(row) for row in data)
    return "\n".join(out) + "\n"


def _fmt(values):
    return " ".join(f"{v:.6f}" for v in np.asarray(values, dtype=np.float64))


# -- representation conversion -----------------------------------------


def clip_to_rotmat(clip: MotionClip) -> MotionClip:
    """Euler-degrees clip -> flattened 3x3 rotation matrices per joint."""
    if clip.layout.rep == ROTMAT9:
        return clip
    F, J = clip.frames, clip.layout.joint_count
    rot = np.zeros((F, J, 9))
    for ji, order in enumerate(clip.layout.orders):  # one rotation order per joint
        rot[:, ji] = euler_to_rotmat(clip.rotations[:, ji], order).reshape(F, 9)
    layout = replace(clip.layout, rep=ROTMAT9)
    return MotionClip(clip.fps, clip.root_translation.copy(), rot, layout)


def clip_to_euler(clip: MotionClip, orthonormalize: bool = False) -> MotionClip:
    """Rotmat9 clip -> euler-degrees, optionally snapping blocks to SO(3)."""
    if clip.layout.rep == EULER_DEGREES:
        return clip
    F, J = clip.frames, clip.layout.joint_count
    rot = np.zeros((F, J, 3))
    for ji, order in enumerate(clip.layout.orders):  # one rotation order per joint
        m = clip.rotations[:, ji].reshape(F, 3, 3)
        if orthonormalize:
            m = nearest_rotation(m)
        rot[:, ji] = rotmat_to_euler(m, order)
    layout = replace(clip.layout, rep=EULER_DEGREES)
    return MotionClip(clip.fps, clip.root_translation.copy(), rot, layout)


# -- temporal ops -------------------------------------------------------


def resample(clip: MotionClip, target_fps: float) -> MotionClip:
    """Decimate to target_fps by keeping every (fps/target_fps)-th frame."""
    ratio = clip.fps / target_fps
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError(f"fps ratio {clip.fps}/{target_fps} is not a positive integer")
    k = int(round(ratio))
    return MotionClip(target_fps, clip.root_translation[::k].copy(),
                      clip.rotations[::k].copy(), clip.layout)


def segment_clips(clip: MotionClip, length: int, stride: int):
    """Fully contained windows [i*stride, i*stride + length); partial tails dropped."""
    if length < 1 or stride < 1:
        raise ValueError("length and stride must be >= 1")
    out = []
    start = 0
    while start + length <= clip.frames:
        out.append(MotionClip(clip.fps, clip.root_translation[start:start + length].copy(),
                              clip.rotations[start:start + length].copy(), clip.layout))
        start += stride
    return out


def select_joints(clip: MotionClip, subset: JointSubset) -> MotionClip:
    """Restrict to a subset of the selection layout (0 = root translation)."""
    J = clip.layout.joint_count
    for i in subset.indices:
        if not 0 <= i <= J:
            raise IndexError(f"subset index {i} outside layout of {J + 1} slots")
    keep_translation = subset.indices[0] == 0
    rot_idx = [i - 1 for i in subset.indices if i > 0]
    if not rot_idx:
        raise ValueError("subset selects no rotation joints")
    trans = clip.root_translation.copy() if keep_translation else np.zeros((clip.frames, 3))
    layout = JointLayout([clip.layout.names[i] for i in rot_idx],
                         [clip.layout.orders[i] for i in rot_idx], clip.layout.rep)
    return MotionClip(clip.fps, trans, clip.rotations[:, rot_idx].copy(), layout)


def load_joint_subset(text: str, layout: JointLayout, name: str = "subset") -> JointSubset:
    """Subset definition: one joint name per line, '#' comments.

    The literal name 'translation' selects the root-translation slot.
    """
    wanted = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        if entry == "translation":
            wanted.append(0)
        elif entry in layout.names:
            wanted.append(layout.names.index(entry) + 1)
        else:
            raise ParseError(f"unknown joint name {entry!r}", line=ln)
    return JointSubset(name, sorted(set(wanted)))


# -- flat feature vectors ----------------------------------------------


def clip_to_features(clip: MotionClip) -> np.ndarray:
    """Rotmat9 clip -> F x (3 + 9J): translation then row-major blocks."""
    rm = clip_to_rotmat(clip)
    F = rm.frames
    return np.concatenate([rm.root_translation, rm.rotations.reshape(F, -1)], axis=1)


def features_to_clip(features: np.ndarray, fps: float, layout: JointLayout,
                     orthonormalize: bool = True) -> MotionClip:
    """Inverse of `clip_to_features`; snaps blocks onto SO(3) by default."""
    features = np.asarray(features, dtype=np.float64)
    J = layout.joint_count
    if features.ndim != 2 or features.shape[1] != 3 + 9 * J:
        raise ShapeError(f"features {features.shape} do not match {J}-joint layout")
    F = features.shape[0]
    rot = features[:, 3:].reshape(F, J, 9)
    if orthonormalize:
        rot = nearest_rotation(rot.reshape(F, J, 3, 3)).reshape(F, J, 9)
    return MotionClip(fps, features[:, :3].copy(), rot, replace(layout, rep=ROTMAT9))
