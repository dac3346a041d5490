"""BVH motion I/O: parse/emit, representation conversion, resampling and
segmentation.

A clip's joint layout is its skeleton's: the joints' names and rotation
channel orders, in hierarchy order. A clip's rotation width is its
representation: 3 for Euler degrees, as in files, 9 for row-major
matrices; conversions work in radians internally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError, ParseError, ShapeError
from .fileio import read_text
from .rotations import euler_to_rotmat, nearest_rotation, rotmat_to_euler

_POSITION_CHANNELS = {"Xposition", "Yposition", "Zposition"}
_ROTATION_CHANNELS = {"Xrotation", "Yrotation", "Zrotation"}
_CHANNELS = _POSITION_CHANNELS | _ROTATION_CHANNELS


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

    def layout(self) -> JointLayout:
        return JointLayout([j.name for j in self.joints],
                           [_rotation_order(j.channels) for j in self.joints])


@dataclass
class JointLayout:
    names: list  # rotation-joint names, hierarchy order
    orders: list  # per-joint channel-order tags, e.g. "ZXY"

    @property
    def joint_count(self):
        return len(self.names)


@dataclass
class MotionClip:
    fps: float
    root_translation: np.ndarray  # F x 3
    rotations: np.ndarray  # F x J x 3 (Euler degrees) or F x J x 9 (rotation matrices)
    layout: JointLayout

    def __post_init__(self):
        self.root_translation = np.asarray(self.root_translation, dtype=np.float64)
        self.rotations = np.asarray(self.rotations, dtype=np.float64)
        if self.fps <= 0:
            raise ShapeError(f"fps must be positive, got {self.fps}")
        if self.rotations.ndim != 3 or self.rotations.shape[0] < 1:
            raise ShapeError(f"rotations must be F x J x width with F >= 1, got {self.rotations.shape}")
        if self.rotations.shape[1] != self.layout.joint_count or self.rotations.shape[2] not in (3, 9):
            raise ShapeError(f"rotations {self.rotations.shape} do not match layout "
                             f"({self.layout.joint_count} joints, width 3 or 9)")
        if self.root_translation.shape != (self.rotations.shape[0], 3):
            raise ShapeError(f"root translation {self.root_translation.shape} does not match frame count")

    @property
    def frames(self):
        return self.rotations.shape[0]


def _rotation_order(channels) -> str:
    return "".join(c[0] for c in channels if c in _ROTATION_CHANNELS)


# -- parsing ------------------------------------------------------------


def parse_bvh(text: str):
    """Parse a complete BVH document into (Skeleton, MotionClip).

    Every joint must carry exactly 3 rotation channels, one per axis; the
    root may add 3 position channels. The clip comes back in Euler degrees.
    """
    if "\r" in text:  # CRLF line ends; a lone CR stays inside its line
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    toks = [(ln, words) for ln, words in enumerate(map(str.split, lines), 1) if words]
    pos = 0

    def take(expect=None, n=0):
        """The next line's number and words: the first word must be `expect`, and
        with `n` there must be exactly n words."""
        nonlocal pos
        if pos >= len(toks):
            raise ParseError("unexpected end of file", line=len(lines))
        ln, words = toks[pos]
        if expect is not None and words[0] != expect:
            raise ParseError(f"expected {expect!r}, found {words[0]!r}", line=ln)
        if n and len(words) != n:
            raise ParseError(f"expected {n} word(s) on the {expect!r} line, found "
                             f"{' '.join(words)!r}", line=ln)
        pos += 1
        return ln, words

    def take_offset():
        ln, words = take("OFFSET")
        if len(words) != 4:
            raise ParseError("OFFSET needs 3 values", line=ln)
        values = _floats(words[1:], ln)
        if not all(map(math.isfinite, values)):
            raise ParseError("non-finite value", line=ln)
        return np.array(values)

    take("HIERARCHY", 1)
    joints: list = []
    end_sites: dict = {}
    open_joints: list = []  # indices of the joints whose braces are open, innermost last
    while True:  # one joint declaration per pass, then its body up to the next JOINT
        ln, words = take()
        if words[0] not in ("ROOT", "JOINT") or len(words) != 2:
            raise ParseError(f"expected ROOT/JOINT declaration, found {' '.join(words)!r}", line=ln)
        name = words[1]
        parent = open_joints[-1] if open_joints else None
        take("{", 1)
        offset = take_offset()
        ln, words = take("CHANNELS")
        try:
            n = int(words[1])
        except (IndexError, ValueError):
            raise ParseError("CHANNELS needs a count", line=ln)
        channels = words[2:]
        if len(channels) != n:
            raise ParseError(f"CHANNELS count {n} but {len(channels)} labels", line=ln)
        bad = [c for c in channels if c not in _CHANNELS]
        if bad:
            raise ParseError(f"unknown channel labels {bad}", line=ln)
        order = _rotation_order(channels)
        if len(order) != 3:
            raise ParseError(f"joint {name!r} must have exactly 3 rotation channels", line=ln)
        if len(set(order)) != 3:
            raise ParseError(f"joint {name!r} repeats a rotation axis", line=ln)
        n_pos = n - len(order)
        if n_pos not in (0, 3) or (n_pos == 3 and parent is not None):
            raise ParseError(f"position channels only allowed on the root (joint {name!r})", line=ln)
        open_joints.append(len(joints))
        joints.append(BvhJoint(name, parent, offset, channels))
        while open_joints:
            ln, words = toks[pos] if pos < len(toks) else (len(lines), ["<eof>"])
            if words[0] == "JOINT":
                break
            if words[0] == "End":
                if words != ["End", "Site"]:
                    raise ParseError(f"expected 'End Site', found {' '.join(words)!r}", line=ln)
                take("End")
                take("{", 1)
                end_sites[open_joints[-1]] = take_offset()
                take("}", 1)
            elif words[0] == "}":
                take("}", 1)
                open_joints.pop()
            else:
                raise ParseError(f"unexpected token {words[0]!r} in hierarchy", line=ln)
        if not open_joints:
            break
    skeleton = Skeleton(joints, end_sites)

    take("MOTION", 1)
    ln, words = take("Frames:", 2)
    try:
        n_frames = int(words[1])
    except ValueError:
        raise ParseError("Frames: needs an integer", line=ln)
    if n_frames < 1:
        raise ParseError(f"Frames: must be at least 1, got {n_frames}", line=ln)
    ln, words = take("Frame", 3)
    if words[1] != "Time:":
        raise ParseError("expected 'Frame Time:'", line=ln)
    frame_time = _floats(words[2:3], ln)[0]
    if not 0 < frame_time < math.inf:
        raise ParseError(f"frame time must be finite and positive, got {words[2]}", line=ln)

    # Errors keep the order of a frame-by-frame read: a frame's value count,
    # then its numbers, then a missing frame; non-finite values and trailing
    # content are checked once the frames are read.
    n_channels = sum(len(j.channels) for j in joints)
    rows = toks[pos:pos + n_frames]
    pos += len(rows)
    counted = next((f for f, (_, words) in enumerate(rows) if len(words) != n_channels), len(rows))
    data = _motion(rows[:counted], n_channels)
    if counted < len(rows):
        ln, words = rows[counted]
        raise ParseError(f"frame has {len(words)} values, expected {n_channels}", line=ln)
    if len(rows) < n_frames:
        raise ParseError(f"expected {n_frames} frames, found {len(rows)}", line=len(lines))
    _finite(data, [ln for ln, _ in rows])
    if pos < len(toks):
        raise ParseError(f"trailing content after {n_frames} frames", line=toks[pos][0])

    pos_cols, pos_axes, rot_cols = _channel_columns(joints)
    root_translation = np.zeros((n_frames, 3))
    root_translation[:, pos_axes] = data[:, pos_cols]
    rotations = data[:, rot_cols].reshape(n_frames, len(joints), 3)
    clip = MotionClip(1.0 / frame_time, root_translation, rotations, skeleton.layout())
    return skeleton, clip


def read_bvh(path):
    """`parse_bvh` of the file at `path`; a ParseError names the file."""
    text = read_text(path)
    try:
        return parse_bvh(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e


def bvh_paths(directory) -> list:
    """The `*.bvh` files in `directory`, in name order (none if it does not exist)."""
    return sorted(Path(directory).glob("*.bvh"))


def read_bvh_dir(directory) -> list:
    """(name, skeleton, clip) for each of `bvh_paths(directory)`; a DataError if there is none."""
    files = bvh_paths(directory)
    if not files:
        raise DataError(f"no BVH clips found in {directory}")
    return [(p.stem, *read_bvh(p)) for p in files]


def _channel_columns(joints):
    """Map motion-data columns to the clip: (position columns, their XYZ
    axes, rotation columns). The rotation columns map in order onto
    `rotations.reshape(F, 3 * J)`."""
    channels = [ch for j in joints for ch in j.channels]
    pos_cols = [c for c, ch in enumerate(channels) if ch in _POSITION_CHANNELS]
    rot_cols = [c for c, ch in enumerate(channels) if ch in _ROTATION_CHANNELS]
    return pos_cols, ["XYZ".index(channels[c][0]) for c in pos_cols], rot_cols


def _floats(words, ln):
    """`float` of each word, or a ParseError at line `ln` naming the first non-number."""
    try:
        return [float(w) for w in words]
    except ValueError as e:
        raise ParseError(f"non-numeric value: {e}", line=ln)


def _motion(rows, width):
    """The len(rows) x width array of `rows`, (line, words) pairs of `width`
    words each, converted in one pass; a non-number is a ParseError at its line."""
    try:
        values = np.fromiter(map(float, chain.from_iterable(words for _, words in rows)),
                             np.float64, len(rows) * width)
    except ValueError:
        for ln, words in rows:
            _floats(words, ln)
        raise
    return values.reshape(len(rows), width)


def _finite(values, lines):
    """`values`, whose row i was read from line `lines[i]`, or a ParseError at
    the first of those lines that holds a NaN or an infinity."""
    finite = np.isfinite(values)
    if not finite.all():
        row = finite.reshape(len(lines), -1).all(axis=1).argmin()
        raise ParseError("non-finite value", line=lines[row])
    return values


# -- writing ------------------------------------------------------------


def write_bvh(skeleton: Skeleton, clip: MotionClip) -> str:
    """Emit HIERARCHY + MOTION text (6 decimals, LF line endings)."""
    if clip.rotations.shape[2] != 3:
        raise ShapeError("write_bvh requires an Euler-degrees clip; convert rotation matrices first")
    if clip.layout.joint_count != len(skeleton.joints):
        raise ShapeError(f"clip has {clip.layout.joint_count} joints, skeleton {len(skeleton.joints)}")

    children: dict = {i: [] for i in range(len(skeleton.joints))}
    for i, j in enumerate(skeleton.joints):
        if j.parent is not None:
            children[j.parent].append(i)

    out = ["HIERARCHY"]
    todo = [(0, 0)]  # (joint index, depth) still to open, or the text that closes a joint
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        idx, depth = item
        j = skeleton.joints[idx]
        pad = "  " * depth
        inner = pad + "  "
        out.append(f"{pad}{'ROOT' if j.parent is None else 'JOINT'} {j.name}")
        out.append(pad + "{")
        out.append(f"{inner}OFFSET {_fmt(j.offset)}")
        out.append(f"{inner}CHANNELS {len(j.channels)} {' '.join(j.channels)}")
        close = [pad + "}"]
        if idx in skeleton.end_sites:
            close = [f"{inner}End Site", inner + "{",
                     f"{inner}  OFFSET {_fmt(skeleton.end_sites[idx])}", inner + "}", *close]
        todo.append("\n".join(close))
        todo.extend((c, depth + 1) for c in reversed(children[idx]))

    out.append("MOTION")
    out.append(f"Frames: {clip.frames}")
    # extra header precision keeps fps stable under parse/write cycles
    out.append(f"Frame Time: {1.0 / clip.fps:.12f}")
    pos_cols, pos_axes, rot_cols = _channel_columns(skeleton.joints)
    data = np.empty((clip.frames, len(pos_cols) + len(rot_cols)))
    data[:, pos_cols] = clip.root_translation[:, pos_axes]
    data[:, rot_cols] = clip.rotations.reshape(clip.frames, -1)
    row = " ".join(["%.6f"] * data.shape[1])
    out.extend(row % tuple(values) for values in data.tolist())
    return "\n".join(out) + "\n"


def _fmt(values):
    """`values` as floats with 6 decimals, space-separated; "%.6f" writes
    the same text as f"{v:.6f}"."""
    values = [float(v) for v in values]
    return " ".join(["%.6f"] * len(values)) % tuple(values)


# -- representation conversion -----------------------------------------


def clip_to_rotmat(clip: MotionClip) -> MotionClip:
    """Euler-degrees clip -> flattened 3x3 rotation matrices per joint."""
    if clip.rotations.shape[2] == 9:
        return clip
    return _per_order(clip, 9, euler_to_rotmat)


def clip_to_euler(clip: MotionClip) -> MotionClip:
    """Rotation-matrix clip -> Euler degrees; each block must already be a rotation
    (`features_to_clip` snaps them)."""
    if clip.rotations.shape[2] == 3:
        return clip
    return _per_order(clip, 3, lambda m, order: rotmat_to_euler(m.reshape(*m.shape[:2], 3, 3), order))


def _per_order(clip: MotionClip, width: int, convert) -> MotionClip:
    """`clip` with rotations of `width` per joint: one `convert(rotations, order)`
    call per distinct rotation order, over the joints of that order."""
    F, orders = clip.frames, clip.layout.orders
    rot = np.zeros((F, len(orders), width))
    for order in dict.fromkeys(orders):  # first-seen order: a set's order would vary
        joints = [ji for ji, o in enumerate(orders) if o == order]
        rot[:, joints] = convert(clip.rotations[:, joints], order).reshape(F, len(joints), width)
    return MotionClip(clip.fps, clip.root_translation.copy(), rot, clip.layout)


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


# -- flat feature vectors ----------------------------------------------


def clip_to_features(clip: MotionClip) -> np.ndarray:
    """Clip -> F x (3 + 9J): translation then row-major rotation-matrix blocks."""
    rm = clip_to_rotmat(clip)
    F = rm.frames
    return np.concatenate([rm.root_translation, rm.rotations.reshape(F, -1)], axis=1)


def features_to_clip(features: np.ndarray, fps: float, layout: JointLayout) -> MotionClip:
    """Inverse of `clip_to_features`, with each block snapped onto SO(3)."""
    features = np.asarray(features, dtype=np.float64)
    J = layout.joint_count
    if features.ndim != 2 or features.shape[1] != 3 + 9 * J:
        raise ShapeError(f"features {features.shape} do not match {J}-joint layout")
    F = features.shape[0]
    rot = nearest_rotation(features[:, 3:].reshape(F, J, 3, 3)).reshape(F, J, 9)
    return MotionClip(fps, features[:, :3].copy(), rot, layout)
