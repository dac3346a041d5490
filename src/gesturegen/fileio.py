"""On-disk formats: per-clip feature files (MGFEAT1), model checkpoints
(MGCKPT2), onset/weight lists, and metric reports.

Both binary formats are a small ASCII header followed by raw little-endian
payloads (float32 features, float64 checkpoints), so reloads are bit-exact.
"""
from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ParseError

FEAT_MAGIC = b"MGFEAT1"
CKPT_MAGIC = b"MGCKPT2"


# -- feature files ------------------------------------------------------


def write_features(path, features: np.ndarray, modality: str):
    """Flat binary of little-endian float32 with a 3-line text header."""
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise ValueError(f"feature array must be 2-D, got {features.shape}")
    with open(path, "wb") as f:
        f.write(FEAT_MAGIC + b"\n")
        f.write(f"{features.shape[0]} {features.shape[1]}\n".encode())
        f.write(modality.encode() + b"\n")
        f.write(features.tobytes())


def read_features(path):
    """Returns (features float64 F x d, modality tag)."""
    with open(path, "rb") as f:
        if f.readline().strip() != FEAT_MAGIC:
            raise ParseError(f"{path}: bad feature-file magic", line=1)
        try:
            rows, cols = (int(x) for x in f.readline().split())
        except ValueError:
            raise ParseError(f"{path}: bad shape line", line=2)
        if min(rows, cols) < 0:
            raise ParseError(f"{path}: negative dimension in shape {rows} {cols}", line=2)
        try:
            modality = f.readline().strip().decode()
        except UnicodeDecodeError:
            raise ParseError(f"{path}: modality line is not UTF-8", line=3)
        payload = f.read()
    expected = rows * cols * 4
    if len(payload) != expected:
        raise ParseError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    arr = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: non-finite value in feature row {finite.argmin()}")
    return arr, modality


# -- checkpoints --------------------------------------------------------


def write_checkpoint(path, arrays: dict, config: dict, step: int):
    """Text header (magic, config key=value lines, step), then named
    little-endian float64 arrays: name line, shape line, raw bytes.
    Written to `<path>.tmp`, then moved into place: a failed write keeps the old file."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC + b"\n")
            for k in sorted(config):
                f.write(f"{k}={config[k]}\n".encode())
            f.write(f"step={step}\n".encode())
            f.write(b"--\n")
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name], dtype="<f8")
                f.write(name.encode() + b"\n")
                f.write(" ".join(str(s) for s in arr.shape).encode() + b"\n")
                f.write(arr.tobytes())
                f.write(b"\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path):
    """Returns (arrays name -> read-only float64 ndarray, config dict of strings, step).
    A NaN or infinity in an array is a `ParseError` that names the first such array."""
    try:
        with open(path, "rb") as f:
            if f.readline().strip() != CKPT_MAGIC:
                raise ParseError(f"{path}: bad checkpoint magic", line=1)
            config = {}
            step = 0
            while True:
                line = f.readline()
                if not line:
                    raise ParseError(f"{path}: truncated checkpoint header")
                line = line.strip()
                if line == b"--":
                    break
                key, _, value = line.decode().partition("=")
                if key == "step":
                    step = int(value)
                else:
                    config[key] = value
            arrays = {}
            while True:
                name_line = f.readline()
                if not name_line:
                    break
                name = name_line.strip().decode()
                shape = tuple(int(x) for x in f.readline().split())
                n_bytes = int(np.prod(shape)) * 8
                payload = f.read(n_bytes)
                if len(payload) != n_bytes:
                    raise ParseError(f"{path}: truncated array {name!r}")
                f.read(1)  # trailing newline
                arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape)
                if not np.isfinite(arrays[name]).all():
                    raise ParseError(f"{path}: non-finite value in array {name!r}")
    except ValueError as e:  # from int() of a shape or step, decode() or reshape()
        raise ParseError(f"{path}: {e}") from e
    return arrays, config, step


# -- plain-text files ---------------------------------------------------


def read_text(path) -> str:
    """The file's text, decoded as UTF-8; a ParseError that names the file if it is not."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None


def write_float_lines(path, values):
    Path(path).write_text("".join(f"{v:.9f}\n" for v in values))


def entries(text: str):
    """(line number, entry) for each line of `text` that is not blank once its
    '#' comment is cut and it is stripped."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        entry = raw.split("#", 1)[0].strip()
        if entry:
            yield ln, entry


def read_float_lines(path):
    out = []
    for ln, entry in entries(read_text(path)):
        try:
            value = float(entry)
        except ValueError:
            raise ParseError(f"{path}: non-numeric entry {entry!r}", line=ln)
        if not math.isfinite(value):
            raise ParseError(f"{path}: non-finite entry {entry!r}", line=ln)
        out.append(value)
    return np.array(out)


def write_key_values(path, mapping: dict):
    Path(path).write_text("".join(f"{k}={mapping[k]}\n" for k in mapping))


def read_key_values(path):
    out = {}
    for ln, entry in entries(read_text(path)):
        if "=" not in entry:
            raise ParseError(f"{path}: expected key=value, got {entry!r}", line=ln)
        key, _, value = entry.partition("=")
        out[key.strip()] = value.strip()
    return out


def write_report(path_txt, path_json, report: dict):
    write_key_values(path_txt, report)
    Path(path_json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
