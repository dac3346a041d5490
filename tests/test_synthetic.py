"""Synthetic corpus generation and loading."""
import shutil

import numpy as np
import pytest

from gesturegen import synthetic
from gesturegen.bvh import (JointLayout, MotionClip, clip_to_euler, clip_to_rotmat, read_bvh,
                            write_bvh)
from gesturegen.errors import DataError


def small_spec(**kw):
    base = dict(n_clips=4, frames=40, joints=3, n_styles=2,
                d_audio=10, d_text=4, fps=30.0, seed=0)
    base.update(kw)
    return synthetic.SyntheticSpec(**base)


def test_chain_skeleton_layout(tmp_path):
    sk = synthetic.chain_skeleton(3)
    assert sk.layout() == JointLayout(["root", "joint1", "joint2"], ["ZXY"] * 3)
    assert sk.joints[0].channels[:3] == ["Xposition", "Yposition", "Zposition"]
    assert 2 in sk.end_sites
    synthetic.gen_synthetic_dataset(small_spec(), tmp_path / "d")
    _, clip = read_bvh(tmp_path / "d" / "clip_0000.bvh")
    assert clip.layout == sk.layout()


def test_dataset_files_complete(tmp_path):
    names = synthetic.gen_synthetic_dataset(small_spec(), tmp_path / "d")
    assert names == [f"clip_{i:04d}" for i in range(4)]
    for name in names:
        for suffix in (".bvh", ".audio.feat", ".text.feat", ".labels", ".onsets"):
            assert (tmp_path / "d" / f"{name}{suffix}").is_file(), suffix
    assert (tmp_path / "d" / "dataset.meta").is_file()


def test_generation_refuses_nonempty_dir(tmp_path):
    out = tmp_path / "d"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    with pytest.raises(DataError):
        synthetic.gen_synthetic_dataset(small_spec(), out)


def test_generation_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    synthetic.gen_synthetic_dataset(small_spec(), a)
    synthetic.gen_synthetic_dataset(small_spec(), b)
    for pa in sorted(a.iterdir()):
        assert pa.read_bytes() == (b / pa.name).read_bytes(), pa.name
    shutil.rmtree(b)
    synthetic.gen_synthetic_dataset(small_spec(seed=1), b)
    assert (a / "clip_0000.bvh").read_bytes() != (b / "clip_0000.bvh").read_bytes()


def test_load_dataset_roundtrip(tmp_path):
    spec = small_spec()
    synthetic.gen_synthetic_dataset(spec, tmp_path / "d")
    ds = synthetic.load_dataset(tmp_path / "d")
    assert len(ds.records) == 4
    assert ds.gesture_dim == 3 + 9 * 3
    assert ds.frames == 40
    assert abs(ds.fps - 30.0) < 1e-6
    assert ds.n_styles == 2
    assert "n_clips=4\n" in (tmp_path / "d" / "dataset.meta").read_text()
    r = ds.records[0]
    assert r.audio.shape == (40, 10)
    assert r.text.shape == (40, 4)
    assert r.style_id == 0 and r.emotion_id == 0
    assert r.onsets.size > 0
    # labels cycle style-major
    assert ds.records[1].style_id == 1
    assert ds.records[2].emotion_id == 1


def test_load_dataset_keeps_one_skeleton_but_not_one_channel_order(tmp_path):
    """Clips are paired joint by joint, so their joint names and parents must
    agree (a renamed joint is a CLI exit-code case); x0 is in matrices, so a
    clip may store another Euler order."""
    d = tmp_path / "d"
    synthetic.gen_synthetic_dataset(small_spec(), d)
    x0 = synthetic.load_dataset(d).records[1].x0
    path = d / "clip_0001.bvh"
    skel, clip = read_bvh(path)
    skel.joints[1].channels = ["Xrotation", "Yrotation", "Zrotation"]
    rm = clip_to_rotmat(clip)
    clip = clip_to_euler(MotionClip(rm.fps, rm.root_translation, rm.rotations, skel.layout()))
    path.write_text(write_bvh(skel, clip))
    record = synthetic.load_dataset(d).records[1]
    assert read_bvh(path)[1].layout.orders == ["ZXY", "XYZ", "ZXY"]
    assert np.abs(record.x0 - x0).max() < 1e-6

    skel.joints[2].parent = 0  # same names, joint2 now hangs from the root
    path.write_text(write_bvh(skel, clip))
    with pytest.raises(DataError) as e:
        synthetic.load_dataset(d)
    assert str(path) in str(e.value)


def test_load_dataset_keeps_one_frame_rate(tmp_path):
    """A clip at 60 fps among 30 fps clips would train, and its samples be written at
    30 fps; so it is a DataError that names the clip."""
    d = tmp_path / "d"
    synthetic.gen_synthetic_dataset(small_spec(), d)
    path = d / "clip_0001.bvh"
    text = path.read_text()
    assert "Frame Time: 0.033333333333\n" in text
    path.write_text(text.replace("Frame Time: 0.033333333333", "Frame Time: 0.016666666667"))
    with pytest.raises(DataError) as e:
        synthetic.load_dataset(d)
    assert str(e.value).startswith(f"{path}: frame rate 60 fps differs from the 30 fps of "
                                   "clip_0000.bvh")


def test_load_dataset_requires_clips(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError):
        synthetic.load_dataset(tmp_path / "empty")


def test_emotion_frequency_separates_motion(tmp_path):
    """Clips with different emotion labels move at measurably different
    dominant frequencies."""
    spec = small_spec(n_clips=8, frames=120, n_styles=1)
    synthetic.gen_synthetic_dataset(spec, tmp_path / "d")
    ds = synthetic.load_dataset(tmp_path / "d")

    def dominant_freq(clip):
        sig = clip.rotations[:, 1, 0] - clip.rotations[:, 1, 0].mean()
        spectrum = np.abs(np.fft.rfft(sig))
        freqs = np.fft.rfftfreq(len(sig), d=1.0 / clip.fps)
        return freqs[np.argmax(spectrum)]

    for r in ds.records:
        want = synthetic.emotion_frequency(r.emotion_id)
        _, clip = read_bvh(tmp_path / "d" / f"{r.name}.bvh")
        assert abs(dominant_freq(clip) - want) < 0.3, (r.name, want)


def test_audio_encodes_labels(tmp_path):
    """Style/emotion one-hots enter the audio projection, so mean audio
    features differ across label pairs."""
    spec = small_spec(n_clips=8, n_styles=2)
    synthetic.gen_synthetic_dataset(spec, tmp_path / "d")
    ds = synthetic.load_dataset(tmp_path / "d")
    means = {}
    for r in ds.records:
        means.setdefault((r.style_id, r.emotion_id), []).append(r.audio.mean(axis=0))
    keys = list(means)
    assert len(keys) >= 4
    a, b = np.mean(means[keys[0]], axis=0), np.mean(means[keys[1]], axis=0)
    assert np.abs(a - b).max() > 0.1


def test_onsets_match_detected_beats(tmp_path):
    from gesturegen.metrics import detect_gesture_beats
    synthetic.gen_synthetic_dataset(small_spec(), tmp_path / "d")
    ds = synthetic.load_dataset(tmp_path / "d")
    for r in ds.records:
        _, clip = read_bvh(tmp_path / "d" / f"{r.name}.bvh")
        assert np.allclose(r.onsets, detect_gesture_beats(clip), atol=1e-6)
