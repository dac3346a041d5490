"""Rotation conversions and BVH parsing/writing/temporal ops."""
import numpy as np
import pytest

from gesturegen import bvh, rotations as rot
from gesturegen.errors import GeometryError, ParseError, ShapeError
from gesturegen.synthetic import chain_skeleton

ORDERS = ["XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"]


# -- rotations ----------------------------------------------------------


@pytest.mark.parametrize("order", ORDERS)
def test_euler_roundtrip_all_orders(order, rng):
    for _ in range(20):
        angles = rng.uniform(-170, 170, 3)
        r = rot.euler_to_rotmat(angles, order)
        back = rot.euler_to_rotmat(rot.rotmat_to_euler(r, order), order)
        assert np.abs(r - back).max() < 1e-9


def test_euler_composition_convention():
    # channels compose in file order: for ZXY, R = Ry @ Rx @ Rz
    az, ax, ay = 30.0, 40.0, 50.0
    want = (rot._axis_matrix("Y", np.deg2rad(ay))
            @ rot._axis_matrix("X", np.deg2rad(ax))
            @ rot._axis_matrix("Z", np.deg2rad(az)))
    got = rot.euler_to_rotmat([az, ax, ay], "ZXY")
    assert np.abs(want - got).max() < 1e-12


def test_rotmat_is_orthonormal(rng):
    r = rot.euler_to_rotmat(rng.uniform(-180, 180, 3), "XYZ")
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_gimbal_lock_zeroes_third_angle():
    # middle axis at 90 degrees: the decomposition is degenerate; the
    # returned angles must still reproduce the matrix, third angle 0
    r = rot.euler_to_rotmat([25.0, 90.0, 40.0], "ZXY")
    angles = rot.rotmat_to_euler(r, "ZXY")
    assert angles[2] == pytest.approx(0.0, abs=1e-9)
    assert np.abs(rot.euler_to_rotmat(angles, "ZXY") - r).max() < 1e-9


def test_rotmat_to_euler_rejects_non_rotation():
    with pytest.raises(GeometryError):
        rot.rotmat_to_euler(np.eye(3) * 2.0, "XYZ")
    with pytest.raises(GeometryError):
        rot.rotmat_to_euler(-np.eye(3), "XYZ")  # det -1


def test_nearest_rotation_projects(rng):
    m = rot.euler_to_rotmat(rng.uniform(-90, 90, 3), "ZXY") + rng.normal(0, 0.05, (3, 3))
    r = rot.nearest_rotation(m)
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
    assert np.linalg.det(r) > 0
    # projection of an exact rotation is the identity map
    exact = rot.euler_to_rotmat([10, 20, 30], "XYZ")
    assert np.abs(rot.nearest_rotation(exact) - exact).max() < 1e-12


@pytest.mark.parametrize("order", ORDERS)
def test_stacked_kernels_equal_per_matrix_calls(order, rng):
    angles = rng.uniform(-180, 180, (6, 4, 3))
    mats = rot.euler_to_rotmat(angles, order)
    assert mats.shape == (6, 4, 3, 3)
    assert np.array_equal(mats, [[rot.euler_to_rotmat(a, order) for a in row] for row in angles])
    noisy = mats + rng.normal(0, 0.05, mats.shape)
    snapped = rot.nearest_rotation(noisy)
    assert np.array_equal(snapped, [[rot.nearest_rotation(m) for m in row] for row in noisy])
    back = rot.rotmat_to_euler(snapped, order)
    assert back.shape == (6, 4, 3)
    assert np.array_equal(back, [[rot.rotmat_to_euler(m, order) for m in row] for row in snapped])


def test_nearest_rotation_stack_with_reflection():
    exact = rot.euler_to_rotmat([10, 20, 30], "XYZ")
    reflected = exact @ np.diag([1.0, 1.0, -1.0])  # det -1
    out = rot.nearest_rotation(np.stack([reflected, exact]))
    assert np.allclose(np.linalg.det(out), 1.0)
    assert np.abs(np.swapaxes(out, -1, -2) @ out - np.eye(3)).max() < 1e-12
    assert np.abs(out[1] - exact).max() < 1e-12
    assert np.array_equal(out[0], rot.nearest_rotation(reflected))


def test_rotmat_to_euler_rejects_one_bad_matrix_in_stack(rng):
    mats = rot.euler_to_rotmat(rng.uniform(-90, 90, (5, 3)), "ZXY")
    mats[3] = mats[3] * 1.01
    with pytest.raises(GeometryError):
        rot.rotmat_to_euler(mats, "ZXY")
    mats[3] = -rot.euler_to_rotmat([1, 2, 3], "ZXY")  # orthonormal, det -1
    with pytest.raises(GeometryError):
        rot.rotmat_to_euler(mats, "ZXY")


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        rot.euler_to_rotmat([0, 0, 0], "XXY")


# -- BVH corpus round trips ---------------------------------------------


def _random_clip(rng, joints=3, frames=5, fps=30.0, with_translation=True):
    skel = chain_skeleton(joints)
    layout = bvh.JointLayout(skel.joint_names(), skel.rotation_orders())
    trans = rng.normal(0, 1, (frames, 3)) if with_translation else np.zeros((frames, 3))
    angles = rng.uniform(-90, 90, (frames, joints, 3))
    return skel, bvh.MotionClip(fps, trans, angles, layout)


@pytest.mark.parametrize("joints,frames", [(1, 3), (2, 5), (4, 8), (8, 10), (6, 2)])
def test_write_parse_roundtrip(joints, frames, rng):
    skel, clip = _random_clip(rng, joints, frames)
    text = bvh.write_bvh(skel, clip)
    skel2, clip2 = bvh.parse_bvh(text)
    assert skel2.joint_names() == skel.joint_names()
    assert np.abs(clip2.rotations - clip.rotations).max() < 1e-6
    assert np.abs(clip2.root_translation - clip.root_translation).max() < 1e-6
    assert abs(clip2.fps - clip.fps) < 1e-6
    # second round trip is byte-stable (values already quantized)
    assert bvh.write_bvh(skel2, clip2) == text


def test_roundtrip_interleaved_root_channels(rng):
    skel, clip = _random_clip(rng, 3, 4)
    skel.joints[0].channels = ["Zrotation", "Xposition", "Yrotation",
                               "Yposition", "Xrotation", "Zposition"]
    text = bvh.write_bvh(skel, clip)
    first = text.split("Frame Time:")[1].splitlines()[1].split()
    want = [clip.rotations[0, 0, 0], clip.root_translation[0, 0], clip.rotations[0, 0, 1],
            clip.root_translation[0, 1], clip.rotations[0, 0, 2], clip.root_translation[0, 2]]
    assert first[:6] == [f"{v:.6f}" for v in want]
    skel2, clip2 = bvh.parse_bvh(text)
    assert skel2.joints[0].channels == skel.joints[0].channels
    assert clip2.layout.orders == ["ZYX", "ZXY", "ZXY"]
    assert np.abs(clip2.rotations - clip.rotations).max() < 1e-6
    assert np.abs(clip2.root_translation - clip.root_translation).max() < 1e-6
    assert bvh.write_bvh(*bvh.parse_bvh(text)) == text


def test_parse_real_corpus_files(toy_corpus):
    for path in sorted(toy_corpus.glob("*.bvh"))[:4]:
        text = path.read_text()
        skel, clip = bvh.parse_bvh(text)
        assert bvh.write_bvh(skel, clip) == text


def test_parse_errors_carry_line_numbers():
    skel, clip = _random_clip(np.random.default_rng(0), 2, 3)
    text = bvh.write_bvh(skel, clip)
    lines = text.splitlines()

    with pytest.raises(ParseError) as e:
        bvh.parse_bvh("MOTION\n")
    assert e.value.line == 1

    # corrupt one motion value
    bad = lines.copy()
    frame_line = next(i for i, l in enumerate(bad) if l.startswith("Frame Time"))
    bad[frame_line + 1] = bad[frame_line + 1].replace(".", "x", 1)
    with pytest.raises(ParseError) as e:
        bvh.parse_bvh("\n".join(bad) + "\n")
    assert e.value.line == frame_line + 2

    # trailing junk
    with pytest.raises(ParseError) as e:
        bvh.parse_bvh(text + "0.0 0.0\n")
    assert "trailing" in str(e.value)

    # a frame count below 1, even with motion lines following
    frames_line = next(i for i, l in enumerate(lines) if l.startswith("Frames:"))
    for count in (0, -1):
        bad = lines.copy()
        bad[frames_line] = f"Frames: {count}"
        with pytest.raises(ParseError) as e:
            bvh.parse_bvh("\n".join(bad) + "\n")
        assert e.value.line == frames_line + 1

    # wrong channel count on a joint
    broken = text.replace("CHANNELS 3 Zrotation Xrotation Yrotation",
                          "CHANNELS 2 Zrotation Xrotation", 1)
    with pytest.raises(ParseError):
        bvh.parse_bvh(broken)


def test_parse_rejects_repeated_rotation_axis():
    skel, clip = _random_clip(np.random.default_rng(0), 2, 3)
    lines = bvh.write_bvh(skel, clip).splitlines()
    at = [i for i, l in enumerate(lines) if "CHANNELS" in l][1]
    lines[at] = lines[at].split("CHANNELS")[0] + "CHANNELS 3 Xrotation Xrotation Yrotation"
    with pytest.raises(ParseError, match="repeats a rotation axis") as e:
        bvh.parse_bvh("\n".join(lines) + "\n")
    assert e.value.line == at + 1


def test_parse_frame_count_mismatch():
    skel, clip = _random_clip(np.random.default_rng(0), 2, 4)
    text = bvh.write_bvh(skel, clip)
    with pytest.raises(ParseError) as e:
        bvh.parse_bvh(text.replace("Frames: 4", "Frames: 9"))
    assert "expected 9 frames" in str(e.value)


# -- representation conversion ------------------------------------------


def test_rotmat_roundtrip(rng):
    _, clip = _random_clip(rng, 3, 4)
    rm = bvh.clip_to_rotmat(clip)
    assert rm.rotations.shape == (4, 3, 9)
    back = bvh.clip_to_euler(rm)
    r1 = bvh.clip_to_rotmat(back)
    assert np.abs(rm.rotations - r1.rotations).max() < 1e-9


def test_rotmat_roundtrip_mixed_orders(rng):
    orders = ["XYZ", "YZX", "ZYX", "XZY"]
    layout = bvh.JointLayout([f"j{i}" for i in range(4)], orders)
    angles = rng.uniform(-80, 80, (7, 4, 3))
    clip = bvh.MotionClip(30.0, rng.normal(0, 1, (7, 3)), angles, layout)
    rm = bvh.clip_to_rotmat(clip)
    for j, order in enumerate(orders):
        assert np.array_equal(rm.rotations[:, j].reshape(7, 3, 3),
                              rot.euler_to_rotmat(angles[:, j], order))
    for orthonormalize in (False, True):
        back = bvh.clip_to_euler(rm, orthonormalize=orthonormalize)
        assert back.layout.orders == orders
        assert np.abs(back.rotations - angles).max() < 1e-9


def test_clip_to_euler_orthonormalize_flag(rng):
    _, clip = _random_clip(rng, 2, 3)
    rm = bvh.clip_to_rotmat(clip)
    noisy = rm.rotations + rng.normal(0, 1e-4, rm.rotations.shape)
    noisy_clip = bvh.MotionClip(rm.fps, rm.root_translation, noisy, rm.layout)
    with pytest.raises(GeometryError):
        bvh.clip_to_euler(noisy_clip, orthonormalize=False)
    fixed = bvh.clip_to_euler(noisy_clip, orthonormalize=True)
    assert np.abs(fixed.rotations - clip.rotations).max() < 0.1  # degrees


def test_write_rejects_rotmat_clip(rng):
    skel, clip = _random_clip(rng, 2, 3)
    with pytest.raises(ShapeError):
        bvh.write_bvh(skel, bvh.clip_to_rotmat(clip))


# -- temporal ops -------------------------------------------------------


def test_resample_index_oracle(rng):
    _, clip = _random_clip(rng, 2, 41, fps=120.0)
    down = bvh.resample(clip, 30.0)
    assert down.fps == 30.0
    assert np.array_equal(down.rotations, clip.rotations[::4])
    assert np.array_equal(down.root_translation, clip.root_translation[::4])
    with pytest.raises(ValueError):
        bvh.resample(clip, 50.0)  # non-integer ratio
    with pytest.raises(ValueError):
        bvh.resample(clip, 240.0)  # would upsample


def test_segment_index_oracle(rng):
    _, clip = _random_clip(rng, 2, 10)
    segs = bvh.segment_clips(clip, length=4, stride=3)
    starts = [0, 3, 6]
    assert len(segs) == len(starts)
    for s, start in zip(segs, starts):
        assert np.array_equal(s.rotations, clip.rotations[start:start + 4])
    assert bvh.segment_clips(clip, length=11, stride=1) == []
    with pytest.raises(ValueError):
        bvh.segment_clips(clip, 0, 1)


def test_select_joints_and_subset_file(rng):
    _, clip = _random_clip(rng, 4, 3)
    sub = bvh.load_joint_subset("translation\nroot\njoint2  # comment\n", clip.layout)
    assert sub.indices == [0, 1, 3]
    picked = bvh.select_joints(clip, sub)
    assert picked.layout.names == ["root", "joint2"]
    assert np.array_equal(picked.rotations, clip.rotations[:, [0, 2]])
    assert np.array_equal(picked.root_translation, clip.root_translation)

    no_trans = bvh.select_joints(clip, bvh.JointSubset("x", [2]))
    assert np.array_equal(no_trans.root_translation, np.zeros((3, 3)))

    with pytest.raises(ParseError) as e:
        bvh.load_joint_subset("root\nnope\n", clip.layout)
    assert e.value.line == 2
    with pytest.raises(ValueError):
        bvh.JointSubset("bad", [2, 1])
    with pytest.raises(ValueError):
        bvh.JointSubset("empty", [])
    with pytest.raises(ValueError):
        bvh.select_joints(clip, bvh.JointSubset("t-only", [0]))


# -- feature vectors ----------------------------------------------------


def test_features_roundtrip(rng):
    _, clip = _random_clip(rng, 3, 5)
    feats = bvh.clip_to_features(clip)
    assert feats.shape == (5, 3 + 9 * 3)
    back = bvh.features_to_clip(feats, clip.fps, clip.layout)
    assert np.abs(back.rotations - bvh.clip_to_rotmat(clip).rotations).max() < 1e-9
    assert np.array_equal(back.root_translation, clip.root_translation)
    with pytest.raises(ShapeError):
        bvh.features_to_clip(feats[:, :-1], clip.fps, clip.layout)


def test_motion_clip_invariants(rng):
    layout = bvh.JointLayout(["a"], ["ZXY"])
    with pytest.raises(ShapeError):
        bvh.MotionClip(0.0, np.zeros((2, 3)), np.zeros((2, 1, 3)), layout)
    with pytest.raises(ShapeError):
        bvh.MotionClip(30.0, np.zeros((3, 3)), np.zeros((2, 1, 3)), layout)
    with pytest.raises(ShapeError):
        bvh.MotionClip(30.0, np.zeros((2, 3)), np.zeros((2, 2, 3)), layout)


def test_skeleton_invariants():
    j = lambda name, parent: bvh.BvhJoint(name, parent, np.zeros(3),
                                          ["Zrotation", "Xrotation", "Yrotation"])
    with pytest.raises(ShapeError):
        bvh.Skeleton([j("a", None), j("b", None)])  # two roots
    with pytest.raises(ShapeError):
        bvh.Skeleton([j("a", None), j("b", 2), j("c", 0)])  # forward reference
