"""BVH motion I/O: write, parse, convert, resample, segment.

Motion clips carry per-joint Euler channels in degrees; rotation-matrix
and flat-feature views are derived, and temporal ops use pure index
arithmetic so they are easy to verify.
"""
import numpy as np

from gesturegen import bvh
from gesturegen.synthetic import chain_skeleton

rng = np.random.default_rng(0)

print("== build a clip on a 4-joint chain and round-trip it ==")
skel = chain_skeleton(4)
layout = skel.layout()
clip = bvh.MotionClip(120.0, rng.normal(0, 1, (120, 3)),
                      rng.uniform(-60, 60, (120, 4, 3)), layout)
text = bvh.write_bvh(skel, clip)
print("\n".join(text.splitlines()[:6]) + "\n...")
skel2, clip2 = bvh.parse_bvh(text)
print(f"round-trip max angle error: "
      f"{np.abs(clip.rotations - clip2.rotations).max():.2e} degrees")

print("\n== rotation-matrix view and gimbal lock ==")
rm = bvh.clip_to_rotmat(clip)
print(f"euler {clip.rotations.shape} -> rotmat {rm.rotations.shape}")
back = bvh.clip_to_euler(rm)
print(f"euler->rotmat->euler matrix error: "
      f"{np.abs(bvh.clip_to_rotmat(back).rotations - rm.rotations).max():.2e}")

print("\n== 120 Hz -> 30 Hz decimation and segmentation ==")
down = bvh.resample(clip, 30.0)
print(f"{clip.frames} frames @120Hz -> {down.frames} frames @{down.fps:g}Hz "
      f"(keeps every 4th frame: {np.array_equal(down.rotations, clip.rotations[::4])})")
segments = bvh.segment_clips(down, length=10, stride=10)
print(f"segmented into {len(segments)} windows of 10 frames")

print("\n== flat feature vectors (what the model trains on) ==")
feats = bvh.clip_to_features(clip)
print(f"features per frame: 3 translation + 9 x {layout.joint_count} rotation "
      f"= {feats.shape[1]}")
recon = bvh.features_to_clip(feats, clip.fps, layout)
print(f"inverse max error: "
      f"{np.abs(recon.rotations - rm.rotations).max():.2e}")
