"""Heatmap / location-map codec round trip.

A 2D pose in the 256x256 crop becomes a stack of 64x64 Gaussians of one
fixed width (``posemaps.SIGMA`` cells), each centred at its joint's sub-cell
position; the 3D pose rides along in XYZ location maps written on the
support of that same stack, so the Gaussians are computed once. Decoding
takes the argmax cell and fits, per axis, the parabola that the log of a
Gaussian of known width is through the cells around it, so the 2D pose
comes back up to rounding (1e-12 px), and the 3D values, and the bone
lengths measured on them, come back exactly.
"""
import numpy as np

from courtpose import (JumpInfo, Pose2D, Pose3D, PoseMapTargets, bone_lengths,
                       decode_heatmaps, decode_location_maps, encode_heatmaps,
                       encode_location_maps, posemaps)

rng = np.random.default_rng(1)
pixels = rng.uniform(0, 256, size=(35, 2))
positions = rng.normal(scale=0.5, size=(35, 3))
positions[0] = 0.0

pose2d = Pose2D(pixels, np.ones(35, dtype=bool))
pose3d = Pose3D(positions)

heat = encode_heatmaps(pose2d)
loc = encode_location_maps(pose3d, heat)
targets = PoseMapTargets(heat, loc, JumpInfo.from_height(0.35))
print(f"heatmaps: {heat.values.shape}, sigma {posemaps.SIGMA} cells, "
      f"peak value {heat.values.max():.1f}")
print(f"location maps: {loc.values.shape}; jump {targets.jump}")

dec2 = decode_heatmaps(targets.heatmaps)
dec3 = decode_location_maps(targets.location_maps, targets.heatmaps)
print(f"2D round trip: max error {np.abs(dec2.pixels - pixels).max():.1e} px (bound: 1e-12)")
print(f"3D round trip: max error {np.abs(dec3.positions - positions).max():.1e} m")

edges = [(i, i + 1) for i in range(6)]
err = np.abs(bone_lengths(dec3, edges) - bone_lengths(pose3d, edges)).max()
print(f"decoded bone lengths: max error {err:.1e} m")

print("jump class strictly above 0.1 m:",
      {h: JumpInfo.from_height(h).airborne for h in (0.05, 0.1, 0.15)})
