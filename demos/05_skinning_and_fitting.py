"""Classical skinning: heat-diffusion weights, LBS, keypoint fitting.

A two-bone capsule gets its weights from steady-state heat diffusion on the
voxelized interior, bends under linear blend skinning, and a perturbed
6-joint chain is fitted back onto target keypoints with damped Gauss-Newton,
from a given start and from the closed-form swing-IK start.
"""
import numpy as np

from courtpose import (BodyMesh, BoneTransforms, Frame, Skeleton,
                       fit_pose_to_keypoints, forward_kinematics,
                       heat_diffusion_weights, lbs, swing_ik)
from courtpose.primitives import capsule
from courtpose.transforms import axis_angle_to_matrix

sk = Skeleton(["root", "mid", "tip"], [-1, 0, 1],
              [[0, 0, 0], [0, 0.3, 0], [0, 0.3, 0]])
body = BodyMesh((capsule((0, 0, 0), (0, 0.6, 0), 0.07, part="arms",
                         n_seg=12, shaft_rings=6),))
rest = forward_kinematics(sk, BoneTransforms.identity(3), frame=Frame.WORLD)

weights = heat_diffusion_weights(body, sk, rest, voxel_res=24)
W = weights.W
print(f"heat weights: {W.shape}, rows sum to 1 within "
      f"{np.abs(W.sum(axis=1) - 1).max():.1e}")
print(f"bottom vertices favor the lower bone: w={np.round(W[2], 3)}")

bend = BoneTransforms(
    np.stack([np.eye(3), axis_angle_to_matrix([0.0, 0.0, np.deg2rad(40)]), np.eye(3)]),
    np.zeros((3, 3)))
posed = lbs(body, weights, bend, sk)
tip = posed.merged()[0][:, 0].max()
print(f"bending the middle joint 40 degrees swings the capsule sideways: "
      f"max x = {tip:.3f} m (rest: {body.merged()[0][:, 0].max():.3f})")

# fitting: recover a 6-joint chain from its keypoints after a 5-degree shake
sk6 = Skeleton([f"j{i}" for i in range(6)], [-1, 0, 1, 2, 3, 4],
               [[0, 0, 0]] + [[0, 0.25, 0]] * 5)
rng = np.random.default_rng(0)
true = axis_angle_to_matrix(rng.normal(scale=0.15, size=(6, 3)))
target = forward_kinematics(sk6, BoneTransforms(true, np.zeros((6, 3))))
shaken = np.stack([
    axis_angle_to_matrix(rng.normal(scale=np.deg2rad(5) / np.sqrt(3), size=3)) @ R
    for R in true])
fitted, info = fit_pose_to_keypoints(sk6, target,
                                     init=BoneTransforms(shaken, np.zeros((6, 3))))
print(f"fit from a 5-degree-per-joint perturbation: max joint residual "
      f"{info['joint_residuals'].max() * 1000:.3f} mm "
      f"in {len(info['cost_history']) - 1} iterations")

# without an init, the fit starts from the closed-form swing IK, which
# already reaches the keypoints; the solve then only polishes the twist
start = swing_ik(sk6, target)
reached = forward_kinematics(sk6, start).positions
_, info = fit_pose_to_keypoints(sk6, target)
print(f"swing-IK start reaches the keypoints to "
      f"{np.abs(reached - target.positions).max():.1e} m; the fit from it: "
      f"{info['joint_residuals'].max() * 1000:.3f} mm in "
      f"{len(info['cost_history']) - 1} iterations, stop {info['stop']!r}")
