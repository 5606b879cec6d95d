"""Forward kinematics on the 35-joint rig.

Builds the canonical skeleton, poses it with random per-bone rotations, and
shows the invariants the rest of the toolkit leans on: identity transforms
reproduce the rest pose, and bone lengths survive rigid motion untouched.
"""
import numpy as np

from courtpose import (BoneTransforms, Frame, Skeleton, bone_lengths,
                       forward_kinematics, rest_pose)
from courtpose.transforms import axis_angle_to_matrix

skeleton = Skeleton.canonical()
print(f"canonical rig: {skeleton.num_joints} joints, root = {skeleton.joint_names[0]}")

rest = rest_pose(skeleton)
print(f"rest pose: head at y={rest.positions[skeleton.index('head')][1]:.2f} m, "
      f"toes at y={rest.positions[skeleton.index('toe_l')][1]:.2f} m")

rng = np.random.default_rng(0)
rots = axis_angle_to_matrix(rng.normal(scale=0.15, size=(skeleton.num_joints, 3)))
posed = forward_kinematics(skeleton, BoneTransforms(rots, np.zeros((skeleton.num_joints, 3))))
print(f"random pose: pelvis stays at {posed.positions[0]}, "
      f"wrist_r moved to {np.round(posed.positions[skeleton.index('wrist_r')], 3)}")

edges = skeleton.bone_edges()
L_rest = bone_lengths(rest, edges)
L_posed = bone_lengths(posed, edges)
print(f"bone lengths preserved by rotations: max |diff| = "
      f"{np.abs(L_rest - L_posed).max():.2e} m over {len(edges)} bones")

world = forward_kinematics(skeleton, BoneTransforms(rots, np.zeros((skeleton.num_joints, 3))),
                           frame=Frame.WORLD)
print(f"world-frame output matches root-relative here (root at origin): "
      f"{np.abs(world.positions - posed.positions).max():.1e}")
