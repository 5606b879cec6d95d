import json

import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.model import (BoneTransforms, Frame, Pose2D, Pose3D, Skeleton,
                             bone_lengths, fk_global, forward_kinematics,
                             lsp14_indices, pose3d_from_json, pose3d_to_json,
                             rest_pose, skeleton_from_json, skeleton_to_json,
                             transforms_from_json, transforms_to_json)
from courtpose.transforms import axis_angle_to_matrix
from helpers import random_rotation


def chain_skeleton(offsets):
    n = len(offsets)
    return Skeleton([f"j{i}" for i in range(n)], [-1] + list(range(n - 1)), offsets)


def test_canonical_skeleton_is_35_joint_tree():
    s = Skeleton.canonical()
    assert s.num_joints == 35
    assert s.parent[0] == -1
    assert len(set(s.joint_names)) == 35
    assert lsp14_indices(s).shape == (14,)


def test_identity_transforms_give_rest_pose_cumulative_offsets():
    offs = [[0, 0, 0], [0, 0.2, 0], [0.1, 0.2, 0], [0, 0.3, 0.05]]
    sk = chain_skeleton(offs)
    pose = forward_kinematics(sk, BoneTransforms.identity(4))
    expect = np.cumsum(np.asarray(offs, dtype=float), axis=0)
    assert np.allclose(pose.positions, expect, atol=1e-15)


def test_rest_pose_equals_identity_forward_kinematics():
    sk = Skeleton.canonical()
    for frame in (Frame.ROOT_RELATIVE, Frame.WORLD):
        fk = forward_kinematics(sk, BoneTransforms.identity(sk.num_joints), frame=frame)
        pose = rest_pose(sk, frame)
        assert pose.frame is frame
        assert np.array_equal(pose.positions, fk.positions)


def test_root_translation_equivariance():
    sk = chain_skeleton([[0, 0, 0], [0, 0.2, 0], [0.1, 0.2, 0]])
    t = np.array([1.0, -2.0, 0.5])
    bt = BoneTransforms.identity(3)
    moved = BoneTransforms(bt.rotations, np.vstack([t, np.zeros((2, 3))]))
    rr = forward_kinematics(sk, moved)  # root relative unchanged
    assert np.allclose(rr.positions, forward_kinematics(sk, bt).positions)
    world = forward_kinematics(sk, moved, frame=Frame.WORLD)
    base = forward_kinematics(sk, bt, frame=Frame.WORLD)
    assert np.allclose(world.positions, base.positions + t)


def test_fk_matches_homogeneous_matrix_oracle():
    """4-joint chain with random rotations vs explicit 4x4 products."""
    rng = np.random.default_rng(7)
    offs = rng.normal(scale=0.3, size=(4, 3))
    offs[0] = 0
    sk = chain_skeleton(offs.tolist())
    rots = np.stack([random_rotation(rng) for _ in range(4)])
    trans = rng.normal(scale=0.1, size=(4, 3))
    bt = BoneTransforms(rots, trans)

    G = np.eye(4)
    expect = []
    for j in range(4):
        L = np.eye(4)
        L[:3, :3] = rots[j]
        L[:3, 3] = offs[j] + trans[j]
        G = G @ L
        expect.append(G[:3, 3].copy())
    expect = np.asarray(expect)

    world = forward_kinematics(sk, bt, frame=Frame.WORLD)
    assert np.abs(world.positions - expect).max() < 1e-9
    rr = forward_kinematics(sk, bt)
    assert np.abs(rr.positions - (expect - expect[0])).max() < 1e-9


def test_fk_rigid_equivariance_through_root():
    rng = np.random.default_rng(3)
    offs = np.vstack([np.zeros(3), rng.normal(scale=0.2, size=(4, 3))])
    sk = chain_skeleton(offs.tolist())
    rots = np.stack([random_rotation(rng) for _ in range(5)])
    bt = BoneTransforms(rots, np.zeros((5, 3)))
    base = forward_kinematics(sk, bt, frame=Frame.WORLD)

    g = random_rotation(rng)
    gt = rng.normal(size=3)
    rots2 = rots.copy()
    rots2[0] = g @ rots[0]
    trans2 = np.zeros((5, 3))
    trans2[0] = gt
    moved = forward_kinematics(sk, BoneTransforms(rots2, trans2), frame=Frame.WORLD)
    assert np.abs(moved.positions - (base.positions @ g.T + gt)).max() < 1e-12


def test_fk_errors():
    sk = chain_skeleton([[0, 0, 0], [0, 1, 0]])
    with pytest.raises(ValidationError):
        forward_kinematics(sk, BoneTransforms.identity(3))
    bad = BoneTransforms.identity(2)
    object.__setattr__(bad, "rotations", bad.rotations.copy())
    bad.rotations[1, 0, 0] = 1.0 + 1e-4  # bypass the constructor check
    with pytest.raises(ValidationError):
        forward_kinematics(sk, bad)


def test_bone_transforms_validate_orthonormality():
    R = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
    R[1, 0, 1] = 1e-7
    with pytest.raises(ValidationError):
        BoneTransforms(R, np.zeros((2, 3)))


def test_rotation_checks_name_the_first_bad_joint():
    R = np.stack([random_rotation(np.random.default_rng(j)) for j in range(9)])
    R[4] *= 1.0 + 1e-6
    R[6] *= 1.0 + 1e-3
    with pytest.raises(ValidationError, match=r"^rotation 4 not orthonormal within 1e-9"):
        BoneTransforms(R, np.zeros((9, 3)))
    R[4] = R[6] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValidationError, match=r"^rotation 4 .*\(defect nan\)"):
        BoneTransforms(R, np.zeros((9, 3)))


def test_fk_global_checks_every_joint_at_1e_6():
    sk = chain_skeleton([[0, 0, 0]] + [[0, 0.1, 0]] * 8)
    bt = BoneTransforms.identity(9)
    object.__setattr__(bt, "rotations", bt.rotations.copy())
    bt.rotations[5, 0, 0] = 1.0 + 2e-7  # bypass the constructor check
    fk_global(sk, bt)
    bt.rotations[3, 1, 1] = 1.0 + 2e-6
    bt.rotations[7, 1, 1] = 1.0 + 2e-6
    with pytest.raises(ValidationError, match=r"^rotation 3 not orthonormal within 1e-6"):
        fk_global(sk, bt)


def test_bone_lengths_basic_and_invariance():
    pose = Pose3D(np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.3, 0.5, 0.0]]))
    L = bone_lengths(pose, [(0, 1), (1, 2)])
    assert np.allclose(L, [0.5, 0.3])

    rng = np.random.default_rng(11)
    pts = rng.normal(size=(8, 3))
    pts[0] = 0
    pose = Pose3D(pts)
    edges = [(i, (i + 3) % 8) for i in range(8)]
    L0 = bone_lengths(pose, edges)
    R = random_rotation(rng)
    t = rng.normal(size=3)
    moved = Pose3D(pts @ R.T + t, frame=Frame.WORLD)
    L1 = bone_lengths(moved, edges)
    assert np.abs(L1 - L0).max() <= 1e-12 * max(1.0, np.abs(L0).max())

    # direct per-edge norm oracle
    oracle = np.array([np.linalg.norm(pts[i] - pts[j]) for i, j in edges])
    assert np.array_equal(L0, oracle)


def test_bone_lengths_index_validation():
    pose = Pose3D(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        bone_lengths(pose, [(0, 5)])


def test_pose3d_root_relative_invariant():
    with pytest.raises(ValidationError):
        Pose3D(np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_pose2d_shapes():
    with pytest.raises(ValidationError):
        Pose2D(np.zeros((3, 2)), np.zeros(2, dtype=bool))


def test_json_round_trips():
    s = Skeleton.canonical()
    assert skeleton_from_json(skeleton_to_json(s)).joint_names == s.joint_names

    rng = np.random.default_rng(0)
    pose = rest_pose(s)
    d = json.loads(json.dumps(pose3d_to_json(pose)))
    back = pose3d_from_json(d)
    assert np.allclose(back.positions, pose.positions)
    assert back.frame is Frame.ROOT_RELATIVE

    rots = np.stack([random_rotation(rng) for _ in range(s.num_joints)])
    bt = BoneTransforms(rots, rng.normal(size=(s.num_joints, 3)))
    back = transforms_from_json(json.loads(json.dumps(transforms_to_json(bt))))
    assert np.allclose(back.rotations, bt.rotations)
    assert np.allclose(back.translations, bt.translations)


def shuffled_tree(rng, n):
    """Random tree rooted at 0 whose other joints get shuffled indices, so
    some children sit at a lower index than their parent."""
    label = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    parent = np.empty(n, dtype=int)
    parent[0] = -1
    for k in range(1, n):  # the k-th joint attached hangs below an earlier one
        parent[label[k]] = label[rng.integers(0, k)]
    offs = rng.normal(scale=0.3, size=(n, 3))
    return Skeleton([f"j{i}" for i in range(n)], parent, offs)


def per_joint_fk(sk, rotations, translations):
    """Oracle: compose each joint once its parent is placed, one joint at a time."""
    J = sk.num_joints
    R_glob = np.full((J, 3, 3), np.nan)
    pos = np.full((J, 3), np.nan)
    placed = np.zeros(J, dtype=bool)
    while not placed.all():
        for j in range(J):
            p = sk.parent[j]
            if placed[j] or (p >= 0 and not placed[p]):
                continue
            local_t = sk.rest_offsets[j] + translations[j]
            if p < 0:
                R_glob[j], pos[j] = rotations[j], local_t
            else:
                R_glob[j] = R_glob[p] @ rotations[j]
                pos[j] = R_glob[p] @ local_t + pos[p]
            placed[j] = True
    return R_glob, pos


@pytest.mark.parametrize("seed", range(6))
def test_fk_matches_per_joint_oracle_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 36))
    sk = shuffled_tree(rng, n)
    assert (sk.parent[1:] > np.arange(1, n)).any()
    bt = BoneTransforms(np.stack([random_rotation(rng) for _ in range(n)]),
                        rng.normal(scale=0.1, size=(n, 3)))
    R_or, pos_or = per_joint_fk(sk, bt.rotations, bt.translations)
    R_glob, pos = fk_global(sk, bt)
    assert np.abs(R_glob - R_or).max() < 1e-12
    assert np.abs(pos - pos_or).max() < 1e-12
    world = forward_kinematics(sk, bt, frame=Frame.WORLD)
    assert np.abs(world.positions - pos_or).max() < 1e-12
    rr = forward_kinematics(sk, bt)
    assert np.abs(rr.positions - (pos_or - pos_or[0])).max() < 1e-12


@pytest.mark.parametrize("parent", [
    [-1, 2, 1],          # two joints that are each other's parent
    [-1, 1],             # a joint that is its own parent
    [-1, 3, 1, 2],       # a three-joint cycle hanging off nothing
    [-1, 0, 5],          # parent index past the last joint
    [-1, 0, -2],         # a second negative parent
    [0, -1, 0],          # root not at index 0
])
def test_bad_parent_arrays_rejected(parent):
    with pytest.raises(ValidationError):
        Skeleton([f"j{i}" for i in range(len(parent))], parent, np.zeros((len(parent), 3)))
