import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.ndimage import binary_erosion, binary_fill_holes, label

from courtpose import blas, skinning
from courtpose.errors import ValidationError
from courtpose.mesh import BodyMesh
from courtpose.model import (BoneTransforms, Frame, Pose3D, Skeleton, fk_global,
                             forward_kinematics)
from courtpose.primitives import capsule
from courtpose.lsq import lm_solve
from courtpose.skinning import (MAX_INFLUENCES, KeypointObjective,
                                SkinningWeights, _fill_holes, _nearest_bone,
                                _sample_fields, _swing_rows, _voxelize, _VoxelGrid,
                                bone_sources, fit_pose_to_keypoints,
                                heat_diffusion_weights, lbs, so3_right_jacobian,
                                swing_ik, weights_from_json)
from courtpose.synth import (SceneConfig, build_rest_body, canonical_body,
                             random_pose_transforms)
from courtpose.transforms import axis_angle_to_matrix, matrix_to_axis_angle
from helpers import random_rotation, weights_to_json


def chain(n, step=0.3):
    return Skeleton([f"j{i}" for i in range(n)], [-1] + list(range(n - 1)),
                    [[0, 0, 0]] + [[0, step, 0]] * (n - 1))


def world_rest(sk):
    return forward_kinematics(sk, BoneTransforms.identity(sk.num_joints),
                              frame=Frame.WORLD)


def test_single_bone_capsule_full_weight():
    sk = chain(2, 0.4)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms"),))
    w = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=20)
    assert np.allclose(w.W[:, 0], 1.0)
    assert np.abs(w.W.sum(axis=1) - 1.0).max() < 1e-6


def test_two_bone_capsule_nearer_bone_dominates():
    sk = chain(3, 0.3)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.6, 0), 0.07, part="arms",
                             n_seg=12, shaft_rings=6),))
    rest = world_rest(sk)
    w = heat_diffusion_weights(body, sk, rest, voxel_res=24)
    assert np.abs(w.W.sum(axis=1) - 1.0).max() < 1e-6
    assert np.all(w.W >= 0)
    assert np.abs(w.W[:, 2]).max() == 0.0  # leaf joint has no heat source

    # interior-distance oracle on this straight capsule: closeness to the
    # bone segments orders the weights
    V = body.merged()[0]

    def seg_dist(p, a, b):
        ab = b - a
        t = np.clip((p - a) @ ab / (ab @ ab), 0, 1)
        return np.linalg.norm(p - (a + t * ab))

    a0, a1 = rest.positions[0], rest.positions[1]
    b0, b1 = rest.positions[1], rest.positions[2]
    for vi in range(0, len(V), 7):
        d0 = seg_dist(V[vi], a0, a1)
        d1 = seg_dist(V[vi], b0, b1)
        if d0 < d1 - 1e-9:
            assert w.W[vi, 0] >= w.W[vi, 1] - 1e-12
        elif d1 < d0 - 1e-9:
            assert w.W[vi, 1] >= w.W[vi, 0] - 1e-12


def test_heat_weights_deterministic():
    sk = chain(3, 0.3)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.6, 0), 0.07, part="arms"),))
    w1 = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=16)
    w2 = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=16)
    assert np.array_equal(w1.W, w2.W)


def test_heat_weights_top4_pruning():
    sk = chain(8, 0.12)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.84, 0), 0.06, part="arms",
                             n_seg=10, shaft_rings=8),))
    w = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=24)
    nonzeros = (w.W > 0).sum(axis=1)
    assert nonzeros.max() <= 4
    assert np.abs(w.W.sum(axis=1) - 1.0).max() < 1e-6


def test_source_free_pocket_snaps_to_nearest_bone():
    # a capsule detached from the body holds no bone voxel, so no heat
    # reaches it; its vertices take the bone nearest to them, j1 -> j2
    sk = chain(3, 0.3)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.6, 0), 0.05, part="arms"),
                     capsule((0.3, 0.5, 0), (0.3, 0.7, 0), 0.05, part="legs")))
    w = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=24)
    pocket = w.W[body.total_vertices - body.part("legs").num_vertices:]
    assert len(pocket) == 82
    assert np.array_equal(pocket, np.tile([0.0, 1.0, 0.0], (82, 1)))
    assert np.abs(w.W.sum(axis=1) - 1.0).max() < 1e-6


def test_bone_outside_volume_error():
    # the only bone runs from (3,0,0) to (5,0,0), far outside the capsule
    sk = Skeleton(["root", "far"], [-1, 0], [[3.0, 0, 0], [2.0, 0, 0]])
    body = BodyMesh((capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms"),))
    with pytest.raises(ValidationError):
        heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=12)


@pytest.mark.parametrize("res", [0, -3])
def test_heat_weights_reject_a_voxel_resolution_below_one(res):
    sk = chain(2, 0.4)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms"),))
    with pytest.raises(ValidationError, match=f"voxel_res must be at least 1, got {res}"):
        heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=res)


def test_non_finite_vertex_never_reaches_heat_diffusion():
    # the voxel grid cannot size itself around a NaN vertex: the mesh refuses it
    arm = capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms")
    verts = arm.vertices.copy()
    verts[0, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        arm.with_vertices(verts)


def test_weights_json_round_trip():
    W = np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]])
    w = SkinningWeights(W)
    back = weights_from_json(json.loads(json.dumps(weights_to_json(w))))
    assert np.array_equal(back.W, W)


def test_weights_validation():
    with pytest.raises(ValidationError):
        SkinningWeights(np.array([[0.5, 0.1]]))
    with pytest.raises(ValidationError):
        SkinningWeights(np.array([[-0.1, 1.1]]))
    with pytest.raises(ValidationError):
        SkinningWeights(np.array([[np.nan, 1.0]]))


def test_lbs_identity_is_exact():
    sk = chain(3, 0.3)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.6, 0), 0.07, part="arms"),))
    w = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=16)
    posed = lbs(body, w, BoneTransforms.identity(3), sk)
    assert np.abs(posed.merged()[0] - body.merged()[0]).max() <= 1e-12


def test_lbs_single_bone_rigid_equivariance():
    sk = chain(2, 0.4)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms"),))
    w = SkinningWeights(np.column_stack([np.ones(body.total_vertices),
                                         np.zeros(body.total_vertices)]))
    rng = np.random.default_rng(0)
    g = random_rotation(rng)
    t = rng.normal(size=3)
    bt = BoneTransforms(np.stack([g, np.eye(3)]), np.vstack([t, np.zeros(3)]))
    posed = lbs(body, w, bt, sk)
    expect = body.merged()[0] @ g.T + t
    assert np.abs(posed.merged()[0] - expect).max() < 1e-12


def test_lbs_blend_of_translations_is_average():
    sk = Skeleton(["root", "a", "b"], [-1, 0, 0],
                  [[0, 0, 0], [0.2, 0, 0], [-0.2, 0, 0]])
    body = BodyMesh((capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms"),))
    n = body.total_vertices
    w = SkinningWeights(np.column_stack([np.zeros(n), np.full(n, 0.5), np.full(n, 0.5)]))
    t1 = np.array([0.1, 0.0, 0.0])
    t2 = np.array([0.0, 0.2, -0.1])
    bt = BoneTransforms(np.broadcast_to(np.eye(3), (3, 3, 3)).copy(),
                        np.vstack([np.zeros(3), t1, t2]))
    posed = lbs(body, w, bt, sk)
    expect = body.merged()[0] + (t1 + t2) / 2.0
    assert np.abs(posed.merged()[0] - expect).max() < 1e-12


def lbs_joint_loop(rest, weights, transforms, skeleton):
    """The per-joint loop the stacked product replaced: one matmul per joint
    with a nonzero weight column, accumulated in joint order."""
    verts, _ = rest.merged()
    R_glob, p_posed = fk_global(skeleton, transforms)
    out = np.zeros_like(verts)
    for j in range(skeleton.num_joints):
        w = weights.W[:, j]
        if not np.any(w):
            continue
        t_j = p_posed[j] - R_glob[j] @ skeleton._rest_world[j]
        out += w[:, None] * (verts @ R_glob[j].T + t_j)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_lbs_matches_joint_loop_on_canonical_body(seed):
    sk, rest, weights = canonical_body(SceneConfig().voxel_res)
    rng = np.random.default_rng(seed)
    bt = random_pose_transforms(sk, rng)
    if seed % 2:  # with a root translation
        bt = BoneTransforms(bt.rotations, np.vstack([rng.normal(size=3),
                                                     np.zeros((sk.num_joints - 1, 3))]))
    got = lbs(rest, weights, bt, sk).merged()[0]
    want = lbs_joint_loop(rest, weights, bt, sk)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_lbs_matches_joint_loop_with_unweighted_joints():
    # joint 1 carries no weight column at all and is skipped by both
    sk = chain(4, 0.25)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.75, 0), 0.06, part="arms"),))
    W = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=16).W.copy()
    W[:, 2] += W[:, 1]
    W[:, 1] = 0.0
    w = SkinningWeights(W)
    rng = np.random.default_rng(4)
    bt = BoneTransforms(np.stack([random_rotation(rng, 0.4) for _ in range(4)]),
                        rng.normal(size=(4, 3)))
    assert np.array_equal(lbs(body, w, bt, sk).merged()[0],
                          lbs_joint_loop(body, w, bt, sk))


def test_lbs_commutes_with_global_rigid_motion():
    sk = chain(4, 0.25)
    body = BodyMesh((capsule((0, 0, 0), (0, 0.75, 0), 0.06, part="arms"),))
    w = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=16)
    rng = np.random.default_rng(3)
    rots = np.stack([random_rotation(rng, 0.4) for _ in range(4)])
    bt = BoneTransforms(rots, np.zeros((4, 3)))
    base = lbs(body, w, bt, sk).merged()[0]

    g = random_rotation(rng)
    gt = rng.normal(size=3)
    rots2 = rots.copy()
    rots2[0] = g @ rots[0]
    tr2 = np.zeros((4, 3))
    tr2[0] = gt
    moved = lbs(body, w, BoneTransforms(rots2, tr2), sk).merged()[0]
    assert np.abs(moved - (base @ g.T + gt)).max() < 1e-12


def test_fit_fixed_point_at_truth():
    sk = chain(5, 0.25)
    rng = np.random.default_rng(2)
    rots = np.stack([random_rotation(rng, 0.3) for _ in range(5)])
    bt = BoneTransforms(rots, np.zeros((5, 3)))
    target = forward_kinematics(sk, bt)
    # the data rows, the first 3J, vanish at the truth, and so does their
    # gradient: the fit's steps from there are the prior's
    p = matrix_to_axis_angle(rots).ravel()
    r, jac = KeypointObjective(sk, target).residuals(p, jacobian=True)
    assert np.abs(r[:15]).max() < 1e-12
    assert np.abs(jac[:15].T @ r[:15]).max() < 1e-12
    _, info = fit_pose_to_keypoints(sk, target, init=bt)
    assert info["cost_history"][0] == r @ r
    assert info["final_cost"] < r @ r and info["joint_residuals"].max() < 1e-3


def test_fit_recovers_perturbed_chain_within_1mm():
    sk = chain(6, 0.25)
    rng = np.random.default_rng(1)
    rots = np.stack([random_rotation(rng, 0.25) for _ in range(6)])
    target = forward_kinematics(sk, BoneTransforms(rots, np.zeros((6, 3))))
    pert = np.stack([
        axis_angle_to_matrix(rng.normal(scale=np.deg2rad(5) / np.sqrt(3), size=3)) @ R
        for R in rots])
    fitted, info = fit_pose_to_keypoints(
        sk, target, init=BoneTransforms(pert, np.zeros((6, 3))))
    assert info["joint_residuals"].max() < 1e-3
    hist = info["cost_history"]
    assert all(b <= a + 1e-18 for a, b in zip(hist, hist[1:]))


def test_fit_pure_3d_runs_without_camera():
    sk = chain(4, 0.3)
    rng = np.random.default_rng(5)
    rots = np.stack([random_rotation(rng, 0.2) for _ in range(4)])
    target = forward_kinematics(sk, BoneTransforms(rots, np.zeros((4, 3))))
    fitted, info = fit_pose_to_keypoints(sk, target)
    assert info["joint_residuals"].max() < 1e-3


def test_fit_rejects_targets_and_starts_of_another_size():
    sk = Skeleton.canonical()
    small = forward_kinematics(chain(20), BoneTransforms.identity(20))
    with pytest.raises(ValidationError, match="20 joints, skeleton 35"):
        KeypointObjective(sk, small)
    with pytest.raises(ValidationError, match="20 joints, skeleton 35"):
        fit_pose_to_keypoints(sk, small, init=BoneTransforms.identity(35))
    target = forward_kinematics(sk, BoneTransforms.identity(35))
    with pytest.raises(ValidationError, match="init has 10 joints, skeleton 35"):
        fit_pose_to_keypoints(sk, target, init=BoneTransforms.identity(10))


def test_fit_and_swing_ik_reject_a_world_frame_target():
    # the fit has no root translation: a world-frame body is the fitted
    # root-relative body moved by the placement offset
    sk = chain(4)
    world = forward_kinematics(sk, BoneTransforms.identity(4), frame=Frame.WORLD)
    for fit in (KeypointObjective, fit_pose_to_keypoints, swing_ik):
        with pytest.raises(ValidationError, match="root-relative target, not world"):
            fit(sk, world)


def test_fit_solves_on_one_blas_thread(monkeypatch):
    controls = blas._controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this numpy build")

    def counts():
        return [get() for get, _ in controls]

    before = counts()
    seen = []
    solve = np.linalg.solve

    def spy(a, b):
        seen.append(counts())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    sk = chain(4, 0.3)
    rng = np.random.default_rng(7)
    rots = np.stack([random_rotation(rng, 0.2) for _ in range(4)])
    fit_pose_to_keypoints(sk, forward_kinematics(sk, BoneTransforms(rots, np.zeros((4, 3)))))
    assert seen and all(c == [1] * len(controls) for c in seen)
    assert counts() == before


def random_tree(rng, n):
    parent = [-1] + [int(rng.integers(0, j)) for j in range(1, n)]
    return Skeleton([f"j{i}" for i in range(n)], parent,
                    [[0, 0, 0]] + rng.normal(scale=0.25, size=(n - 1, 3)).tolist())


def finite_difference_jacobian(obj, params, h=1e-6):
    cols = []
    for k in range(len(params)):
        dp = np.zeros(len(params))
        dp[k] = h
        cols.append((obj.residuals(params + dp) - obj.residuals(params - dp)) / (2 * h))
    return np.stack(cols, axis=1)


def test_so3_right_jacobian_matches_exp_map():
    rng = np.random.default_rng(3)
    for scale in (1e-5, 1e-3, 0.5, 2.0):
        w = rng.normal(scale=scale, size=3)
        Jr = so3_right_jacobian(w)[0]
        R = axis_angle_to_matrix(w)
        h = 1e-7
        for k in range(3):
            d = np.zeros(3)
            d[k] = h
            # R^T dR/dw_k = [J_r e_k]x
            D = R.T @ (axis_angle_to_matrix(w + d) - axis_angle_to_matrix(w - d)) / (2 * h)
            v = np.array([D[2, 1], D[0, 2], D[1, 0]])
            assert np.abs(v - Jr[:, k]).max() < 1e-6


@pytest.mark.parametrize("frame", [Frame.ROOT_RELATIVE])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analytic_jacobian_matches_central_differences_3d(frame, seed):
    rng = np.random.default_rng(seed)
    sk = random_tree(rng, 9)
    target = Pose3D(np.vstack([np.zeros(3), rng.normal(size=(8, 3))]), frame)
    obj = KeypointObjective(sk, target)
    p = rng.normal(scale=0.7, size=obj.num_params)
    r, Jm = obj.residuals(p, jacobian=True)
    assert np.array_equal(r, obj.residuals(p))
    Jfd = finite_difference_jacobian(obj, p)
    assert np.abs(Jm - Jfd).max() < 1e-6 * max(1.0, np.abs(Jfd).max())


@pytest.mark.parametrize("frame", [Frame.ROOT_RELATIVE])
def test_objective_matches_forward_kinematics_on_unordered_tree(frame):
    # children 1, 2 and 4 sit at a lower index than their parent
    sk = Skeleton([f"j{i}" for i in range(6)], [-1, 3, 5, 0, 5, 3],
                  [[0, 0, 0], [0.1, 0.2, 0], [0, 0.3, 0.1], [0.2, 0.1, 0],
                   [-0.1, 0.2, 0.1], [0, 0.25, -0.1]])
    rng = np.random.default_rng(8)
    target = Pose3D(np.vstack([np.zeros(3), rng.normal(size=(5, 3))]), frame)
    obj = KeypointObjective(sk, target)
    p = rng.normal(scale=0.7, size=obj.num_params)
    pose = forward_kinematics(sk, obj.transforms(p), frame=frame)
    r, Jm = obj.residuals(p, jacobian=True)
    # the data rows, the first 3J, then the prior's
    assert np.abs(r[:18] - (pose.positions - target.positions).ravel()).max() < 1e-12
    assert np.array_equal(r[18:], np.sqrt(skinning.WPRIOR) * p)
    Jfd = finite_difference_jacobian(obj, p)
    assert np.abs(Jm - Jfd).max() < 1e-6 * max(1.0, np.abs(Jfd).max())


# ---------------------------------------------------------------------------
# The swing-IK start
# ---------------------------------------------------------------------------

def posed_target(sk, rng, max_angle, frame=Frame.ROOT_RELATIVE):
    J = sk.num_joints
    rots = np.stack([random_rotation(rng, max_angle) for _ in range(J)])
    return forward_kinematics(sk, BoneTransforms(rots, np.zeros((J, 3))), frame=frame)


def assert_reaches(sk, target, tol=1e-12):
    start = swing_ik(sk, target)
    reached = forward_kinematics(sk, start, frame=target.frame)
    assert np.abs(reached.positions - target.positions).max() < tol
    return start


@pytest.mark.parametrize("frame", [Frame.ROOT_RELATIVE])
def test_swing_ik_reaches_canonical_targets(frame):
    sk = Skeleton.canonical()
    rng = np.random.default_rng(11)
    # bends of any angle up to pi, so many joints bend past 90 degrees
    for max_angle in (0.3, 1.5, np.pi):
        for _ in range(5):
            assert_reaches(sk, posed_target(sk, rng, max_angle, frame))
    # a knee folded to 170 degrees and an elbow to 120 degrees
    rots = np.broadcast_to(np.eye(3), (sk.num_joints, 3, 3)).copy()
    rots[sk.index("knee_l")] = axis_angle_to_matrix([np.deg2rad(170), 0, 0])
    rots[sk.index("elbow_r")] = axis_angle_to_matrix([0, np.deg2rad(120), 0])
    assert_reaches(sk, forward_kinematics(
        sk, BoneTransforms(rots, np.zeros((sk.num_joints, 3))), frame=frame))


@pytest.mark.parametrize("frame", [Frame.ROOT_RELATIVE])
@pytest.mark.parametrize("seed", range(4))
def test_swing_ik_reaches_targets_on_small_chains_and_trees(frame, seed):
    rng = np.random.default_rng(seed)
    for sk in (chain(2), chain(5, 0.2), random_tree(rng, 6), random_tree(rng, 12)):
        assert_reaches(sk, posed_target(sk, rng, 2.5, frame))


def test_swing_ik_turns_single_bones_without_twist():
    sk = Skeleton.canonical()
    target = posed_target(sk, np.random.default_rng(3), 1.0)
    start = assert_reaches(sk, target)
    for j in range(sk.num_joints):
        kids = sk.children(j)
        if len(kids) == 1:
            # the minimal rotation turns about an axis normal to the bone
            aa = matrix_to_axis_angle(start.rotations[j])
            assert abs(aa @ sk.rest_offsets[kids[0]]) < 1e-12
        elif not kids:
            assert np.array_equal(start.rotations[j], np.eye(3))


def test_swing_ik_antiparallel_bone_turns_by_pi():
    sk = chain(3, 0.3)
    flip = axis_angle_to_matrix([0.0, 0.0, np.pi])
    target = forward_kinematics(sk, BoneTransforms(np.stack([flip, np.eye(3), np.eye(3)]),
                                                   np.zeros((3, 3))))
    start = assert_reaches(sk, target)
    aa = matrix_to_axis_angle(start.rotations[0])
    assert abs(np.linalg.norm(aa) - np.pi) < 1e-12
    assert abs(aa @ sk.rest_offsets[1]) < 1e-12
    # generic directions, exactly and nearly opposite, in one batch
    rng = np.random.default_rng(5)
    A, B = [], []
    for _ in range(20):
        a = rng.normal(size=3)
        for b in (-2.0 * a, -a + 1e-13 * rng.normal(size=3), -a + 1e-8 * rng.normal(size=3)):
            A.append(a)
            B.append(b)
    A, B = np.array(A), np.array(B)
    R = _swing_rows(A, B)
    # a few units of rounding, however close to pi
    eps = np.finfo(float).eps
    Ra = (R @ A[:, :, None])[:, :, 0] / np.linalg.norm(A, axis=1)[:, None]
    assert np.abs(Ra - B / np.linalg.norm(B, axis=1)[:, None]).max() < 8 * eps
    assert np.abs(R @ R.transpose(0, 2, 1) - np.eye(3)).max() < 16 * eps


def test_swing_ik_zero_length_bones_keep_the_identity():
    # joint 1 sits on the root, so the root has no bone to turn
    sk = Skeleton(["a", "b", "c"], [-1, 0, 1], [[0, 0, 0], [0, 0, 0], [0, 0.3, 0]])
    start = assert_reaches(sk, posed_target(sk, np.random.default_rng(2), 1.0))
    assert np.array_equal(start.rotations[0], np.eye(3))
    # a target bone of zero length leaves its joint at the identity
    sk = chain(3, 0.3)
    target = Pose3D([[0, 0, 0], [0.3, 0, 0], [0.3, 0, 0]])
    start = swing_ik(sk, target)
    assert np.array_equal(start.rotations[1], np.eye(3))
    assert np.abs(forward_kinematics(sk, start).positions[1] - target.positions[1]).max() < 1e-15


@pytest.mark.parametrize("offsets", [
    [[0, 0.2, 0], [0, 0.35, 0]],      # same direction
    [[0.1, 0.1, 0], [-0.2, -0.2, 0]],  # opposite directions
])
def test_swing_ik_collinear_children_take_the_minimal_rotation(offsets):
    sk = Skeleton(["r", "j", "a", "b"], [-1, 0, 1, 1],
                  [[0, 0, 0], [0, 0.3, 0]] + offsets)
    rng = np.random.default_rng(4)
    for _ in range(10):
        start = assert_reaches(sk, posed_target(sk, rng, 2.0))
        aa = matrix_to_axis_angle(start.rotations[1])
        assert abs(aa @ sk.rest_offsets[2]) < 1e-12


def test_swing_ik_rejects_a_target_of_another_size():
    with pytest.raises(ValidationError):
        swing_ik(chain(4), Pose3D(np.zeros((3, 3))))


def zero_start_fit(sk, target):
    """The fit before its swing-IK start: the same solve from zero rotations."""
    obj = KeypointObjective(sk, target)

    def cost(q):
        r = obj.residuals(q)
        return float(r @ r)

    p, rec = lm_solve(lambda q: obj.residuals(q, jacobian=True), cost,
                      np.zeros(obj.num_params), lam=1e-4, lam_min=1e-12, tries=15,
                      max_iters=skinning.FIT_MAX_ITERS, rtol=skinning.FIT_RTOL)
    return obj.transforms(p), rec


@pytest.mark.parametrize("frame", [Frame.ROOT_RELATIVE])
@pytest.mark.parametrize("seed", range(6))
def test_identity_init_is_the_zero_start_and_the_default_start_is_no_worse(monkeypatch,
                                                                          frame, seed):
    rng = np.random.default_rng(seed)
    sk = random_tree(rng, 10)
    target = posed_target(sk, rng, 0.8, frame)
    ref, rec = zero_start_fit(sk, target)
    fitted, info = fit_pose_to_keypoints(sk, target, init=BoneTransforms.identity(10))
    assert info["cost_history"] == rec.cost_history and info["stop"] == rec.stop
    assert np.array_equal(fitted.rotations, ref.rotations)
    assert np.array_equal(fitted.translations, ref.translations)
    _, default = fit_pose_to_keypoints(sk, target)
    assert default["stop"] == "converged"
    assert default["joint_residuals"].max() < 1e-3
    # both starts reach the same minimum: run both solves to a gain of 1e-12
    # in at most 60 iterations, past the pipeline's stopping rule
    monkeypatch.setattr(skinning, "FIT_MAX_ITERS", 60)
    monkeypatch.setattr(skinning, "FIT_RTOL", 1e-12)
    _, info = fit_pose_to_keypoints(sk, target, init=BoneTransforms.identity(10))
    _, default = fit_pose_to_keypoints(sk, target)
    assert default["final_cost"] <= info["final_cost"] + 1e-12


# ---------------------------------------------------------------------------
# Oracles for the heat-diffusion weights: the per-face marking, the
# flood-fill interior and the per-vertex sampling loops that the grid code
# replaced, kept to check it bit for bit
# ---------------------------------------------------------------------------

def oracle_voxelize(verts, faces, res):
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    extent = hi - lo
    h = float(extent.max()) / max(res, 1)
    pad = 2
    dims = tuple(int(np.ceil(e / h)) + 2 * pad for e in extent)
    origin = lo - pad * h
    occ = np.zeros(dims, dtype=bool)

    def mark(points):
        g = np.floor((points - origin) / h).astype(int)
        ok = np.all((g >= 0) & (g < np.array(dims)), axis=1)
        g = g[ok]
        occ[g[:, 0], g[:, 1], g[:, 2]] = True

    mark(verts)
    step = h / 2.0
    for f in faces:
        a, b, c = verts[f]
        n1 = max(2, int(np.ceil(max(np.linalg.norm(b - a), np.linalg.norm(c - a)) / step)) + 1)
        t = np.linspace(0.0, 1.0, n1)
        u, v = np.meshgrid(t, t, indexing="ij")
        keep = (u + v) <= 1.0
        u, v = u[keep], v[keep]
        mark(a + u[:, None] * (b - a) + v[:, None] * (c - a))

    # flood the outside from the grid border; interior = not surface, not outside
    empty, _ = label(~occ)
    border_labels = set()
    for axis in range(3):
        for side in (0, -1):
            sl = [slice(None)] * 3
            sl[axis] = side
            border_labels |= set(np.unique(empty[tuple(sl)]))
    border_labels.discard(0)
    outside = np.isin(empty, sorted(border_labels))
    return occ | ~outside, origin, h, dims


def oracle_segment_voxels(segs, origin, h, dims):
    out = []
    for a, b in segs:
        a = np.asarray(a, float)
        b = np.asarray(b, float)
        n = max(2, int(np.ceil(np.linalg.norm(b - a) / (h / 2.0))) + 1)
        pts = a + np.linspace(0.0, 1.0, n)[:, None] * (b - a)
        g = np.floor((pts - origin) / h).astype(int)
        ok = np.all((g >= 0) & (g < np.array(dims)), axis=1)
        g = g[ok]
        if g.size:
            out.append(np.ravel_multi_index((g[:, 0], g[:, 1], g[:, 2]), dims))
    return np.unique(np.concatenate(out)) if out else np.zeros(0, dtype=int)


def oracle_jacobi(occ, src_per_bone, tol=1e-6, max_iters=100000):
    dims = occ.shape
    flat_idx = np.nonzero(occ.reshape(-1))[0]
    compact = -np.ones(occ.size, dtype=int)
    compact[flat_idx] = np.arange(len(flat_idx))
    coords = np.stack(np.unravel_index(flat_idx, dims), axis=1)
    rows, cols = [], []
    for axis in range(3):
        for d in (-1, 1):
            nb = coords.copy()
            nb[:, axis] += d
            ok = (nb[:, axis] >= 0) & (nb[:, axis] < dims[axis])
            nb_flat = np.ravel_multi_index((nb[ok, 0], nb[ok, 1], nb[ok, 2]), dims)
            nb_compact = compact[nb_flat]
            valid = nb_compact >= 0
            rows.append(np.nonzero(ok)[0][valid])
            cols.append(nb_compact[valid])
    A = sp.csr_matrix((np.ones(sum(len(r) for r in rows)),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(len(flat_idx), len(flat_idx)))
    deg = np.asarray(A.sum(axis=1)).ravel()
    dinv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    B = len(src_per_bone)
    u = np.zeros((len(flat_idx), B))
    pin_rows = np.unique(np.concatenate(src_per_bone))
    pin_vals = np.zeros((len(pin_rows), B))
    row_of = {int(r): i for i, r in enumerate(pin_rows)}
    for b, src in enumerate(src_per_bone):
        for r in src:
            pin_vals[row_of[int(r)], b] = 1.0
    pin_compact = compact[pin_rows]
    u[pin_compact] = pin_vals
    for _ in range(max_iters):
        nxt = (A @ u) * dinv[:, None]
        nxt[pin_compact] = pin_vals
        delta = np.abs(nxt - u).max()
        u = nxt
        if delta < tol:
            return u
    raise AssertionError("oracle heat diffusion did not converge")


def oracle_sample_fields(u, occ, origin, h, dims, verts):
    compact = -np.ones(occ.size, dtype=int)
    compact[np.nonzero(occ.reshape(-1))[0]] = np.arange(u.shape[0])
    out = np.zeros((len(verts), u.shape[1]))
    dims_a = np.array(dims)
    g = (verts - origin) / h - 0.5
    base = np.floor(g).astype(int)
    frac = g - base
    for vi in range(len(verts)):
        acc = np.zeros(u.shape[1])
        wsum = 0.0
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    c = base[vi] + (dx, dy, dz)
                    if np.any(c < 0) or np.any(c >= dims_a):
                        continue
                    ci = compact[np.ravel_multi_index(tuple(c), dims)]
                    if ci < 0:
                        continue
                    w = ((frac[vi, 0] if dx else 1 - frac[vi, 0])
                         * (frac[vi, 1] if dy else 1 - frac[vi, 1])
                         * (frac[vi, 2] if dz else 1 - frac[vi, 2]))
                    acc += w * u[ci]
                    wsum += w
        assert wsum >= 1.0 / 8.0  # the vertex's own, occupied cell
        out[vi] = acc / wsum
    return out


def oracle_nearest_bone(points, seg_lists):
    out = np.zeros(len(points), dtype=int)
    for i, p in enumerate(points):
        best, best_d = 0, np.inf
        for k, segs in enumerate(seg_lists):
            for a, b in segs:
                a, b = np.asarray(a), np.asarray(b)
                ab = b - a
                denom = float(ab @ ab)
                t = 0.0 if denom < 1e-18 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
                d = float(np.linalg.norm(p - (a + t * ab)))
                if d < best_d:
                    best, best_d = k, d
        out[i] = best
    return out


def oracle_heat_weights(mesh, skeleton, rest_pose, voxel_res):
    verts, faces = mesh.merged()
    occ, origin, h, dims = oracle_voxelize(verts, faces, voxel_res)
    segments = bone_sources(skeleton, rest_pose)
    active = [j for j, segs in enumerate(segments) if segs]
    src_per_bone = []
    for j in active:
        vox = oracle_segment_voxels(segments[j], origin, h, dims)
        src_per_bone.append(np.unique(vox[occ.reshape(-1)[vox]]))
    sampled = oracle_sample_fields(oracle_jacobi(occ, src_per_bone), occ, origin, h,
                                   dims, verts)
    W = np.zeros((len(verts), skeleton.num_joints))
    for k, j in enumerate(active):
        W[:, j] = sampled[:, k]
    if W.shape[1] > MAX_INFLUENCES:
        order = np.argsort(W, axis=1)
        W[np.arange(len(W))[:, None], order[:, :-MAX_INFLUENCES]] = 0.0
    sums = W.sum(axis=1)
    dead = sums <= 1e-12
    if dead.any():
        nearest = oracle_nearest_bone(verts[dead], [segments[j] for j in active])
        for row, k in zip(np.nonzero(dead)[0], nearest):
            W[row, :] = 0.0
            W[row, active[k]] = 1.0
        sums = W.sum(axis=1)
    return W / sums[:, None]


def canonical_rest():
    sk = Skeleton.canonical()
    return build_rest_body(sk), sk, world_rest(sk)


TEST_BODIES = {
    "one bone": lambda: (BodyMesh((capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms"),)),
                         chain(2, 0.4)),
    "two bones": lambda: (BodyMesh((capsule((0, 0, 0), (0, 0.6, 0), 0.07, part="arms",
                                            n_seg=12, shaft_rings=6),)), chain(3, 0.3)),
    "seven bones": lambda: (BodyMesh((capsule((0, 0, 0), (0, 0.84, 0), 0.06, part="arms",
                                              n_seg=10, shaft_rings=8),)), chain(8, 0.12)),
    "pocket": lambda: (BodyMesh((capsule((0, 0, 0), (0, 0.6, 0), 0.05, part="arms"),
                                 capsule((0.3, 0.5, 0), (0.3, 0.7, 0), 0.05, part="legs"))),
                       chain(3, 0.3)),
}


@pytest.mark.parametrize("res", [12, 16, 20, 24])
@pytest.mark.parametrize("name", sorted(TEST_BODIES))
def test_heat_weights_match_loop_oracle_on_test_bodies(name, res):
    body, sk = TEST_BODIES[name]()
    got = heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=res).W
    assert np.array_equal(got, oracle_heat_weights(body, sk, world_rest(sk), res))


@pytest.mark.parametrize("res", [16, 22])
def test_heat_weights_match_loop_oracle_on_canonical_body(res):
    body, sk, rest = canonical_rest()
    got = heat_diffusion_weights(body, sk, rest, voxel_res=res).W
    assert np.array_equal(got, oracle_heat_weights(body, sk, rest, res))


@pytest.mark.parametrize("res", [12, 22, 40])
def test_voxelize_matches_face_loop_and_flood_fill(res):
    body, _, _ = canonical_rest()
    verts, faces = body.merged()
    occ, origin, h, dims = oracle_voxelize(verts, faces, res)
    grid = _VoxelGrid(verts, res)
    assert (grid.h, grid.dims) == (h, dims) and np.array_equal(grid.origin, origin)
    assert np.array_equal(_voxelize(grid, verts, faces), occ.reshape(-1))
    assert binary_erosion(occ).any()  # an interior, not just a surface shell


@pytest.mark.parametrize("seed", range(4))
def test_fill_holes_matches_scipy_on_random_grids(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        shape = tuple(rng.integers(1, 12, 3))
        occ = rng.random(shape) < rng.uniform(0.2, 0.8)
        assert np.array_equal(_fill_holes(occ), binary_fill_holes(occ)), shape
    # nested shells: a cavity, a solid core inside it, a cavity in the core
    occ = np.zeros((13, 13, 13), dtype=bool)
    for k, fill in enumerate([True, False, True, False, True]):
        occ[1 + k:12 - k, 1 + k:12 - k, 1 + k:12 - k] = fill
    assert np.array_equal(_fill_holes(occ), binary_fill_holes(occ))
    assert _fill_holes(occ)[1:12, 1:12, 1:12].all()


@pytest.mark.parametrize("res", [12, 16, 22, 40])
def test_voxelize_and_weights_match_binary_fill_holes(monkeypatch, res):
    body, sk, rest = canonical_rest()
    verts, faces = body.merged()
    grid = _VoxelGrid(verts, res)
    occ = _voxelize(grid, verts, faces)
    weights = heat_diffusion_weights(body, sk, rest, voxel_res=res).W
    monkeypatch.setattr(skinning, "_fill_holes", binary_fill_holes)
    assert np.array_equal(occ, _voxelize(grid, verts, faces))
    assert np.array_equal(weights, heat_diffusion_weights(body, sk, rest, voxel_res=res).W)


def test_sample_fields_matches_vertex_loop_with_cells_off_the_grid():
    # points all over the padded grid: near its faces some corners fall off
    # the grid, and inside it some corner cells are empty
    rng = np.random.default_rng(0)
    grid = _VoxelGrid(rng.uniform(0.0, 1.0, size=(20, 3)), 6)
    pts = grid.origin + rng.uniform(0.0, 1.0, size=(400, 3)) * np.array(grid.dims) * grid.h
    occ = rng.random(grid.dims) < 0.6
    occ.reshape(-1)[grid.cells_of(pts)] = True
    u = rng.random((occ.sum(), 3))
    compact = np.full(occ.size + 1, -1)
    compact[np.flatnonzero(occ)] = np.arange(occ.sum())
    got = _sample_fields(grid, u, compact, pts)
    assert np.array_equal(got, oracle_sample_fields(u, occ, grid.origin, grid.h, grid.dims, pts))


def test_nearest_bone_matches_point_loop():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(200, 3))
    seg_lists = [[(rng.normal(size=3), rng.normal(size=3))] for _ in range(3)]
    seg_lists.append([(np.zeros(3), np.zeros(3)), (np.ones(3), -np.ones(3))])
    seg_lists.append([(np.ones(3), -np.ones(3))])  # a tie: bone 3 wins
    got = _nearest_bone(pts, seg_lists)
    assert np.array_equal(got, oracle_nearest_bone(pts, seg_lists))
    assert 3 in got and 4 not in got


def test_skeleton_without_bones_is_rejected():
    sk = Skeleton(["root"], [-1], [[0.0, 0, 0]])
    body = BodyMesh((capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms"),))
    with pytest.raises(ValidationError):
        heat_diffusion_weights(body, sk, world_rest(sk), voxel_res=12)
