"""The batched kernels of the skin fit, of compose and of the location-map
encoder against the loops they replaced. Each loop stays here as the
oracle, and every comparison is exact (``np.array_equal``):

- ``swing_ik``: the per-joint loop, one scalar ``align_one`` per joint,
  and ``_swing_rows``: the scalar swing ``swing_one``, row by row;
- the position Jacobian: the dense masked ``np.cross`` over all joint pairs;
- ``matrix_to_axis_angle`` on a stack: the per-matrix function;
- ``FaceTable.nearest``: one exact pass per cull chunk, and the detector
  that formed its face normals per call;
- ``mesh_edges``: ``np.unique(axis=0)`` of the sorted edge rows;
- ``uniform_laplacian``: per-vertex neighbour sets through a COO matrix;
- ``encode_location_maps``: ``np.where`` over the whole stack.

Each runs on the 36 pipeline scenes (5000-5007, 6000-6007 and 1000-1019),
the skin fit on their root-relative targets, and on small cases with
degenerate rows.
"""
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from courtpose import collision, skinning
from courtpose.collision import COLLISION_BAND, FaceTable, detect_collisions
from courtpose.composer import GARMENT_PAIRS
from courtpose.mesh import PartMesh, face_normals, mesh_edges, uniform_laplacian
from courtpose.model import (BoneTransforms, Pose3D, Skeleton, _fk_levels,
                             forward_kinematics)
from courtpose.posemaps import encode_heatmaps, encode_location_maps
from courtpose.skinning import (COLLINEAR, MIN_BONE, KeypointObjective, _swing_rows,
                                fit_pose_to_keypoints, so3_right_jacobian, swing_ik)
from courtpose.synth import synth_scene
from courtpose.transforms import axis_angle_to_matrix, matrix_to_axis_angle
from helpers import PIPELINE_SEEDS, icosphere, random_rotation


@pytest.fixture(scope="module")
def scenes():
    return [synth_scene(seed) for seed in PIPELINE_SEEDS]


def scene_targets(scenes):
    for b in scenes:
        yield b.skeleton, b.pose_root


# ---------------------------------------------------------------------------
# Skin: swing IK, its axis-angles, the position Jacobian
# ---------------------------------------------------------------------------

def swing_one(a, b):
    """Minimal rotation taking the direction of a onto that of b; for
    opposite directions, pi about an axis perpendicular to a."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    axis = np.cross(a, b)
    angle = np.arctan2(np.linalg.norm(axis), a @ b)
    # drop the rounding along a, which the division below would magnify
    # near pi, so that R a stays on b
    axis -= (axis @ a) * a
    n = np.linalg.norm(axis)
    if n < 1e-15:  # parallel or opposite to within the rounding of a unit vector
        if a @ b > 0:
            return np.eye(3)
        axis = np.cross(a, np.eye(3)[np.argmin(np.abs(a))])
        n, angle = np.linalg.norm(axis), np.pi
    return axis_angle_to_matrix(axis / n * angle)


def align_one(A, D):
    """Rotation R maximising sum_c d_c . R a_c over the rows of A and D,
    skipping pairs shorter than ``MIN_BONE``. Where children are collinear,
    only the rotation of their common axis is fixed, and R is the minimal
    one; the identity when no pair is left."""
    keep = (np.linalg.norm(A, axis=1) > MIN_BONE) & (np.linalg.norm(D, axis=1) > MIN_BONE)
    A, D = A[keep], D[keep]
    if len(A) == 0:
        return np.eye(3)
    if len(A) == 1:
        return swing_one(A[0], D[0])
    U, s, Vt = np.linalg.svd(A.T @ D)
    if s[1] <= COLLINEAR * s[0]:
        return swing_one(U[:, 0], Vt[0])
    # Kabsch: V U^T, with the last axis flipped if that is a reflection
    R = Vt.T @ U.T
    if np.linalg.det(R) < 0:
        R = Vt.T @ np.diag([1.0, 1.0, -1.0]) @ U.T
    return R


def swing_ik_loop(skeleton, target3d):
    """``swing_ik`` one joint at a time, each through ``align_one``."""
    J = skeleton.num_joints
    tgt = target3d.positions
    kids = [[] for _ in range(J)]
    for c in range(1, J):
        kids[skeleton.parent[c]].append(c)
    R_loc = np.broadcast_to(np.eye(3), (J, 3, 3)).copy()
    R_glob = np.empty((J, 3, 3))
    for j in itertools.chain([0], *skeleton._levels):
        R_par = R_glob[skeleton.parent[j]] if j else np.eye(3)
        if kids[j]:
            R_loc[j] = align_one(skeleton.rest_offsets[kids[j]],
                                 (tgt[kids[j]] - tgt[j]) @ R_par)
        R_glob[j] = R_par @ R_loc[j]
    return BoneTransforms(R_loc, np.zeros((J, 3)))


def matrix_to_axis_angle_one(R):
    """``matrix_to_axis_angle`` of a single matrix, as a scalar function."""
    cos = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos)
    if theta < 1e-9:
        return np.zeros(3)
    v = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if np.pi - theta < 1e-6:
        S = (R + R.T) / 2.0 - cos * np.eye(3)
        i = int(np.argmax(np.diag(S)))
        if S[i, i] <= 0:
            return np.zeros(3)
        axis = S[i] / np.linalg.norm(S[i])
        if axis @ v < 0:
            axis = -axis
        return axis * np.arctan2(np.linalg.norm(v) / 2.0, cos)
    return v / (2.0 * np.sin(theta)) * theta


def dense_position_jacobian(skeleton, params):
    """The position Jacobian over all J x J joint pairs, masked to the
    ancestors after the cross products."""
    J = skeleton.num_joints
    om = params.reshape(J, 3)
    R_glob, pos = _fk_levels(skeleton, axis_angle_to_matrix(om), skeleton.rest_offsets)
    ancestor = np.eye(J, dtype=bool)
    for idx in skeleton._levels:
        ancestor[idx] |= ancestor[skeleton.parent[idx]]
    M = R_glob @ so3_right_jacobian(om)
    D = pos[:, None, :] - pos[None, :, :]
    C = np.cross(M.transpose(0, 2, 1)[None], D[:, :, None, :])
    C *= ancestor[:, :, None, None]
    return C.transpose(0, 3, 1, 2).reshape(3 * J, 3 * J)


def start_params(skeleton, target, rng=None):
    """The fit's start, or a random step from it when ``rng`` is given."""
    p = matrix_to_axis_angle(swing_ik(skeleton, target).rotations).ravel()
    if rng is not None:
        p = p + rng.normal(scale=0.3, size=len(p))
    return p


def skeleton(parent, offsets):
    return Skeleton([f"j{i}" for i in range(len(parent))], parent, offsets)


def degenerate_cases():
    """(skeleton, target) pairs with rows at the edges of the swing's
    arithmetic: short, parallel and opposite pairs, collinear children, and
    a joint with one zero-length child beside a real one."""
    rng = np.random.default_rng(0)
    up = [0.0, 0.3, 0.0]
    # a root whose children are all leaves, so level 1 holds leaves only
    star = skeleton([-1, 0, 0, 0], [[0, 0, 0], [0.1, 0, 0], [0, 0.2, 0], [0, 0, 0.3]])
    # 1 -> 2 is a zero-length bone; 3 and 4 are single-child joints that
    # their rotations below turn by pi (antiparallel) and by almost pi
    chain = skeleton([-1, 0, 1, 2, 3, 4, 5],
                     [[0, 0, 0], up, [0, 0, 0], up, [0.2, 0, 0], [0, 0.1, 0], [0, 0, 0.2]])
    # joint 1 has two collinear children, joint 2 one child
    collinear = skeleton([-1, 0, 1, 1, 2],
                         [[0, 0, 0], up, [0, 0.2, 0], [0, -0.35, 0], [0.1, 0.1, 0]])
    # joint 1 has a zero-length child and a real one, which takes its turn
    fork = skeleton([-1, 0, 1, 1, 3], [[0, 0, 0], up, [0, 0, 0], [0.2, 0, 0], [0, 0.1, 0]])
    z = np.array([0.0, 0.0, 1.0])
    cases = []
    for sk, turns in [
        (star, {0: 0.7}),
        (chain, {3: np.pi, 4: np.pi - 1e-9, 5: 1e-10, 1: 1e-16}),
        (chain, {3: np.pi - 1e-7, 4: 1e-300, 5: np.pi}),
        (collinear, {1: 2.0, 2: np.pi}),
        (fork, {1: 1.0, 3: np.pi}),
    ]:
        rots = np.broadcast_to(np.eye(3), (sk.num_joints, 3, 3)).copy()
        for j, angle in turns.items():
            rots[j] = axis_angle_to_matrix(z * angle)
        zero = np.zeros((sk.num_joints, 3))
        cases.append((sk, forward_kinematics(sk, BoneTransforms(rots, zero))))
    # target bones of zero length, then random trees
    cases.append((chain, Pose3D(np.array([[0, 0, 0], up, up, [0, 0.6, 0], [0, 0.6, 0],
                                           [0, 0.7, 0], [0, 0.7, 0.2]]))))
    for n in (6, 12, 20):
        parent = [-1] + [int(rng.integers(0, j)) for j in range(1, n)]
        sk = skeleton(parent, [[0, 0, 0]] + rng.normal(scale=0.25, size=(n - 1, 3)).tolist())
        for max_angle in (1e-9, 1.0, np.pi):
            rots = np.stack([random_rotation(rng, max_angle) for _ in range(n)])
            cases.append((sk, forward_kinematics(sk, BoneTransforms(rots, np.zeros((n, 3))))))
    return cases


def assert_swing_ik_matches_loop(sk, target):
    got, want = swing_ik(sk, target), swing_ik_loop(sk, target)
    assert np.array_equal(got.rotations, want.rotations)
    assert np.array_equal(got.translations, want.translations)


def test_swing_ik_matches_joint_loop_on_pipeline_scenes(scenes):
    for sk, target in scene_targets(scenes):
        assert_swing_ik_matches_loop(sk, target)


def test_swing_ik_matches_joint_loop_on_degenerate_trees():
    for sk, target in degenerate_cases():
        assert_swing_ik_matches_loop(sk, target)


def swing_branch(a, d):
    """The branch ``swing_one`` (through ``align_one``) takes on one pair."""
    if np.linalg.norm(a) <= MIN_BONE or np.linalg.norm(d) <= MIN_BONE:
        return "short bone"
    a, d = a / np.linalg.norm(a), d / np.linalg.norm(d)
    axis = np.cross(a, d)
    axis -= (axis @ a) * a
    if np.linalg.norm(axis) >= 1e-15:
        return "turn"
    return "parallel" if a @ d > 0 else "antiparallel"


def test_degenerate_trees_reach_every_swing_branch(monkeypatch):
    # the cases above send a single-child joint's row down each branch of
    # the batched swing, and a joint with several children down each of
    # ``_align``'s
    reasons = set()
    align = skinning._align

    def spying_swing_rows(A, D):
        reasons.update(swing_branch(a, d) for a, d in zip(A, D))
        return _swing_rows(A, D)

    def spying_align(A, D):
        keep = (np.linalg.norm(A, axis=1) > MIN_BONE) & (np.linalg.norm(D, axis=1) > MIN_BONE)
        if keep.sum() == 1:
            reasons.add("single remaining pair")
        elif keep.sum() > 1:
            s = np.linalg.svd(A[keep].T @ D[keep], compute_uv=False)
            reasons.add("collinear" if s[1] <= COLLINEAR * s[0] else "several children")
        with monkeypatch.context() as m:
            m.setattr(skinning, "_swing_rows", _swing_rows)
            return align(A, D)

    monkeypatch.setattr(skinning, "_swing_rows", spying_swing_rows)
    monkeypatch.setattr(skinning, "_align", spying_align)
    for sk, target in degenerate_cases():
        swing_ik(sk, target)
    assert reasons == {"turn", "short bone", "parallel", "antiparallel", "several children",
                       "collinear", "single remaining pair"}


def swing_pairs(rng, count):
    """(A, D) row pairs of each kind the swing tells apart: random, opposite,
    nearly opposite, parallel, nearly parallel, axis-aligned, short, zero."""
    A = rng.normal(size=(count, 3)) * 10.0 ** rng.uniform(-3, 1, size=(count, 1))
    axes = np.eye(3)[rng.integers(0, 3, size=count)] * rng.choice([-1.0, 1.0], (count, 1))
    scale = rng.uniform(0.1, 3.0, size=(count, 1))
    tiny = 10.0 ** rng.uniform(-17, -7, size=(count, 1)) * rng.normal(size=(count, 3))
    kinds = [
        (A, rng.normal(size=(count, 3))),
        (A, -scale * A),
        (A, -A + tiny),
        (A, scale * A),
        (A, A + tiny),
        (axes, -scale * axes),
        (axes, scale * axes),
        (A, rng.normal(size=(count, 3)) * 1e-10),
        (A * 1e-10, rng.normal(size=(count, 3))),
        (A, np.zeros((count, 3))),
        (np.zeros((count, 3)), A),
    ]
    return (np.concatenate([a for a, _ in kinds]), np.concatenate([d for _, d in kinds]))


def test_swing_rows_match_the_scalar_swing_on_every_pair_kind():
    A, D = swing_pairs(np.random.default_rng(6), 150)
    got = _swing_rows(A, D)
    for a, d, R in zip(A, D, got):
        want = align_one(a[None], d[None])  # swing_one, or the identity if short
        assert np.array_equal(R, want)
        assert np.array_equal(_swing_rows(a[None], d[None])[0], want)
    # every kind of branch is among the pairs
    assert {swing_branch(a, d) for a, d in zip(A, D)} == {
        "turn", "short bone", "parallel", "antiparallel"}
    assert _swing_rows(A[:0], D[:0]).shape == (0, 3, 3)


def near_identity_and_half_turns(rng):
    Rs = []
    for angle in (0.0, 1e-300, 1e-12, 1e-9, 2e-9, 1e-3, np.pi - 2e-6, np.pi - 1e-6,
                  np.pi - 1e-7, np.pi - 1e-12, np.pi):
        for _ in range(4):
            axis = rng.normal(size=3)
            Rs.append(axis_angle_to_matrix(axis / np.linalg.norm(axis) * angle))
    Rs += [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, -1.0, 1.0]), np.eye(3)]
    return np.stack(Rs)


def test_axis_angle_stack_matches_matrix_loop(scenes):
    rng = np.random.default_rng(1)
    stacks = [swing_ik(sk, target).rotations for sk, target in scene_targets(scenes)]
    stacks += [near_identity_and_half_turns(rng),
               np.stack([random_rotation(rng) for _ in range(200)])]
    for Rs in stacks:
        want = np.stack([matrix_to_axis_angle_one(R) for R in Rs])
        assert np.array_equal(matrix_to_axis_angle(Rs), want)
        assert all(np.array_equal(matrix_to_axis_angle(R), w) for R, w in zip(Rs, want))


def assert_jacobian_matches_dense(sk, target, params):
    obj = KeypointObjective(sk, target)
    _, jac = obj.residuals(params, jacobian=True)
    J = sk.num_joints
    assert np.array_equal(jac[:3 * J], dense_position_jacobian(sk, params))


def test_ancestor_pair_jacobian_matches_dense_on_pipeline_scenes(scenes):
    rng = np.random.default_rng(2)
    for sk, target in scene_targets(scenes):
        assert_jacobian_matches_dense(sk, target, start_params(sk, target))
        assert_jacobian_matches_dense(sk, target, start_params(sk, target, rng))


def test_ancestor_pair_jacobian_matches_dense_on_degenerate_trees():
    rng = np.random.default_rng(3)
    for sk, target in degenerate_cases():
        assert_jacobian_matches_dense(sk, target, start_params(sk, target))
        assert_jacobian_matches_dense(sk, target, start_params(sk, target, rng))


def test_linearizing_at_the_last_evaluated_step_runs_no_second_fk(monkeypatch, scenes):
    fk_calls = []

    def counting_fk(*args):
        fk_calls.append(1)
        return _fk_levels(*args)

    monkeypatch.setattr(skinning, "_fk_levels", counting_fk)
    b = scenes[0]
    obj = KeypointObjective(b.skeleton, b.pose_root)
    p = start_params(b.skeleton, b.pose_root)
    r = obj.residuals(p)
    r_again, jac = obj.residuals(p.copy(), jacobian=True)  # equal values, another array
    assert len(fk_calls) == 1
    fresh = KeypointObjective(b.skeleton, b.pose_root).residuals(p, jacobian=True)
    assert np.array_equal(r_again, r) and np.array_equal(r, fresh[0])
    assert np.array_equal(jac, fresh[1])
    obj.residuals(p + 1e-3, jacobian=True)
    assert len(fk_calls) == 3  # the fresh objective's, then another point's

    # in a whole fit, each linearization at the step the last cost call
    # evaluated (the start, then every accepted step) runs no FK
    cost_calls, repeats = [], []

    def counting_solve(residual_jacobian, cost, p, **kw):
        def counted_cost(q):
            cost_calls.append(q.tobytes())
            return cost(q)

        def counted_linearization(q):
            repeats.append(q.tobytes() == cost_calls[-1])
            return residual_jacobian(q)

        return lm_solve(counted_linearization, counted_cost, p, **kw)

    lm_solve = skinning.lm_solve
    monkeypatch.setattr(skinning, "lm_solve", counting_solve)
    for b in scenes[:8]:
        fk_calls.clear()
        cost_calls.clear()
        repeats.clear()
        fit_pose_to_keypoints(b.skeleton, b.pose_root)
        assert len(repeats) >= 2 and all(repeats)
        assert len(fk_calls) == len(cost_calls)


# ---------------------------------------------------------------------------
# Compose: the nearest-triangle query and the detector, edges and Laplacian
# ---------------------------------------------------------------------------

def nearest_triangles_by_chunk(points, vertices, faces, limit=None):
    """``FaceTable.nearest`` with one exact pass per cull chunk, the
    all-faces fallback run chunk by chunk."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    faces = np.asarray(faces, dtype=int).reshape(-1, 3)
    limit2 = np.inf if limit is None else float(limit) ** 2
    rel, floor = collision._CULL_REL, collision._CULL_ABS
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    table = np.concatenate([a, b, c, b - a, c - a, c - b], axis=1)
    centre = (a + b + c) / 3.0
    cc = np.vecdot(centre, centre)
    radius = np.sqrt(np.max([np.vecdot(x - centre, x - centre) for x in (a, b, c)], axis=0))
    radius += rel * (radius + np.sqrt(cc)) + floor
    corners = vertices[np.unique(faces)]
    vv = np.vecdot(corners, corners)
    face = np.empty(len(points), dtype=int)
    closest = np.empty((len(points), 3))
    dist2 = np.empty(len(points))
    step = max(1, collision.QUERY_CHUNK_PAIRS // len(faces))
    for s in range(0, len(points), step):
        p = points[s:s + step]
        pp = np.vecdot(p, p)[:, None]
        upper = np.add(pp, vv)
        upper *= 1 + rel
        px = p @ corners.T
        px *= 2.0
        upper -= px
        upper = upper.min(axis=1)
        lower = np.add(pp, cc)
        lower *= 1 - rel
        px = p @ centre.T
        px *= 2.0
        lower -= px
        reach = np.add(((1 + rel) * np.sqrt(np.minimum(upper, limit2)))[:, None], radius)
        reach *= reach
        keep = lower <= reach
        fi, q, d2 = collision._nearest_among(p, collision._pairs(keep), table)
        redo = ~(d2 <= upper) & ~(upper >= limit2)
        if redo.any():
            every = np.broadcast_to(redo[:, None], keep.shape)
            rf, rq, rd = collision._nearest_among(p, collision._pairs(every), table)
            fi[redo], q[redo], d2[redo] = rf[redo], rq[redo], rd[redo]
        face[s:s + step], closest[s:s + step], dist2[s:s + step] = fi, q, d2
    if limit is not None:
        out = ~(dist2 < limit2)
        face[out], closest[out], dist2[out] = -1, np.nan, np.inf
    return face, closest, dist2


def detections_from(body, garment, query):
    """The detector's hits from a banded query's result, with the normals
    of the hit faces formed for this call."""
    fi, q, d2 = query
    near = np.flatnonzero(d2 < COLLISION_BAND * COLLISION_BAND)
    n = face_normals(garment.vertices, garment.faces[fi[near]])
    hit = np.vecdot(body.vertices[near] - q[near], n) > 0.0
    return near[hit], q[near[hit]], n[hit]


def assert_query_matches_chunks(monkeypatch, points, vertices, faces):
    # at the default chunking and at 7 points per chunk
    for chunk_pairs in (collision.QUERY_CHUNK_PAIRS, 7 * len(faces)):
        monkeypatch.setattr(collision, "QUERY_CHUNK_PAIRS", chunk_pairs)
        for limit in (None, COLLISION_BAND):
            with np.errstate(invalid="ignore"):  # degenerate faces divide 0 by 0
                got = FaceTable(vertices, faces).nearest(points, limit=limit)
                want = nearest_triangles_by_chunk(points, vertices, faces, limit=limit)
            for x, y in zip(got, want):
                assert np.array_equal(x, y, equal_nan=True)


def test_one_exact_pass_matches_chunk_by_chunk_on_pipeline_scenes(monkeypatch, scenes):
    for k, b in enumerate(scenes):
        body = b.posed_body
        tables = {g: FaceTable(body.part(g).vertices, body.part(g).faces)
                  for _, g in GARMENT_PAIRS}
        for body_name, garment_name in GARMENT_PAIRS:
            part, garment = body.part(body_name), body.part(garment_name)
            gv, gf = garment.vertices, garment.faces
            if k < 3:
                assert_query_matches_chunks(monkeypatch, part.vertices, gv, gf)
            # compose's query, and its detections from one table reused
            # across calls and from a fresh table per call
            want = nearest_triangles_by_chunk(part.vertices, gv, gf, limit=COLLISION_BAND)
            got = tables[garment_name].nearest(part.vertices, limit=COLLISION_BAND)
            assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(got, want))
            hits = detections_from(part, garment, want)
            for table in (tables[garment_name], FaceTable(gv, gf)):
                rep = detect_collisions(part, table)
                for x, y in zip((rep.vertex_indices, rep.garment_points,
                                 rep.garment_normals), hits):
                    assert np.array_equal(x, y)


def test_one_exact_pass_matches_chunk_by_chunk_with_ties_and_degenerate_faces(monkeypatch):
    rng = np.random.default_rng(4)
    sphere = icosphere(1.0, 2)
    verts, faces = sphere.vertices, sphere.faces
    # repeated faces tie everywhere; zero-area faces (a repeated corner, a
    # collinear triple) give NaN distances and send points to the fallback
    extra = np.array([faces[3], faces[3][::-1], [0, 0, 1], [2, 2, 2]])
    line = len(verts) + np.arange(3)
    verts = np.concatenate([verts, [[0, 0, 1.5], [0, 0, 1.6], [0, 0, 1.7]]])
    faces = np.concatenate([faces, extra, [line]])
    points = np.concatenate([rng.normal(scale=1.2, size=(150, 3)),
                             verts[:40] * 1.001, [[0, 0, 1.55], [0, 0, 1.65]]])
    assert_query_matches_chunks(monkeypatch, points, verts, faces)
    # face 0 repeats a vertex and gives no finite distance beside its edge,
    # so the points there are answered against all faces
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0], [6.0, 0, 0], [5.0, 1, 0]])
    points = np.concatenate([[[0.5, 0.5, 0.0], [0.5, -0.5, 0.2], [-0.1, 0.0, 0.0]],
                             rng.normal(scale=2.0, size=(10, 3))])
    assert_query_matches_chunks(monkeypatch, points, verts, np.array([[0, 0, 1], [2, 3, 4]]))


def mesh_edges_rows(faces):
    """``mesh_edges`` as unique rows."""
    faces = np.asarray(faces, dtype=int)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0)
    e.sort(axis=1)
    return np.unique(e, axis=0)


def laplacian_from_sets(mesh):
    """``uniform_laplacian`` from per-vertex neighbour sets, through COO."""
    n = mesh.num_vertices
    adj = [set() for _ in range(n)]
    for i, j in mesh_edges_rows(mesh.faces):
        adj[i].add(int(j))
        adj[j].add(int(i))
    rows, cols, vals = [], [], []
    for i, nbrs in enumerate(sorted(s) for s in adj):
        if not nbrs:
            continue
        w = 1.0 / len(nbrs)
        for j in nbrs:
            rows.append(i)
            cols.append(j)
            vals.append(w)
        rows.append(i)
        cols.append(i)
        vals.append(-1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def edge_and_laplacian_meshes(scenes):
    # the scenes share one topology: their parts and a few more
    yield from scenes[0].posed_body.parts
    yield icosphere(1.0, 2)
    # vertex 5 is isolated; faces 1 and 2 repeat a vertex (a self-loop)
    yield PartMesh(np.zeros((6, 3)), [[0, 1, 2], [1, 1, 3], [2, 4, 2]], "legs")
    yield PartMesh(np.zeros((5, 3)), [[3, 1, 0]], "legs")
    rng = np.random.default_rng(5)
    yield PartMesh(np.zeros((40, 3)), rng.integers(0, 30, size=(60, 3)), "legs")


def test_mesh_edges_match_unique_rows(scenes):
    for mesh in edge_and_laplacian_meshes(scenes):
        got, want = mesh_edges(mesh.faces), mesh_edges_rows(mesh.faces)
        assert np.array_equal(got, want) and got.dtype == want.dtype
    empty = np.zeros((0, 3), dtype=int)
    got, want = mesh_edges(empty), mesh_edges_rows(empty)
    assert got.shape == want.shape == (0, 2) and got.dtype == want.dtype


def test_laplacian_matches_neighbour_sets(scenes):
    for mesh in edge_and_laplacian_meshes(scenes):
        got, want = uniform_laplacian(mesh), laplacian_from_sets(mesh)
        for name in ("indptr", "indices", "data"):
            x, y = getattr(got, name), getattr(want, name)
            assert np.array_equal(x, y) and x.dtype == y.dtype, name
    isolated = uniform_laplacian(PartMesh(np.zeros((5, 3)), [[3, 1, 0]], "legs"))
    assert isolated.indptr.tolist() == [0, 3, 6, 6, 9, 9]


# ---------------------------------------------------------------------------
# Codec: location maps
# ---------------------------------------------------------------------------

def test_location_maps_match_where_over_the_stack(scenes):
    for b in scenes:
        heat = encode_heatmaps(b.pose2d)
        want = np.where(heat.values[:, None] > 0.0, b.pose_root.positions[:, :, None, None], 0.0)
        assert encode_location_maps(b.pose_root, heat).values.tobytes() == want.tobytes()
