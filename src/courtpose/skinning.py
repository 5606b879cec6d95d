"""Classical skinning pipeline: voxel heat-diffusion weight initialization,
linear blend skinning, and least-squares fitting of bone rotations to a
root-relative 3D pose.

Heat weights (Baran & Popovic 2007, on voxels as in Dionne & de Lasa 2013)
live on one grid: face samples mark the surface cells and a flood fill from
the grid's border adds the interior. Every non-leaf joint owns the bone
segments from itself to its children; leaf joints (finger tips, toes) carry
no source and therefore receive zero weight columns. Per bone, unit heat is
pinned on the segment's voxels and zero on every other bone's; Jacobi
iteration reaches the steady state, which is sampled at the vertices.

The keypoint fit has the one configuration ``run_pipeline`` runs, on a
root-relative target; a world-frame body is the fitted body moved by the
placement offset, since LBS commutes with a translation.

The fit runs at batch width: ``swing_ik`` turns each depth level's
single-child joints in one batched swing, the start's axis-angles come from
one stacked ``matrix_to_axis_angle``, and the Jacobian forms cross products
for the proper (descendant, ancestor) joint pairs only. What stays scalar is
the rotation of a joint with several children (``_align``) and the
depth-level loops of swing IK and FK. Every result equals the per-joint
loops these replaced bit for bit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import blas
from .errors import NumericalError, ValidationError
from .lsq import MAX_REJECTS, lm_solve
from .mesh import BodyMesh
from .model import (BoneTransforms, Frame, Pose3D, Skeleton, _fk_levels,
                    fk_global, forward_kinematics, json_numbers)
from .transforms import axis_angle_to_matrix, cross, matrix_to_axis_angle, skew

MAX_INFLUENCES = 4


@dataclass(frozen=True)
class SkinningWeights:
    """Vertices x joints weight matrix; rows are convex combinations."""

    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", np.asarray(self.W, dtype=float))
        if self.W.ndim != 2:
            raise ValidationError("weights must be (vertices, joints)")
        if self.W.min() < 0:
            raise ValidationError("weights must be nonnegative")
        if not np.all(np.isfinite(self.W)):
            raise ValidationError("weights must be finite")
        if np.abs(self.W.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValidationError("weight rows must sum to 1 within 1e-6")

    @property
    def num_vertices(self) -> int:
        return self.W.shape[0]

    @property
    def num_joints(self) -> int:
        return self.W.shape[1]


def weights_from_json(d: dict) -> SkinningWeights:
    W = np.zeros(tuple(json_numbers(d["shape"], "weights shape", int)))
    W[json_numbers(d["rows"], "weights rows", int),
      json_numbers(d["cols"], "weights cols", int)] = json_numbers(d["values"], "weights values")
    return SkinningWeights(W)


# ---------------------------------------------------------------------------
# Heat-diffusion skinning weights
# ---------------------------------------------------------------------------

JACOBI_TOL = 1e-6  # stop once no voxel's heat changes by this much
MAX_JACOBI_ITERS = 100000
GRID_PAD = 2  # empty cells around the mesh's bounding box
_NEIGHBOURS = np.array([[-1, 0, 0], [1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, -1], [0, 0, 1]])


def bone_sources(skeleton: Skeleton, rest_pose: Pose3D):
    """Per-joint heat-source segments [(a, b), ...]; empty list for leaves."""
    pos = rest_pose.positions
    return [[(pos[j], pos[c]) for c in skeleton.children(j)]
            for j in range(skeleton.num_joints)]


def heat_diffusion_weights(mesh: BodyMesh, skeleton: Skeleton, rest_pose: Pose3D,
                           voxel_res: int) -> SkinningWeights:
    """Skinning weights from steady-state heat diffusion on the voxelized
    interior, trilinearly sampled at the vertices, top-4 pruned, renormalized."""
    if skeleton.num_joints != rest_pose.num_joints:
        raise ValidationError("skeleton and rest pose joint counts differ")
    if voxel_res < 1:
        raise ValidationError(f"voxel_res must be at least 1, got {voxel_res!r}")
    verts, faces = mesh.merged()
    if len(verts) == 0:
        raise ValidationError("empty mesh")

    grid = _VoxelGrid(verts, voxel_res)
    occ = _voxelize(grid, verts, faces)

    segments = bone_sources(skeleton, rest_pose)
    active = [j for j, segs in enumerate(segments) if segs]
    if not active:
        raise ValidationError("skeleton has no bone to carry heat")
    src_per_bone = [_bone_voxels(grid, occ, segments[j]) for j in active]
    for j, vox in zip(active, src_per_bone):
        if vox.size == 0:
            raise ValidationError(
                f"bone of joint {skeleton.joint_names[j]!r} lies outside the voxel volume")

    fields, compact = _jacobi_diffusion(grid, occ, src_per_bone)

    W = np.zeros((len(verts), skeleton.num_joints))
    W[:, active] = _sample_fields(grid, fields, compact, verts)

    # top-K pruning + renormalization
    if W.shape[1] > MAX_INFLUENCES:
        order = np.argsort(W, axis=1)
        W[np.arange(len(W))[:, None], order[:, :-MAX_INFLUENCES]] = 0.0
    dead = W.sum(axis=1) <= 1e-12
    if dead.any():
        # vertices in source-free pockets: snap to the nearest bone segment
        nearest = _nearest_bone(verts[dead], [segments[j] for j in active])
        W[dead] = np.eye(W.shape[1])[np.asarray(active)[nearest]]
    W /= W.sum(axis=1)[:, None]
    return SkinningWeights(W)


class _VoxelGrid:
    """Cubic cells of side h over the vertices' bounding box, ``res`` along
    its longest side, padded by ``GRID_PAD`` cells; flat indices are C-order."""

    def __init__(self, verts, res):
        lo = verts.min(axis=0)
        extent = verts.max(axis=0) - lo
        self.h = float(extent.max()) / res
        if self.h <= 0:
            raise ValidationError("degenerate mesh bounding box")
        self.dims = tuple(int(np.ceil(e / self.h)) + 2 * GRID_PAD for e in extent)
        self.origin = lo - GRID_PAD * self.h

    def flat(self, cells):
        """Flat indices of integer cells (N, 3); -1 outside the grid."""
        inside = np.all((cells >= 0) & (cells < self.dims), axis=1)
        out = np.full(len(cells), -1)
        out[inside] = np.ravel_multi_index(tuple(cells[inside].T), self.dims)
        return out

    def cells_of(self, points):
        """Flat indices of the cells of those points (N, 3) inside the grid."""
        idx = self.flat(np.floor((points - self.origin) / self.h).astype(int))
        return idx[idx >= 0]


def _voxelize(grid, verts, faces):
    """Flat occupancy: the cells of the vertices and of a barycentric sample
    of each face, at most h/2 apart along its edges from the first corner,
    plus the cells the outside cannot reach through 6-connected empty ones."""
    occ = np.zeros(int(np.prod(grid.dims)), dtype=bool)
    occ[grid.cells_of(verts)] = True
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    ab, ac = b - a, c - a
    longest = np.sqrt(np.maximum(np.vecdot(ab, ab), np.vecdot(ac, ac)))
    n1 = np.maximum(2, np.ceil(longest / (grid.h / 2.0)).astype(int) + 1)
    for n in np.unique(n1):
        t = np.linspace(0.0, 1.0, n)
        u, v = np.meshgrid(t, t, indexing="ij")
        keep = (u + v) <= 1.0
        u, v = u[keep][:, None], v[keep][:, None]
        f = n1 == n
        pts = a[f, None] + u * ab[f, None] + v * ac[f, None]
        occ[grid.cells_of(pts.reshape(-1, 3))] = True
    return _fill_holes(occ.reshape(grid.dims)).reshape(-1)


def _fill_holes(occ):
    """``scipy.ndimage.binary_fill_holes`` with its default 6-connected
    structure: every cell but the empty ones that the grid's border reaches
    through 6-connected empty cells, flooded one layer per pass."""
    empty = ~occ
    outside = np.zeros_like(occ)
    for axis in range(occ.ndim):
        for end in (0, -1):
            border = (slice(None),) * axis + (end,)
            outside[border] = empty[border]
    while True:
        grown = outside.copy()
        for axis in range(occ.ndim):
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            grown[hi] |= outside[lo]
            grown[lo] |= outside[hi]
        grown &= empty
        if np.array_equal(grown, outside):
            return ~outside
        outside = grown


def _bone_voxels(grid, occ, segs):
    """Occupied cells along the segments, sampled at most h/2 apart."""
    out = []
    for a, b in segs:
        n = max(2, int(np.ceil(np.linalg.norm(b - a) / (grid.h / 2.0))) + 1)
        out.append(grid.cells_of(a + np.linspace(0.0, 1.0, n)[:, None] * (b - a)))
    vox = np.unique(np.concatenate(out))
    return vox[occ[vox]]


def _jacobi_diffusion(grid, occ, src_per_bone):
    """Steady heat on the occupied voxels, one column per bone pinned at 1 on
    its sources and 0 on other bones'; also the map of flat cell indices to
    field rows, which sends empty cells and -1 (off the grid) to -1."""
    flat_idx = np.flatnonzero(occ)
    compact = np.full(occ.size + 1, -1)
    compact[flat_idx] = np.arange(len(flat_idx))
    # field rows of each occupied voxel's 6 neighbours, -1 where empty
    coords = np.stack(np.unravel_index(flat_idx, grid.dims), axis=1)
    nbr = compact[grid.flat((coords[:, None] + _NEIGHBOURS).reshape(-1, 3))].reshape(-1, 6)
    rows, cols = np.nonzero(nbr >= 0)
    A = sp.csr_matrix((np.ones(len(rows)), (rows, nbr[rows, cols])), shape=(len(flat_idx),) * 2)
    dinv = 1.0 / np.maximum((nbr >= 0).sum(axis=1), 1)  # an isolated voxel stays 0

    sources = np.concatenate(src_per_bone)
    bone = np.repeat(np.arange(len(src_per_bone)), [len(s) for s in src_per_bone])
    u = np.zeros((len(flat_idx), len(src_per_bone)))
    u[compact[sources], bone] = 1.0
    pins = compact[np.unique(sources)]
    pin_vals = u[pins]

    for _ in range(MAX_JACOBI_ITERS):
        nxt = (A @ u) * dinv[:, None]
        nxt[pins] = pin_vals
        delta = np.abs(nxt - u).max()
        u = nxt
        if delta < JACOBI_TOL:
            break
    else:
        raise NumericalError("heat diffusion failed to converge")
    return u, compact


def _sample_fields(grid, u, compact, verts):
    """Trilinear interpolation at the vertices over the occupied cells among
    their eight corners, renormalized. A vertex's own cell is occupied and
    is one of the eight, weighted >= 1/8, so no vertex is left out."""
    g = (verts - grid.origin) / grid.h - 0.5
    base = np.floor(g).astype(int)
    frac = g - base
    acc = np.zeros((len(verts), u.shape[1]))
    wsum = np.zeros(len(verts))
    for corner in itertools.product((0, 1), repeat=3):
        ci = compact[grid.flat(base + corner)]
        on = ci >= 0
        w = np.prod(np.where(corner, frac, 1 - frac), axis=1)[on]
        acc[on] += w[:, None] * u[ci[on]]
        wsum[on] += w
    return acc / wsum[:, None]


def _nearest_bone(points, seg_lists):
    """Index of the bone (seg_lists order) nearest each point; ties go first."""
    owner = np.array([k for k, segs in enumerate(seg_lists) for _ in segs])
    a = np.array([a for segs in seg_lists for a, _ in segs], dtype=float)
    ab = np.array([b for segs in seg_lists for _, b in segs], dtype=float) - a
    denom = np.vecdot(ab, ab)
    point = denom < 1e-18
    t = np.clip(np.vecdot(points[:, None, :] - a, ab) / np.where(point, 1.0, denom), 0.0, 1.0)
    t[:, point] = 0.0
    off = points[:, None, :] - (a + t[:, :, None] * ab)
    return owner[np.argmin(np.sqrt(np.vecdot(off, off)), axis=1)]


# ---------------------------------------------------------------------------
# Linear blend skinning
# ---------------------------------------------------------------------------

def lbs(rest: BodyMesh, weights: SkinningWeights, transforms: BoneTransforms,
        skeleton: Skeleton) -> BodyMesh:
    """Deform the rest body: v' = sum_j W[v,j] * G_j(v), with G_j the joint's
    global rest-to-posed rigid transform from forward kinematics."""
    verts, _ = rest.merged()
    if weights.num_vertices != len(verts):
        raise ValidationError("weight rows do not match body vertex count")
    if weights.num_joints != skeleton.num_joints:
        raise ValidationError("weight columns do not match joint count")
    R_glob, p_posed = fk_global(skeleton, transforms)
    active = np.flatnonzero(weights.W.any(axis=0))
    R = R_glob[active]
    t = p_posed[active] - (R @ skeleton._rest_world[active][..., None])[..., 0]
    # every influencing joint's transform of every vertex in one stacked
    # product, weighted, then summed in joint order from zero
    G = verts @ R.transpose(0, 2, 1)
    G += t[:, None, :]
    G *= weights.W.T[active][..., None]
    out = np.zeros_like(verts)
    for g in G:
        out += g
    return rest.with_vertices(out)


# ---------------------------------------------------------------------------
# Keypoint fitting
# ---------------------------------------------------------------------------

WPRIOR = 1e-4  # L2 on the axis-angles; breaks the twist ambiguity
FIT_MAX_ITERS = 20  # a safety cap: pipeline fits converge in 3-9 iterations
FIT_RTOL = 1e-8  # stop once an accepted step gains less than FIT_RTOL * max(cost, 1)


def _check_target(skeleton: Skeleton, target3d: Pose3D):
    J = skeleton.num_joints
    if target3d.num_joints != J:
        raise ValidationError(f"target has {target3d.num_joints} joints, skeleton {J}")
    if target3d.frame is not Frame.ROOT_RELATIVE:
        raise ValidationError(f"the fit takes a root-relative target, not {target3d.frame.value}")


class KeypointObjective:
    """Residual vector of ``fit_pose_to_keypoints`` and its analytic Jacobian.

    Parameters are the per-joint axis-angle rotations (3J) that pose the
    skeleton onto a root-relative target. Residual blocks, in order: the 3D
    joint error (3J), then sqrt(WPRIOR) * axis-angle (3J).

    The Jacobian comes from the same FK pass as the residual. For joint j and
    a descendant i, dp_i/domega_j = -[p_i - p_j]x R_glob(j) J_r(omega_j), with
    J_r the SO(3) right Jacobian. Only the proper (descendant, ancestor)
    pairs are formed: 161 of the 1,225 joint pairs of the 35-joint skeleton.
    A joint's own rotation does not move it, so its (i, i) pair, a cross
    product with p_i - p_i = 0, stays zero. The FK of the last evaluation is
    kept, so the linearization at the step ``lm_solve`` just accepted (the
    step its cost call evaluated last) runs no second FK.
    """

    def __init__(self, skeleton: Skeleton, target3d: Pose3D):
        _check_target(skeleton, target3d)
        J = skeleton.num_joints
        self.skeleton = skeleton
        self.target3d = target3d
        self.num_params = 3 * J
        # ancestor[i, j]: joint j is joint i or one of its ancestors
        ancestor = np.eye(J, dtype=bool)
        for idx in skeleton._levels:
            ancestor[idx] |= ancestor[skeleton.parent[idx]]
        self._desc, self._anc = np.nonzero(ancestor & ~np.eye(J, dtype=bool))
        self._cols = 3 * self._anc[:, None] + np.arange(3)
        self._fk = None  # (params bytes, R_glob, world positions) of the last FK

    def transforms(self, params) -> BoneTransforms:
        om = params.reshape(-1, 3)
        return BoneTransforms(axis_angle_to_matrix(om), np.zeros((len(om), 3)))

    def _forward(self, params):
        """Global rotations and world joint positions at ``params``; the last
        evaluation's when the parameters are the same to the bit."""
        key = params.tobytes()
        if self._fk is None or self._fk[0] != key:
            rotations = axis_angle_to_matrix(params.reshape(-1, 3))
            self._fk = (key, *_fk_levels(self.skeleton, rotations, self.skeleton.rest_offsets))
        return self._fk[1:]

    def residuals(self, params, jacobian: bool = False):
        """Residual vector r, or (r, dr/dparams) when ``jacobian``."""
        R_glob, pos_world = self._forward(params)
        pos = pos_world - pos_world[0]
        r = np.concatenate([(pos - self.target3d.positions).ravel(),
                            np.sqrt(WPRIOR) * params])
        if not jacobian:
            return r
        jpos = self._position_jacobian(params.reshape(-1, 3), R_glob, pos_world)
        return r, np.concatenate([jpos.reshape(self.num_params, -1),
                                  np.sqrt(WPRIOR) * np.eye(self.num_params)])

    def _position_jacobian(self, om, R_glob, pos):
        """(J, 3, 3J) derivative of the joint positions. The root position
        does not depend on omega, so root-relative positions p - p_root
        share it."""
        J = self.skeleton.num_joints
        i, j = self._desc, self._anc
        M = R_glob @ so3_right_jacobian(om)
        # -[p_i - p_j]x m = m x (p_i - p_j), for each column m of M_j:
        # C[pair, k] is the column of omega_j[k]
        C = cross(M.transpose(0, 2, 1)[j], (pos[i] - pos[j])[:, None, :])
        jac = np.zeros((J, 3, self.num_params))
        jac[i[:, None], :, self._cols] = C
        return jac


MIN_BONE = 1e-9   # m: a shorter rest offset or target bone has no direction
COLLINEAR = 1e-12  # children are collinear below this ratio of singular values


def swing_ik(skeleton: Skeleton, target3d: Pose3D) -> BoneTransforms:
    """Bone transforms in closed form whose forward kinematics points every
    bone along its target bone: the swing half of the twist-and-swing
    decomposition of HybrIK (Li et al., CVPR 2021). With bone lengths equal
    to the skeleton's, it reaches the target joints exactly.

    One depth level at a time, each joint takes the rotation, in its parent's
    already-solved frame, that best aligns its children's rest offsets with
    their target bones: the minimal rotation for one child, one batched
    ``_swing_rows`` per level, and the Kabsch rotation for several
    (``_align``). Leaves keep the identity, and the target is root-relative,
    so every translation is zero.
    """
    _check_target(skeleton, target3d)
    J = skeleton.num_joints
    tgt = target3d.positions
    parent = skeleton.parent
    kids = [[] for _ in range(J)]
    for c in range(1, J):
        kids[parent[c]].append(c)
    num_kids = np.array([len(k) for k in kids])
    only_kid = np.array([k[0] if len(k) == 1 else 0 for k in kids])
    R_loc = np.broadcast_to(np.eye(3), (J, 3, 3)).copy()
    # one row more than the joints: the root's parent index -1 reads the
    # identity frame there
    R_glob = np.empty((J + 1, 3, 3))
    R_glob[-1] = np.eye(3)
    for idx in itertools.chain([np.zeros(1, dtype=int)], skeleton._levels):
        one = idx[num_kids[idx] == 1]
        c = only_kid[one]
        # target bones as rows, in the parent's frame: (R_par^T d)^T
        D = ((tgt[c] - tgt[one])[:, None, :] @ R_glob[parent[one]])[:, 0]
        R_loc[one] = _swing_rows(skeleton.rest_offsets[c], D)
        for j in idx[num_kids[idx] > 1]:
            R_loc[j] = _align(skeleton.rest_offsets[kids[j]],
                              (tgt[kids[j]] - tgt[j]) @ R_glob[parent[j]])
        R_glob[idx] = R_glob[parent[idx]] @ R_loc[idx]
    return BoneTransforms(R_loc, np.zeros((J, 3)))


def _swing_rows(A, D):
    """Minimal rotations (n, 3, 3) taking the direction of each row of A onto
    that of the same row of D (n, 3). A pair with a vector shorter than
    ``MIN_BONE``, or parallel to within the rounding of a unit vector, keeps
    the identity; an opposite one turns by pi about an axis perpendicular to
    its row of A."""
    if len(A) == 0:  # a level without single-child joints
        return np.empty((0, 3, 3))
    R = np.broadcast_to(np.eye(3), (len(A), 3, 3)).copy()
    long = (np.linalg.norm(A, axis=1) > MIN_BONE) & (np.linalg.norm(D, axis=1) > MIN_BONE)
    a = A[long] / np.sqrt(np.vecdot(A[long], A[long]))[:, None]
    b = D[long] / np.sqrt(np.vecdot(D[long], D[long]))[:, None]
    axis = cross(a, b)
    cos = np.vecdot(a, b)
    angle = np.arctan2(np.sqrt(np.vecdot(axis, axis)), cos)
    # drop the rounding along a, which the division below would magnify
    # near pi, so that R a stays on b
    axis -= np.vecdot(axis, a)[:, None] * a
    n = np.sqrt(np.vecdot(axis, axis))
    flat = n < 1e-15  # parallel or opposite to within the rounding of a unit vector
    half = flat & (cos <= 0)
    axis[half] = cross(a[half], np.eye(3)[np.argmin(np.abs(a[half]), axis=1)])
    n[half] = np.sqrt(np.vecdot(axis[half], axis[half]))
    angle[half] = np.pi
    turn = ~flat | half
    R[np.flatnonzero(long)[turn]] = axis_angle_to_matrix(
        axis[turn] / n[turn, None] * angle[turn, None])
    return R


def _align(A, D):
    """Rotation R maximising sum_c d_c . R a_c over the rows of A and D,
    skipping pairs shorter than ``MIN_BONE``. Where children are collinear,
    only the rotation of their common axis is fixed, and R is the minimal
    one; the identity when no pair is left."""
    keep = (np.linalg.norm(A, axis=1) > MIN_BONE) & (np.linalg.norm(D, axis=1) > MIN_BONE)
    A, D = A[keep], D[keep]
    if len(A) == 0:
        return np.eye(3)
    if len(A) == 1:
        return _swing_rows(A, D)[0]
    U, s, Vt = np.linalg.svd(A.T @ D)
    if s[1] <= COLLINEAR * s[0]:
        return _swing_rows(U[:, :1].T, Vt[:1])[0]
    # Kabsch: V U^T, with the last axis flipped if that is a reflection
    R = Vt.T @ U.T
    if np.linalg.det(R) < 0:
        R = Vt.T @ np.diag([1.0, 1.0, -1.0]) @ U.T
    return R


def so3_right_jacobian(omega: np.ndarray) -> np.ndarray:
    """Right Jacobians (N, 3, 3) of axis-angle vectors omega (N, 3):
    exp(omega + d) ~= exp(omega) exp(J_r(omega) d)."""
    omega = np.asarray(omega, dtype=float).reshape(-1, 3)
    theta = np.linalg.norm(omega, axis=1)
    K = skew(omega)
    small = theta < 1e-3
    t = np.where(small, 1.0, theta)
    t2 = theta * theta
    a = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(t)) / (t * t))
    b = np.where(small, 1.0 / 6.0 - t2 / 120.0, (t - np.sin(t)) / (t * t * t))
    return np.eye(3) - a[:, None, None] * K + b[:, None, None] * (K @ K)


# the normal equations are 105 x 105: too small to gain from BLAS
# threads, and a split solve waits for a second core (see ``blas``)
@blas.single_thread()
def fit_pose_to_keypoints(skeleton: Skeleton, target3d: Pose3D,
                          init: BoneTransforms | None = None):
    """Damped Gauss-Newton over per-joint axis-angle rotations minimizing
    the 3D error to a root-relative target plus the L2 pose prior
    ``WPRIOR``, with the analytic Jacobian of ``KeypointObjective``, by
    ``lsq.lm_solve`` (at most ``FIT_MAX_ITERS`` iterations, tolerance
    ``FIT_RTOL``).

    The solve starts from ``init``, or by default from ``swing_ik`` of the
    target, which already reaches it when the bone lengths agree; the solve
    then trades the prior against the residual, mostly by twist about the
    bones. ``init=BoneTransforms.identity(J)`` starts from zero rotations;
    only the rotations of ``init`` are read.

    Returns (BoneTransforms, info dict with the cost history, final cost,
    stop reason and per-joint residuals).
    """
    obj = KeypointObjective(skeleton, target3d)
    if init is None:
        init = swing_ik(skeleton, target3d)
    elif init.num_joints != skeleton.num_joints:
        raise ValidationError(
            f"init has {init.num_joints} joints, skeleton {skeleton.num_joints}")

    def cost(params):
        r = obj.residuals(params)
        return float(r @ r)

    p, rec = lm_solve(lambda q: obj.residuals(q, jacobian=True), cost,
                      matrix_to_axis_angle(init.rotations).ravel(),
                      lam=1e-4, lam_min=1e-12, tries=15, max_iters=FIT_MAX_ITERS,
                      rtol=FIT_RTOL)
    if rec.stop == "stalled":
        raise NumericalError(
            f"fitting diverged: cost non-decreasing for {MAX_REJECTS} steps")
    bt = obj.transforms(p)
    pose = forward_kinematics(skeleton, bt)
    info = {
        "cost_history": rec.cost_history,
        "final_cost": rec.cost_history[-1],
        "stop": rec.stop,
        "joint_residuals": np.linalg.norm(pose.positions - target3d.positions, axis=1),
    }
    return bt, info
