"""Classical skinning pipeline: voxel heat-diffusion weight initialization,
linear blend skinning, and least-squares fitting of bone transforms to
target keypoints.

Heat sources: every non-leaf joint owns the bone segments from itself to its
children; leaf joints (finger tips, toes) carry no source and therefore
receive zero weight columns. Per bone, unit heat is pinned on the segment's
voxels and zero on every other bone's voxels; the steady state on the
interior voxel graph is reached by Jacobi iteration (max change < 1e-6).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import label

from . import blas
from .camera import Camera, project_with_depth
from .errors import NumericalError, ValidationError
from .lsq import lm_solve
from .mesh import BodyMesh
from .model import (BoneTransforms, Frame, Pose2D, Pose3D, Skeleton,
                    _fk_levels, fk_global, forward_kinematics)
from .transforms import axis_angle_to_matrix, matrix_to_axis_angle, skew

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
        if np.abs(self.W.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValidationError("weight rows must sum to 1 within 1e-6")

    @property
    def num_vertices(self) -> int:
        return self.W.shape[0]

    @property
    def num_joints(self) -> int:
        return self.W.shape[1]


def weights_to_json(w: SkinningWeights) -> dict:
    rows, cols = np.nonzero(w.W)
    return {
        "shape": list(w.W.shape),
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "values": w.W[rows, cols].tolist(),
    }


def weights_from_json(d: dict) -> SkinningWeights:
    W = np.zeros(tuple(d["shape"]))
    W[np.asarray(d["rows"], int), np.asarray(d["cols"], int)] = d["values"]
    return SkinningWeights(W)


@dataclass(frozen=True)
class FitConfig:
    w3d: float = 1.0
    w2d: float = 0.0
    wprior: float = 1e-4   # L2 on axis-angle; breaks the twist ambiguity
    max_iters: int = 60
    tol: float = 1e-12

    def __post_init__(self):
        if min(self.w3d, self.w2d, self.wprior) < 0:
            raise ValidationError("fit weights must be nonnegative")


# ---------------------------------------------------------------------------
# Heat-diffusion skinning weights
# ---------------------------------------------------------------------------

def bone_sources(skeleton: Skeleton, rest_pose: Pose3D):
    """Per-joint heat-source segments [(a, b), ...]; empty list for leaves."""
    pos = rest_pose.positions
    return [[(pos[j], pos[c]) for c in skeleton.children(j)]
            for j in range(skeleton.num_joints)]


def heat_diffusion_weights(mesh: BodyMesh, skeleton: Skeleton, rest_pose: Pose3D,
                           voxel_res: int = 64, jacobi_tol: float = 1e-6,
                           max_jacobi_iters: int = 100000) -> SkinningWeights:
    """Skinning weights from steady-state heat diffusion on the voxelized
    interior, trilinearly sampled at the vertices, top-4 pruned, renormalized.
    """
    if skeleton.num_joints != rest_pose.num_joints:
        raise ValidationError("skeleton and rest pose joint counts differ")
    verts, faces = mesh.merged()
    if len(verts) == 0:
        raise ValidationError("empty mesh")

    occ, origin, h, dims = _voxelize(verts, faces, voxel_res)
    if not occ.any():
        raise ValidationError("empty voxelization")

    segments = bone_sources(skeleton, rest_pose)
    active = [j for j, segs in enumerate(segments) if segs]
    src_per_bone = []
    for j in active:
        vox = _segment_voxels(segments[j], origin, h, dims)
        vox = vox[occ.reshape(-1)[vox]] if vox.size else vox
        if vox.size == 0:
            raise ValidationError(
                f"bone of joint {skeleton.joint_names[j]!r} lies outside the voxel volume")
        src_per_bone.append(np.unique(vox))

    fields = _jacobi_diffusion(occ, src_per_bone, jacobi_tol, max_jacobi_iters)

    J = skeleton.num_joints
    W = np.zeros((len(verts), J))
    sampled = _sample_fields(fields, occ, origin, h, dims, verts)
    for k, j in enumerate(active):
        W[:, j] = sampled[:, k]

    # top-K pruning + renormalization
    if W.shape[1] > MAX_INFLUENCES:
        order = np.argsort(W, axis=1)
        W[np.arange(len(W))[:, None], order[:, :-MAX_INFLUENCES]] = 0.0
    sums = W.sum(axis=1)
    dead = sums <= 1e-12
    if dead.any():
        # vertices in source-free pockets: snap to the nearest bone segment
        nearest = _nearest_bone(verts[dead], [segments[j] for j in active])
        for row, k in zip(np.nonzero(dead)[0], nearest):
            W[row, :] = 0.0
            W[row, active[k]] = 1.0
        sums = W.sum(axis=1)
    W /= sums[:, None]
    return SkinningWeights(W)


def _voxelize(verts, faces, res):
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    extent = hi - lo
    h = float(extent.max()) / max(res, 1)
    if h <= 0:
        raise ValidationError("degenerate mesh bounding box")
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
    occupied = occ | (~occ & ~outside)
    return occupied, origin, h, dims


def _segment_voxels(segs, origin, h, dims):
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


def _jacobi_diffusion(occ, src_per_bone, tol, max_iters):
    dims = occ.shape
    flat_idx = np.nonzero(occ.reshape(-1))[0]
    compact = -np.ones(occ.size, dtype=int)
    compact[flat_idx] = np.arange(len(flat_idx))
    # 6-neighborhood adjacency over occupied voxels
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
    pin_rows = np.unique(np.concatenate(src_per_bone)) if B else np.zeros(0, int)
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
        delta = np.abs(nxt - u).max() if u.size else 0.0
        u = nxt
        if delta < tol:
            break
    else:
        raise NumericalError("heat diffusion failed to converge")
    return u


def _sample_fields(u, occ, origin, h, dims, verts):
    """Masked trilinear interpolation of compact fields at vertex positions."""
    compact = -np.ones(occ.size, dtype=int)
    compact[np.nonzero(occ.reshape(-1))[0]] = np.arange(u.shape[0])
    B = u.shape[1]
    out = np.zeros((len(verts), B))
    dims_a = np.array(dims)
    g = (verts - origin) / h - 0.5
    base = np.floor(g).astype(int)
    frac = g - base
    for vi in range(len(verts)):
        acc = np.zeros(B)
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
        if wsum > 1e-12:
            out[vi] = acc / wsum
        else:
            cell = np.clip(np.round(g[vi]).astype(int), 0, dims_a - 1)
            ci = compact[np.ravel_multi_index(tuple(cell), dims)]
            if ci >= 0:
                out[vi] = u[ci]
    return out


def _nearest_bone(points, seg_lists):
    """Index of the bone (in seg_lists order) nearest each point."""
    out = np.zeros(len(points), dtype=int)
    for i, p in enumerate(points):
        best, best_d = 0, np.inf
        for k, segs in enumerate(seg_lists):
            for a, b in segs:
                d = _point_segment_distance(p, np.asarray(a), np.asarray(b))
                if d < best_d:
                    best, best_d = k, d
        out[i] = best
    return out


def _point_segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom < 1e-18 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


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
    p_rest = forward_kinematics(skeleton, BoneTransforms.identity(skeleton.num_joints),
                                frame=Frame.WORLD).positions
    out = np.zeros_like(verts)
    for j in range(skeleton.num_joints):
        w = weights.W[:, j]
        if not np.any(w):
            continue
        t_j = p_posed[j] - R_glob[j] @ p_rest[j]
        out += w[:, None] * (verts @ R_glob[j].T + t_j)
    parts = []
    off = 0
    for p in rest.parts:
        parts.append(p.with_vertices(out[off:off + p.num_vertices]))
        off += p.num_vertices
    return rest.with_parts(parts)


# ---------------------------------------------------------------------------
# Keypoint fitting
# ---------------------------------------------------------------------------

class KeypointObjective:
    """Residual vector of ``fit_pose_to_keypoints`` and its analytic Jacobian.

    Parameters are the per-joint axis-angle rotations (3J), followed by the
    root translation (3) for world-frame targets. Residual blocks, in order:
    sqrt(w3d) * 3D joint error, sqrt(w2d) * 2D reprojection error (zero for
    invisible joints, 1e3 for joints with camera depth <= 1e-6), and
    sqrt(wprior) * axis-angle.

    The Jacobian comes from the same FK pass as the residual. For joint j and
    a descendant i, dp_i/domega_j = -[p_i - p_j]x R_glob(j) J_r(omega_j), with
    J_r the SO(3) right Jacobian; the root-translation columns are identity.
    """

    def __init__(self, skeleton: Skeleton, target3d: Pose3D,
                 target2d: Pose2D | None = None, camera: Camera | None = None,
                 cfg: FitConfig = FitConfig()):
        if cfg.w2d > 0 and (camera is None or target2d is None):
            raise ValidationError("2D term requires a camera and a 2D target")
        self.skeleton = skeleton
        self.target3d = target3d
        self.target2d = target2d
        self.camera = camera
        self.cfg = cfg
        self.world_frame = target3d.frame is Frame.WORLD
        J = skeleton.num_joints
        self.num_params = 3 * J + (3 if self.world_frame else 0)
        # ancestor[i, j]: joint j is joint i or one of its ancestors
        self._ancestor = np.eye(J, dtype=bool)
        for idx in skeleton._levels:
            self._ancestor[idx] |= self._ancestor[skeleton.parent[idx]]

    def unpack(self, params):
        J = self.skeleton.num_joints
        om = params[:3 * J].reshape(J, 3)
        root_t = params[3 * J:] if self.world_frame else np.zeros(3)
        return om, root_t

    def transforms(self, params) -> BoneTransforms:
        om, root_t = self.unpack(params)
        tr = np.zeros((len(om), 3))
        tr[0] = root_t
        return BoneTransforms(axis_angle_to_matrix(om), tr)

    def residuals(self, params, jacobian: bool = False):
        """Residual vector r, or (r, dr/dparams) when ``jacobian``."""
        cfg = self.cfg
        J = self.skeleton.num_joints
        om, root_t = self.unpack(params)
        offsets = self.skeleton.rest_offsets.copy()
        offsets[0] += root_t
        R_glob, pos_world = _fk_levels(self.skeleton, axis_angle_to_matrix(om), offsets)
        pos = pos_world if self.world_frame else pos_world - pos_world[0]
        if jacobian:
            jpos = self._position_jacobian(om, R_glob, pos_world)
        parts, jparts = [], []
        if cfg.w3d > 0:
            parts.append(np.sqrt(cfg.w3d) * (pos - self.target3d.positions).ravel())
            if jacobian:
                jparts.append(np.sqrt(cfg.w3d) * jpos.reshape(3 * J, -1))
        if cfg.w2d > 0:
            cam = self.camera
            uv, z = project_with_depth(cam, pos)
            r2 = np.sqrt(cfg.w2d) * (uv - self.target2d.pixels)
            off = ~self.target2d.visibility
            r2[off] = 0.0
            bad = z <= 1e-6
            if bad.any():
                r2[bad] = 1e3
            parts.append(r2.ravel())
            if jacobian:
                xyz = pos @ cam.R.T + cam.T
                zs = np.where(np.abs(z) < 1e-12, 1e-12, z)
                # d(uv)/d(camera xyz) of the pinhole, then through camera.R
                duv = np.zeros((J, 2, 3))
                duv[:, 0, 0] = cam.f / zs
                duv[:, 1, 1] = cam.f / zs
                duv[:, :, 2] = -cam.f * xyz[:, :2] / (zs * zs)[:, None]
                j2 = np.sqrt(cfg.w2d) * ((duv @ cam.R) @ jpos)
                j2[off | bad] = 0.0
                jparts.append(j2.reshape(2 * J, -1))
        if cfg.wprior > 0:
            parts.append(np.sqrt(cfg.wprior) * om.ravel())
            if jacobian:
                jparts.append(np.sqrt(cfg.wprior) * np.eye(3 * J, self.num_params))
        r = np.concatenate(parts)
        return (r, np.concatenate(jparts)) if jacobian else r

    def _position_jacobian(self, om, R_glob, pos):
        """(J, 3, num_params) derivative of the fitted joint positions."""
        J = self.skeleton.num_joints
        M = R_glob @ so3_right_jacobian(om)
        D = pos[:, None, :] - pos[None, :, :]
        # -[d]x m = m x d, for each column m of M_j
        C = np.cross(M.transpose(0, 2, 1)[None], D[:, :, None, :])
        C *= self._ancestor[:, :, None, None]
        jac = np.zeros((J, 3, self.num_params))
        jac[:, :, :3 * J] = C.transpose(0, 3, 1, 2).reshape(J, 3, 3 * J)
        if self.world_frame:
            jac[:, :, 3 * J:] = np.eye(3)
        # the root position does not depend on omega, so root-relative
        # positions p - p_root share this Jacobian
        return jac


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


# the normal equations are 108 x 108 at most: too small to gain from BLAS
# threads, and a split solve waits for a second core (see ``blas``)
@blas.single_thread()
def fit_pose_to_keypoints(skeleton: Skeleton, target3d: Pose3D,
                          target2d: Pose2D | None = None,
                          camera: Camera | None = None,
                          cfg: FitConfig = FitConfig(),
                          init: BoneTransforms | None = None):
    """Damped Gauss-Newton over per-joint axis-angle rotations (+ root
    translation for world-frame targets) minimizing 3D keypoint error,
    optional 2D reprojection error, and an L2 pose prior, with the analytic
    Jacobian of ``KeypointObjective``, by ``lsq.lm_solve``.

    Returns (BoneTransforms, info dict with the cost history, final cost,
    stop reason and per-joint residuals).
    """
    obj = KeypointObjective(skeleton, target3d, target2d, camera, cfg)
    J = skeleton.num_joints
    omega0 = np.zeros((J, 3))
    t0 = np.zeros(3)
    if init is not None:
        omega0 = np.stack([matrix_to_axis_angle(R) for R in init.rotations])
        t0 = init.translations[0].copy()
    p = np.concatenate([omega0.ravel(), t0]) if obj.world_frame else omega0.ravel()

    def cost(params):
        r = obj.residuals(params)
        return float(r @ r)

    p, rec = lm_solve(lambda q: obj.residuals(q, jacobian=True), cost, p,
                      lam=1e-4, lam_min=1e-12, tries=15, max_iters=cfg.max_iters,
                      max_rejects=10, rtol=cfg.tol)
    if rec.stop == "stalled":
        raise NumericalError("fitting diverged: cost non-decreasing for 10 steps")
    bt = obj.transforms(p)
    pose = forward_kinematics(skeleton, bt,
                              frame=Frame.WORLD if obj.world_frame else Frame.ROOT_RELATIVE)
    info = {
        "cost_history": rec.cost_history,
        "final_cost": rec.cost_history[-1],
        "stop": rec.stop,
        "joint_residuals": np.linalg.norm(pose.positions - target3d.positions, axis=1),
    }
    return bt, info
