"""Evaluation metrics: Procrustes alignment, ICP, MPJPE/MPVPE, Chamfer
distance (x1000, squared convention) and exact earth-mover distance on
farthest-point subsamples.

EMD's two kernels keep the bits of their norm-based forms: farthest-point
sampling runs on a (3, k, n) copy of k clouds with preallocated buffers, and
the cost matrix sums the squared differences per axis, in the left-to-right
order that ``np.linalg.norm`` reduces in. One FPS loop serves both of
``emd``'s clouds in lock step: per pick, a scalar subtraction per coordinate
row and cloud, the rest of the distance update once over all clouds, and one
``argmax`` along the rows.

scipy is imported where it is used, so that a process that never evaluates
pays none of its import: ``scipy.spatial`` in ``chamfer`` and ``icp``,
``scipy.optimize`` in ``emd``.

Every accelerated implementation here has a brute-force oracle in the test
suite (quadratic scans, permutation enumeration, random-restart alignment,
the norm-based loops).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import Pose3D

ICP_MAX_ITERS = 50
ICP_RTOL = 1e-8


@dataclass(frozen=True)
class ProcrustesResult:
    scale: float
    R: np.ndarray
    t: np.ndarray
    aligned: np.ndarray
    residual: float          # sum of squared distances after alignment
    degenerate: bool


def procrustes_align(X: np.ndarray, Y: np.ndarray, with_scale: bool = True) -> ProcrustesResult:
    """Closed-form minimizer of sum ||s R x_i + t - y_i||^2 (Umeyama).

    A reflection guard keeps R a proper rotation; rank-deficient point sets
    set the ``degenerate`` flag.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim != 2 or X.shape[1] != 3 or len(X) < 3:
        raise ValidationError("procrustes needs matching (K>=3, 3) point sets")
    mx, my = X.mean(axis=0), Y.mean(axis=0)
    Xc, Yc = X - mx, Y - my
    cov = Yc.T @ Xc / len(X)
    U, D, Vt = np.linalg.svd(cov)
    degenerate = bool(np.sum(D > 1e-12 * max(D[0], 1e-300)) < 2)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    if with_scale:
        var_x = float(np.mean(np.sum(Xc ** 2, axis=1)))
        if var_x < 1e-300:
            raise ValidationError("source points are all identical")
        s = float(np.trace(np.diag(D) @ S) / var_x)
    else:
        s = 1.0
    t = my - s * (R @ mx)
    aligned = s * (X @ R.T) + t
    residual = float(np.sum((aligned - Y) ** 2))
    return ProcrustesResult(s, R, t, aligned, residual, degenerate)


def _subset_positions(pose: Pose3D, subset) -> np.ndarray:
    idx = np.asarray(subset, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= pose.num_joints):
        raise ValidationError("evaluation subset indexes a missing joint")
    return pose.positions[idx]


def mpjpe(pred: Pose3D, gt: Pose3D, subset, procrustes: bool = False) -> float:
    """Mean per-joint position error over the subset, in millimeters."""
    return mpvpe(_subset_positions(pred, subset), _subset_positions(gt, subset), procrustes)


def mpvpe(pred_vertices: np.ndarray, gt_vertices: np.ndarray,
          procrustes: bool = False) -> float:
    """Mean per-vertex position error (one-to-one correspondence), mm."""
    P = np.asarray(pred_vertices, dtype=float)
    G = np.asarray(gt_vertices, dtype=float)
    if P.shape != G.shape:
        raise ValidationError("vertex counts differ; MPVPE needs correspondence")
    if procrustes:
        P = procrustes_align(P, G, with_scale=True).aligned
    return float(np.mean(np.linalg.norm(P - G, axis=1)) * 1000.0)


def rotation_error_deg(R_pred: np.ndarray, R_gt: np.ndarray) -> np.ndarray:
    """Geodesic angle between matching rotations (..., 3, 3), in degrees,
    from both the sine and the cosine, so that it stays exact near 0 and pi."""
    M = np.swapaxes(np.asarray(R_pred, dtype=float), -1, -2) @ np.asarray(R_gt, dtype=float)
    # M - M^T = 2 sin(angle) [axis]x and trace(M) - 1 = 2 cos(angle)
    v = M[..., [2, 0, 1], [1, 2, 0]] - M[..., [1, 2, 0], [2, 0, 1]]
    return np.degrees(np.arctan2(np.linalg.norm(v, axis=-1),
                                 np.trace(M, axis1=-2, axis2=-1) - 1.0))


def chamfer(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric mean squared nearest-neighbor distance, scaled by 1000.

    When A and B have equal sizes, pairing A_i with B_i bounds every
    nearest-neighbor distance, in either direction, by the largest
    ``|A_i - B_i|``; both k-d queries stop at that bound, padded by 1e-6 of
    it plus 1e-12 m, far above the few ulps by which the pairing's distances
    and the tree's can differ. A point that the bounded query leaves
    unanswered (distance inf) is queried again without the bound, and all
    points are queried without it when the sizes differ. The trees
    split at sliding midpoints instead of medians (``balanced_tree=False``),
    which builds them in about half the time. Neither the bound nor the
    tree's shape changes how the distance of a pair is computed, so each
    distance is the unbounded query's on a median-split tree, to the bit.
    """
    A = np.asarray(A, dtype=float).reshape(-1, 3)
    B = np.asarray(B, dtype=float).reshape(-1, 3)
    if len(A) == 0 or len(B) == 0:
        raise ValidationError("chamfer distance of an empty point set")
    from scipy.spatial import cKDTree
    bound = np.inf
    if len(A) == len(B):
        d = A - B
        bound = np.sqrt(np.max(np.vecdot(d, d))) * (1 + 1e-6) + 1e-12
    da = _nearest_distances(cKDTree(B, balanced_tree=False), A, bound)
    db = _nearest_distances(cKDTree(A, balanced_tree=False), B, bound)
    return 1000.0 * float(np.mean(da ** 2) + np.mean(db ** 2))


def _nearest_distances(tree, points, bound):
    """``tree.query(points)``'s distances, searched within ``bound`` first."""
    d, _ = tree.query(points, distance_upper_bound=bound)
    miss = np.flatnonzero(np.isinf(d))
    if len(miss):
        d[miss], _ = tree.query(points[miss])
    return d


def _farthest_from_centroid(P: np.ndarray) -> int:
    """FPS's first pick: the point farthest from the centroid, lowest index
    on ties."""
    return int(np.argmax(np.linalg.norm(P - P.mean(axis=0), axis=1)))


def _farthest_points(clouds, count: int) -> np.ndarray:
    """The (count, k) FPS picks of k clouds, in one lock-step loop.

    The clouds are the k rows of a (3, k, n) buffer, n the largest size; a
    smaller cloud is padded with copies of its first point, whose distances
    equal that point's and so never win ``argmax``'s lowest-index tie-break.
    Each pick subtracts each cloud's last pick from its own coordinate rows
    (a scalar subtraction per contiguous row runs faster than one broadcast
    subtraction of a column), then squares, sums in the left-to-right order
    that ``np.linalg.norm`` reduces in, roots and takes the minimum over all
    clouds at once, and one ``argmax`` along the rows picks for all. Needs
    ``1 <= count < len(P)`` for each cloud P."""
    k = len(clouds)
    n = max(len(P) for P in clouds)
    X = np.empty((3, k, n))
    for row, P in enumerate(clouds):
        X[:, row, :len(P)] = P.T
        X[:, row, len(P):] = P[0, :, None]
    diff = np.empty_like(X)
    dist = np.empty((k, n))
    dmin = np.full((k, n), np.inf)
    chosen = np.empty((count, k), dtype=np.intp)
    chosen[0] = [_farthest_from_centroid(P) for P in clouds]
    rows = [(row, X[axis, row], diff[axis, row]) for row in range(k) for axis in range(3)]
    for c in range(1, count):
        last = chosen[c - 1]
        for row, x, d in rows:
            np.subtract(x, x[last[row]], out=d)
        np.multiply(diff, diff, out=diff)
        np.add(diff[0], diff[1], out=dist)
        np.add(dist, diff[2], out=dist)
        np.sqrt(dist, out=dist)
        np.minimum(dmin, dist, out=dmin)
        dmin.argmax(axis=1, out=chosen[c])
    return chosen


def emd(A: np.ndarray, B: np.ndarray, subsample: int = 512) -> float:
    """Mean matched distance of the exact min-cost perfect matching between
    equal-size farthest-point subsamples (shortest augmenting path)."""
    A = np.asarray(A, dtype=float).reshape(-1, 3)
    B = np.asarray(B, dtype=float).reshape(-1, 3)
    if len(A) == 0 or len(B) == 0:
        raise ValidationError("earth-mover distance of an empty point set")
    m = min(subsample, len(A), len(B))
    if m < 1:
        raise ValidationError(f"a subsample needs at least one point, got {m}")
    # a whole cloud is its own subsample; the others are sampled in lock step
    clouds = [A, B]
    sampled = [i for i, P in enumerate(clouds) if m < len(P)]
    if sampled:
        chosen = _farthest_points([clouds[i] for i in sampled], m)
        for col, i in enumerate(sampled):
            clouds[i] = clouds[i][chosen[:, col]]
    cost = _distance_matrix(*clouds)
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def _distance_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of A and B, bit for bit as
    ``np.linalg.norm(A[:, None] - B[None], axis=2)``: the squares are summed
    per axis in the left-to-right order that the norm reduces in."""
    cost = np.subtract.outer(A[:, 0], B[:, 0])
    np.multiply(cost, cost, out=cost)
    diff = np.empty_like(cost)
    for k in (1, 2):
        np.subtract.outer(A[:, k], B[:, k], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(cost, diff, out=cost)
    return np.sqrt(cost, out=cost)


@dataclass(frozen=True)
class ICPResult:
    R: np.ndarray
    t: np.ndarray
    residuals: list   # RMS correspondence distance per iteration
    iterations: int


def icp(A: np.ndarray, B: np.ndarray) -> ICPResult:
    """Rigid alignment of A onto B by alternating nearest-neighbor
    correspondence with closed-form rigid Procrustes, for at most
    ``ICP_MAX_ITERS`` iterations, until the RMS gains less than ``ICP_RTOL``
    of its previous value."""
    A = np.asarray(A, dtype=float).reshape(-1, 3)
    B = np.asarray(B, dtype=float).reshape(-1, 3)
    if len(A) < 3 or len(B) < 3:
        raise ValidationError("ICP needs at least 3 points per set")
    from scipy.spatial import cKDTree
    tree = cKDTree(B)
    R = np.eye(3)
    t = np.zeros(3)
    residuals = []
    it = 0
    for it in range(1, ICP_MAX_ITERS + 1):
        moved = A @ R.T + t
        d, j = tree.query(moved)
        res = float(np.sqrt(np.mean(d ** 2)))
        residuals.append(res)
        fit = procrustes_align(A, B[j], with_scale=False)
        R, t = fit.R, fit.t
        if len(residuals) >= 2:
            prev = residuals[-2]
            if prev - res < ICP_RTOL * max(prev, 1e-300):
                break
    return ICPResult(R, t, residuals, it)
