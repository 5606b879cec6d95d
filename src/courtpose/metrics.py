"""Evaluation metrics: Procrustes alignment, ICP, MPJPE/MPVPE, Chamfer
distance (x1000, squared convention) and exact earth-mover distance on
farthest-point subsamples.

EMD's two kernels, the farthest-point rows and the cost matrix, are scipy's
``cdist``. Its Euclidean metric sums the three squared differences left to
right and takes the root, the arithmetic ``np.linalg.norm`` does on three
coordinates, so both keep the bits of their norm-based forms. Every point
set these metrics read is checked to be a finite (N, 3) array first.

scipy is imported where it is used, so that a process that never evaluates
pays none of its import: ``scipy.spatial`` in ``chamfer`` and ``icp``,
``scipy.optimize`` in ``emd``, whose ``scipy.spatial.distance`` import costs
nothing more, as ``scipy.optimize`` loads it.

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


def _point_set(X, what: str, at_least: int = 1) -> np.ndarray:
    """X as a finite (N, 3) float array with N >= ``at_least``, or a
    ``ValidationError`` that names the metric ``what``."""
    try:
        X = np.asarray(X, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{what} needs numeric points: {e}") from None
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValidationError(f"{what} needs (N, 3) point sets, got shape {X.shape}")
    if len(X) < at_least:
        raise ValidationError(f"{what} needs at least {at_least} points per set, got {len(X)}")
    if not np.isfinite(X).all():
        raise ValidationError(f"{what} needs finite points")
    return X


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
    X = _point_set(X, "procrustes", at_least=3)
    Y = _point_set(Y, "procrustes", at_least=3)
    if X.shape != Y.shape:
        raise ValidationError("procrustes needs matching point sets")
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
    P = _point_set(pred_vertices, "MPVPE")
    G = _point_set(gt_vertices, "MPVPE")
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
    A = _point_set(A, "chamfer distance")
    B = _point_set(B, "chamfer distance")
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


def _farthest_points(P: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` farthest-point picks of P: the point farthest from
    the centroid, then each time the point farthest from all picks so far,
    lowest index on ties. Each pick's distances are one ``cdist`` row into a
    preallocated buffer, folded into the running minimum in place."""
    from scipy.spatial.distance import cdist
    chosen = np.empty(count, dtype=np.intp)
    row = cdist(P.mean(axis=0)[None], P)
    i = chosen[0] = row.argmax()
    dmin = np.full(len(P), np.inf)
    for c in range(1, count):
        cdist(P[i:i + 1], P, out=row)
        np.minimum(dmin, row[0], out=dmin)
        i = chosen[c] = dmin.argmax()
    return chosen


def emd(A: np.ndarray, B: np.ndarray, subsample: int = 512) -> float:
    """Mean matched distance of the exact min-cost perfect matching between
    equal-size farthest-point subsamples (shortest augmenting path); a cloud
    no larger than the subsample is its own."""
    A = _point_set(A, "earth-mover distance")
    B = _point_set(B, "earth-mover distance")
    if isinstance(subsample, bool) or not isinstance(subsample, (int, np.integer)):
        raise ValidationError(f"a subsample size is an integer, got {subsample!r}")
    m = min(subsample, len(A), len(B))
    if m < 1:
        raise ValidationError(f"a subsample needs at least one point, got {m}")
    A, B = (P[_farthest_points(P, m)] if m < len(P) else P for P in (A, B))
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    cost = cdist(A, B)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


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
    A = _point_set(A, "ICP", at_least=3)
    B = _point_set(B, "ICP", at_least=3)
    from scipy.spatial import cKDTree
    tree = cKDTree(B, balanced_tree=False)
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
