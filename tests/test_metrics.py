import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree
from scipy.spatial import distance as scipy_distance

from courtpose import synth
from courtpose.errors import ValidationError
from courtpose.metrics import (_farthest_points, chamfer, emd, icp, mpjpe, mpvpe,
                               procrustes_align, rotation_error_deg)
from courtpose.model import Frame, Pose3D
from courtpose.synth import run_pipeline, synth_scene
from courtpose.transforms import axis_angle_to_matrix
from helpers import random_rotation


def rigid(rng):
    return random_rotation(rng), rng.normal(size=3)


# ---------------------------------------------------------------------------
# Procrustes
# ---------------------------------------------------------------------------

def test_procrustes_identity():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 3))
    fit = procrustes_align(X, X, with_scale=True)
    assert fit.residual < 1e-20
    assert np.abs(fit.R - np.eye(3)).max() < 1e-9
    assert abs(fit.scale - 1.0) < 1e-9
    assert np.abs(fit.t).max() < 1e-9


def test_procrustes_recovers_constructed_similarity():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(12, 3))
    R, t = rigid(rng)
    s = 1.7
    Y = s * X @ R.T + t
    fit = procrustes_align(X, Y, with_scale=True)
    assert abs(fit.scale - s) < 1e-9
    assert np.abs(fit.R - R).max() < 1e-9
    assert np.abs(fit.t - t).max() < 1e-9
    assert fit.residual < 1e-18


def test_procrustes_beats_random_restarts():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(15, 3))
    Y = rng.normal(size=(15, 3))
    fit = procrustes_align(X, Y, with_scale=False)
    for _ in range(100):
        R, t = rigid(rng)
        res = float(np.sum((X @ R.T + t - Y) ** 2))
        assert fit.residual <= res + 1e-9


def test_procrustes_reduces_residual():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(9, 3))
    Y = rng.normal(size=(9, 3))
    before = float(np.sum((X - Y) ** 2))
    assert procrustes_align(X, Y).residual <= before + 1e-12


def test_procrustes_degenerate_flag():
    X = np.zeros((4, 3))
    X[:, 0] = [0.0, 1.0, 2.0, 3.0]  # collinear
    fit = procrustes_align(X, X.copy(), with_scale=False)
    assert fit.degenerate


# ---------------------------------------------------------------------------
# MPJPE / MPVPE
# ---------------------------------------------------------------------------

def test_mpjpe_zero_translation_and_pa():
    rng = np.random.default_rng(4)
    pos = rng.normal(size=(35, 3))
    pos[0] = 0
    gt = Pose3D(pos)
    subset = list(range(14))
    assert mpjpe(gt, gt, subset) == 0.0
    shifted = Pose3D(pos + [0.01, 0.0, 0.0], frame=Frame.WORLD)
    assert mpjpe(shifted, gt, subset) == pytest.approx(10.0, rel=1e-9)
    assert mpjpe(shifted, gt, subset, procrustes=True) < 1e-6


def test_mpjpe_matches_loop_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(35, 3))
    b = rng.normal(size=(35, 3))
    a[0] = b[0] = 0
    subset = rng.choice(35, size=14, replace=False)
    got = mpjpe(Pose3D(a), Pose3D(b), subset)
    expect = np.mean([np.linalg.norm(a[j] - b[j]) for j in subset]) * 1000
    assert got == pytest.approx(expect, rel=1e-12)


def test_mpjpe_missing_joint():
    gt = Pose3D(np.zeros((10, 3)))
    with pytest.raises(ValidationError):
        mpjpe(gt, gt, [0, 20])


def test_mpvpe_mirrors_mpjpe():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(50, 3))
    assert mpvpe(a, a) == 0.0
    assert mpvpe(a + [0.0, 0.005, 0.0], a) == pytest.approx(5.0, rel=1e-9)
    assert mpvpe(a + [0.0, 0.005, 0.0], a, procrustes=True) < 1e-6
    b = rng.normal(size=(50, 3))
    expect = np.mean(np.linalg.norm(a - b, axis=1)) * 1000
    assert mpvpe(a, b) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValidationError):
        mpvpe(a, b[:20])


# ---------------------------------------------------------------------------
# Chamfer
# ---------------------------------------------------------------------------

def test_rotation_error_is_the_angle_between_rotations():
    rng = np.random.default_rng(9)
    G = np.stack([random_rotation(rng) for _ in range(20)])
    axes = rng.normal(size=(20, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    angles = np.concatenate([[0.0, 1e-9, 1e-5, np.pi - 1e-7, np.pi],
                             rng.uniform(0, np.pi, 15)])
    P = G @ axis_angle_to_matrix(axes * angles[:, None])
    err = rotation_error_deg(P, G)
    assert np.abs(err - np.degrees(angles)).max() < 1e-9
    assert np.array_equal(rotation_error_deg(G, G), np.zeros(20))
    # the arccos of the trace agrees away from 0 and pi, where it loses digits
    mid = slice(5, None)
    cos = (np.trace(np.swapaxes(P, 1, 2) @ G, axis1=1, axis2=2) - 1) / 2
    assert np.abs(err[mid] - np.degrees(np.arccos(cos[mid]))).max() < 1e-6


def test_chamfer_zero_and_singletons():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 3))
    assert chamfer(X, X) == 0.0
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[0.1, 0.0, 0.0]])
    assert chamfer(a, b) == pytest.approx(20.0, rel=1e-12)


def test_chamfer_matches_quadratic_oracle():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(150, 3))
    B = rng.normal(size=(130, 3))
    got = chamfer(A, B)
    d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
    expect = 1000.0 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())
    assert got == pytest.approx(expect, abs=1e-9)


def test_chamfer_symmetric_and_rigid_invariant():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(80, 3))
    B = rng.normal(size=(70, 3))
    assert chamfer(A, B) == pytest.approx(chamfer(B, A), rel=1e-12)
    R, t = rigid(rng)
    assert chamfer(A @ R.T + t, B @ R.T + t) == pytest.approx(
        chamfer(A, B), rel=1e-9)


def chamfer_oracle(A, B):
    """``chamfer`` from two unbounded k-d queries."""
    da, _ = cKDTree(B).query(A)
    db, _ = cKDTree(A).query(B)
    return 1000.0 * float(np.mean(da ** 2) + np.mean(db ** 2))


def test_chamfer_equals_unbounded_queries_on_pipeline_bodies(monkeypatch):
    # the predicted and true bodies of eval, equal in size, so the pairing
    # bound applies
    sizes = []

    def checking(A, B):
        got = chamfer(A, B)
        assert got == chamfer_oracle(A, B)
        sizes.append((len(A), len(B)))
        return got

    monkeypatch.setattr(synth, "chamfer", checking)
    for seed in range(5000, 5008):
        run_pipeline(synth_scene(seed))
    assert len(sizes) == 8 and all(a == b for a, b in sizes)


def _paired_cloud(rng, case):
    A = rng.normal(size=(300, 3))
    B = A + rng.normal(scale=0.02, size=A.shape)
    if case == "unequal_sizes":
        B = B[:250]
    elif case == "duplicated_points":
        A[100:200] = A[:100]
        B[150:] = B[0]
    elif case == "one_far_outlier":
        B[17] += 1e3
    elif case == "every_pair_at_the_bound":
        # a grid shifted by less than half its spacing: each point's nearest
        # neighbour is its partner, at the pairing bound itself
        A = np.stack(np.meshgrid(*[np.arange(7.0)] * 3), axis=-1).reshape(-1, 3)
        B = A + [0.1, 0.2, 0.3]
    return A, B


@pytest.mark.parametrize("case", ["unequal_sizes", "duplicated_points", "one_far_outlier",
                                  "every_pair_at_the_bound"])
@pytest.mark.parametrize("seed", [0, 1])
def test_chamfer_equals_unbounded_queries(case, seed):
    A, B = _paired_cloud(np.random.default_rng(seed), case)
    assert chamfer(A, B) == chamfer_oracle(A, B)
    assert chamfer(B, A) == chamfer_oracle(B, A)


def test_chamfer_empty_rejected():
    with pytest.raises(ValidationError):
        chamfer(np.zeros((0, 3)), np.zeros((4, 3)))


# ---------------------------------------------------------------------------
# EMD
# ---------------------------------------------------------------------------

def test_emd_zero_and_permutation_invariance():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(40, 3))
    assert emd(A, A) == 0.0
    perm = rng.permutation(40)
    assert emd(A, A[perm]) == 0.0


def test_emd_matches_permutation_enumeration():
    rng = np.random.default_rng(11)
    for n in (4, 6, 8):
        A = rng.normal(size=(n, 3))
        B = rng.normal(size=(n, 3))
        got = emd(A, B)
        cost = np.linalg.norm(A[:, None] - B[None, :], axis=2)
        best = min(np.mean([cost[i, p[i]] for i in range(n)])
                   for p in itertools.permutations(range(n)))
        assert got == pytest.approx(best, rel=1e-9)


def test_emd_symmetric_equal_sizes_and_rigid_invariant():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(30, 3))
    B = rng.normal(size=(30, 3))
    assert emd(A, B) == pytest.approx(emd(B, A), rel=1e-12)
    R, t = rigid(rng)
    assert emd(A @ R.T + t, B @ R.T + t) == pytest.approx(emd(A, B), rel=1e-9)


def test_emd_subsampling_deterministic():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(900, 3))
    B = rng.normal(size=(800, 3))
    assert emd(A, B, subsample=64) == emd(A, B, subsample=64)


def farthest_point_subsample_oracle(P, count):
    """The original loop: one full np.linalg.norm per pick."""
    P = np.asarray(P, dtype=float)
    if count >= len(P):
        return P.copy()
    chosen = [int(np.argmax(np.linalg.norm(P - P.mean(axis=0), axis=1)))]
    dmin = np.linalg.norm(P - P[chosen[0]], axis=1)
    for _ in range(count - 1):
        nxt = int(np.argmax(dmin))
        chosen.append(nxt)
        dmin = np.minimum(dmin, np.linalg.norm(P - P[nxt], axis=1))
    return P[chosen]


def farthest_point_subsample_axis_loop(P, count):
    """The per-axis loop the buffered kernel replaced: three coordinate
    differences and a new distance array per pick."""
    P = np.asarray(P, dtype=float)
    if count >= len(P):
        return P.copy()
    x, y, z = (np.ascontiguousarray(c) for c in P.T)

    def dist_to(i):
        dx, dy, dz = x - x[i], y - y[i], z - z[i]
        return np.sqrt(dx * dx + dy * dy + dz * dz)

    chosen = [int(np.argmax(np.linalg.norm(P - P.mean(axis=0), axis=1)))]
    dmin = dist_to(chosen[0])
    for _ in range(count - 1):
        nxt = int(np.argmax(dmin))
        chosen.append(nxt)
        np.minimum(dmin, dist_to(nxt), out=dmin)
    return P[chosen]


def integer_grid(n):
    g = np.arange(n, dtype=float)
    return np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("name", ["normal 3000", "skewed 6000", "grid 12^3",
                                  "root tie"])
def test_farthest_point_subsample_matches_norm_loop(name):
    rng = np.random.default_rng(21)
    P = {"normal 3000": lambda: rng.normal(size=(3000, 3)),
         "skewed 6000": lambda: rng.normal(size=(6000, 3)) * [3.0, 0.5, 1e-3] + 7.0,
         # every pick after the first is a tie broken by the lowest index
         "grid 12^3": lambda: integer_grid(12),
         # squared distances 1 and 1 + 2^-52 from the origin share the root
         # 1.0, so the second pick is a tie only after the square root
         "root tie": lambda: np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                       [1.0, 3 * 2.0 ** -28, 0.0]])}[name]()
    for count in (c for c in (1, 2, 64, 255) if c < len(P)):
        got = P[_farthest_points(P, count)]
        assert np.array_equal(got, farthest_point_subsample_oracle(P, count)), count
        assert np.array_equal(got, farthest_point_subsample_axis_loop(P, count)), count


@pytest.mark.parametrize("name", ["normal 3000 / 700", "grid 12^3 / skewed 500",
                                  "root tie / normal 40"])
def test_emd_of_unequal_clouds_matches_oracle(name):
    # both clouds sampled, from different sizes, ties and scales
    rng = np.random.default_rng(22)
    A, B = {"normal 3000 / 700": lambda: (rng.normal(size=(3000, 3)),
                                          rng.normal(size=(700, 3)) + 2.0),
            "grid 12^3 / skewed 500": lambda: (
                integer_grid(12), rng.normal(size=(500, 3)) * [3.0, 0.5, 1e-3]),
            "root tie / normal 40": lambda: (
                np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 3 * 2.0 ** -28, 0.0],
                          [0.5, 0.5, 0.0]]), rng.normal(size=(40, 3)))}[name]()
    for count in (1, 2, 3, min(len(A), len(B)) - 1):
        assert emd(A, B, subsample=count) == emd_oracle(A, B, count), count
        assert emd(B, A, subsample=count) == emd_oracle(B, A, count), count


@pytest.mark.parametrize("sizes", [(40, 40), (40, 25), (25, 40), (1, 30)])
def test_emd_of_a_whole_cloud_matches_oracle(sizes):
    # the subsample is a whole cloud: emd takes the one-cloud path
    rng = np.random.default_rng(sum(sizes))
    A, B = rng.normal(size=(sizes[0], 3)), rng.normal(size=(sizes[1], 3))
    for subsample in (min(sizes), 512):
        assert emd(A, B, subsample=subsample) == emd_oracle(A, B, subsample)


def emd_oracle(A, B, subsample):
    """The original EMD: the norm-loop subsamples and a broadcast norm cost."""
    m = min(subsample, len(A), len(B))
    Am = farthest_point_subsample_oracle(A, m)
    Bm = farthest_point_subsample_oracle(B, m)
    cost = np.linalg.norm(Am[:, None, :] - Bm[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


@pytest.mark.parametrize("seed", range(4))
def test_distance_matrix_matches_broadcast_norm(seed):
    # EMD's cost matrix is scipy's cdist: a scipy release that changes its
    # arithmetic fails here
    rng = np.random.default_rng(seed)
    scale = [1.0, 1e-3, 1e3, 7.0][seed]
    A = rng.normal(size=(200, 3)) * scale + rng.normal(size=3)
    B = rng.normal(size=(150, 3)) * scale
    B[:5] = A[:5]  # zero distances
    assert np.array_equal(scipy_distance.cdist(A, B),
                          np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2))


def test_cdist_rows_match_farthest_point_norm_rows():
    # FPS's rows are cdist from one point, or from the centroid, to a cloud
    rng = np.random.default_rng(4)
    P = rng.normal(size=(2000, 3)) * [3.0, 0.5, 1e-3] + 7.0
    for q in (P.mean(axis=0), *P):
        assert np.array_equal(scipy_distance.cdist(q[None], P)[0],
                              np.linalg.norm(P - q, axis=1))


@pytest.mark.parametrize("seed", range(3))
def test_emd_matches_norm_oracle(seed):
    rng = np.random.default_rng(30 + seed)
    A = rng.normal(size=(700, 3))
    B = A[rng.permutation(700)][:650] + 0.01 * rng.normal(size=(650, 3))
    for subsample in (32, 256):
        assert emd(A, B, subsample=subsample) == emd_oracle(A, B, subsample)


def test_emd_equals_oracle_on_pipeline_bodies(monkeypatch):
    # eval's predicted and true bodies, both sampled to EMD_SUBSAMPLE points
    sizes = []

    def checking(A, B, subsample):
        got = emd(A, B, subsample=subsample)
        assert got == emd_oracle(A, B, subsample)
        sizes.append((len(A), len(B), subsample))
        return got

    monkeypatch.setattr(synth, "emd", checking)
    for seed in range(5000, 5008):
        run_pipeline(synth_scene(seed))
    assert len(sizes) == 8 and all(min(a, b) > m for a, b, m in sizes)


@pytest.mark.parametrize("sizes, subsample, calls", [
    ((700, 650), 32, 2 * 32 + 1),  # both sampled: a start row and 31 pick rows each
    ((40, 25), 512, 25 + 1),       # only the larger cloud is sampled
    ((30, 30), 512, 1),            # neither: the cost matrix alone
], ids=["both sampled", "one sampled", "none sampled"])
def test_emd_makes_one_distance_row_per_pick(monkeypatch, sizes, subsample, calls):
    rng = np.random.default_rng(23)
    A, B = rng.normal(size=(sizes[0], 3)), rng.normal(size=(sizes[1], 3))
    cdist, shapes = scipy_distance.cdist, []

    def counting(XA, XB, *args, **kwargs):
        shapes.append((len(XA), len(XB)))
        return cdist(XA, XB, *args, **kwargs)

    monkeypatch.setattr(scipy_distance, "cdist", counting)
    emd(A, B, subsample=subsample)
    assert len(shapes) == calls
    m = min(subsample, *sizes)
    assert shapes[-1] == (m, m)
    assert all(rows == 1 for rows, _ in shapes[:-1])


def test_farthest_point_subsample_spreads():
    rng = np.random.default_rng(14)
    P = rng.normal(size=(200, 3))
    S = P[_farthest_points(P, 20)]
    assert S.shape == (20, 3)
    assert len(np.unique(S, axis=0)) == 20


@pytest.mark.parametrize("count", [0, -1])
def test_subsample_of_fewer_than_one_point_rejected(count):
    P = np.random.default_rng(15).normal(size=(10, 3))
    with pytest.raises(ValidationError, match=f"got {count}"):
        emd(P, P, subsample=count)


@pytest.mark.parametrize("subsample", [2.5, True, "8", None])
def test_subsample_that_is_not_an_integer_rejected(subsample):
    P = np.random.default_rng(15).normal(size=(10, 3))
    with pytest.raises(ValidationError, match="subsample size is an integer"):
        emd(P, P, subsample=subsample)


# ---------------------------------------------------------------------------
# Point-set checks
# ---------------------------------------------------------------------------

POINT_METRICS = {"mpvpe": (mpvpe, "MPVPE"), "chamfer": (chamfer, "chamfer distance"),
                 "emd": (emd, "earth-mover distance"), "icp": (icp, "ICP"),
                 "procrustes_align": (procrustes_align, "procrustes")}


def _with_point(P, value):
    P[7, 1] = value
    return P


BAD_POINT_SETS = {
    # 24 numbers that reshape(-1, 3) used to read as 8 points
    "(4, 6) array": lambda P: P[:8].reshape(4, 6),
    "(40, 2) array": lambda P: P[:, :2],
    "NaN point": lambda P: _with_point(P, np.nan),
    "inf point": lambda P: _with_point(P, -np.inf),
    "text": lambda P: [["x", "y", "z"]] * len(P),
}


@pytest.mark.parametrize("case", BAD_POINT_SETS)
@pytest.mark.parametrize("name", POINT_METRICS)
def test_bad_point_set_rejected_naming_the_metric(name, case):
    metric, what = POINT_METRICS[name]
    P = np.random.default_rng(41).normal(size=(40, 3))
    bad = BAD_POINT_SETS[case](P.copy())
    for args in ((bad, P), (P, bad)):
        with pytest.raises(ValidationError, match=what):
            metric(*args)


# ---------------------------------------------------------------------------
# ICP
# ---------------------------------------------------------------------------

def cloud(rng, n=120):
    # deliberately non-symmetric
    base = rng.normal(size=(n, 3)) * np.array([1.0, 0.4, 0.2])
    base[:, 0] += 0.3 * base[:, 1] ** 2
    return base


def test_icp_identity():
    rng = np.random.default_rng(15)
    A = cloud(rng)
    fit = icp(A, A)
    assert np.abs(fit.R - np.eye(3)).max() < 1e-9
    assert np.abs(fit.t).max() < 1e-9


def test_icp_recovers_8_degree_rigid_motion():
    rng = np.random.default_rng(16)
    A = cloud(rng)
    R = axis_angle_to_matrix(np.deg2rad(8.0) * np.array([0.2, 1.0, -0.3])
                             / np.linalg.norm([0.2, 1.0, -0.3]))
    t = np.array([0.3, -0.1, 0.2])
    B = A @ R.T + t
    fit = icp(A, B)
    assert np.abs(fit.R - R).max() < 1e-3
    assert np.abs(fit.t - t).max() < 1e-3
    assert all(b <= a + 1e-12 for a, b in zip(fit.residuals, fit.residuals[1:]))


def test_icp_empty_rejected():
    with pytest.raises(ValidationError):
        icp(np.zeros((2, 3)), np.zeros((5, 3)))
