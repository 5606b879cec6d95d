import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.transforms import (axis_angle_to_matrix, cross, look_at_rotation,
                                  matrix_to_axis_angle, nearest_rotation,
                                  rotation_defect, skew)
from helpers import random_rotation


def test_axis_angle_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        aa = rng.normal(scale=1.0, size=3)
        R = axis_angle_to_matrix(aa)
        assert rotation_defect(R) < 1e-12
        back = matrix_to_axis_angle(R)
        assert np.allclose(axis_angle_to_matrix(back), R, atol=1e-9)


def test_rotation_defect_of_a_stack_is_one_per_matrix():
    rng = np.random.default_rng(4)
    R = np.stack([random_rotation(rng) for _ in range(6)]).reshape(2, 3, 3, 3)
    R[1, 2, 0, 1] += 1e-3
    d = rotation_defect(R)
    assert d.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = rotation_defect(R[idx])
        assert isinstance(single, float) and abs(d[idx] - single) < 1e-15
    assert d[1, 2] > 1e-4 and np.delete(d.ravel(), 5).max() < 1e-12
    assert rotation_defect(np.eye(4)) == np.inf
    assert rotation_defect(np.ones(3)) == np.inf
    assert rotation_defect(np.ones((2, 3, 4))) == np.inf


def test_axis_angle_zero_is_identity():
    assert np.allclose(axis_angle_to_matrix(np.zeros(3)), np.eye(3))


def scalar_rodrigues(aa):
    """Oracle: Rodrigues' formula for one rotation vector."""
    def cross_matrix(v):
        x, y, z = v
        return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])

    theta = np.linalg.norm(aa)
    if theta < 1e-12:
        K = cross_matrix(aa)
        return np.eye(3) + K + 0.5 * (K @ K)
    K = cross_matrix(aa / theta)
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def test_batched_rodrigues_matches_scalar_formula_per_row():
    rng = np.random.default_rng(2)
    axes = rng.normal(size=(40, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    aa = np.vstack([
        np.zeros((2, 3)),
        axes[:8] * 10.0 ** rng.uniform(-16, -12, size=(8, 1)),  # series branch
        axes[8:16] * 1e-12,                                     # the branch edge
        axes[16:24] * (np.pi - 10.0 ** rng.uniform(-12, -3, size=(8, 1))),
        axes[24:] * np.pi,
        rng.normal(scale=1.5, size=(30, 3)),
    ])
    batch = axis_angle_to_matrix(aa)
    assert batch.shape == (len(aa), 3, 3)
    for v, R in zip(aa, batch):
        oracle = scalar_rodrigues(v)
        assert np.abs(R - oracle).max() < 1e-14
        assert np.abs(axis_angle_to_matrix(v) - R).max() < 1e-15
    assert axis_angle_to_matrix(np.zeros((0, 3))).shape == (0, 3, 3)


def test_skew_matches_cross_product():
    rng = np.random.default_rng(4)
    v, w = rng.normal(size=(2, 25, 3))
    assert np.abs(skew(v) @ w[:, :, None] - np.cross(v, w)[:, :, None]).max() < 1e-15
    assert np.abs(skew(v[0]) @ w[0] - np.cross(v[0], w[0])).max() < 1e-15
    assert skew(v).shape == (25, 3, 3)
    for bad in (np.zeros(4), np.zeros((2, 2)), np.zeros((2, 2, 3))):
        with pytest.raises(ValidationError):
            skew(bad)


def _special_values(rng, n):
    """Rows mixing ordinary numbers with +-0, +-inf, NaN and subnormals."""
    pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2e-308, 1.0, -1.0, 1e300, -3.5])
    X = rng.normal(size=(n, 3))
    mask = rng.random((n, 3)) < 0.5
    X[mask] = rng.choice(pool, size=mask.sum())
    return X


@pytest.mark.parametrize("shapes", [((3,), (3,)), ((500, 3), (500, 3)), ((3,), (40, 3)),
                                    ((161, 3, 3), (161, 1, 3)), ((7, 1, 3), (1, 5, 3))],
                         ids=["vectors", "rows", "vector x rows", "jacobian", "outer"])
def test_cross_equals_np_cross_bit_for_bit(shapes):
    rng = np.random.default_rng(sum(map(len, shapes)))
    a, b = (_special_values(rng, int(np.prod(s[:-1]))).reshape(s) for s in shapes)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = cross(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_cross_rejects_non_3_vectors():
    with pytest.raises(ValidationError):
        cross(np.zeros(2), np.zeros(3))
    with pytest.raises(ValidationError):
        cross(np.zeros((4, 3)), np.zeros((3, 4)))


def test_axis_angle_round_trip_near_pi():
    rng = np.random.default_rng(5)
    axes = rng.normal(size=(2000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    theta = np.pi - 10.0 ** rng.uniform(-9, -6, size=2000)
    for aa in axes * theta[:, None]:
        R = axis_angle_to_matrix(aa)
        back = axis_angle_to_matrix(matrix_to_axis_angle(R))
        assert np.abs(back - R).max() < 1e-9


def test_nearest_rotation_projects():
    rng = np.random.default_rng(1)
    R = random_rotation(rng)
    noisy = R + rng.normal(scale=1e-3, size=(3, 3))
    P = nearest_rotation(noisy)
    assert rotation_defect(P) < 1e-12
    assert np.abs(P - R).max() < 5e-3


def test_look_at_is_proper_rotation_and_faces_target():
    eye = np.array([1.0, 5.0, 10.0])
    target = np.array([0.0, 0.0, 0.0])
    R = look_at_rotation(eye, target)
    assert rotation_defect(R) < 1e-12
    fwd = R[2]
    d = (target - eye) / np.linalg.norm(target - eye)
    assert np.allclose(fwd, d)


def test_look_at_degenerate_up():
    with pytest.raises(ValidationError):
        look_at_rotation(np.array([0.0, 5.0, 0.0]), np.zeros(3))  # straight down, up parallel
