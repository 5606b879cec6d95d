"""Small rigid-transform toolbox: rotation checks, axis-angle, cross products,
look-at."""
from __future__ import annotations

import numpy as np

from .errors import ValidationError


def rotation_defect(R: np.ndarray):
    """Max-abs deviation of R from a proper rotation (orthonormality + det):
    a float for one (3, 3) matrix, one per matrix for a (..., 3, 3) stack,
    and inf for any other shape."""
    R = np.asarray(R, dtype=float)
    if R.ndim < 2 or R.shape[-2:] != (3, 3):
        return np.inf
    ortho = np.abs(R @ np.swapaxes(R, -1, -2) - np.eye(3)).max(axis=(-2, -1))
    d = np.maximum(ortho, np.abs(np.linalg.det(R) - 1.0))
    return float(d) if R.ndim == 2 else d


def axis_angle_to_matrix(aa: np.ndarray) -> np.ndarray:
    """Rodrigues' formula; aa is a rotation vector (axis * angle, radians),
    (3,) -> (3, 3), or a stack of them, (N, 3) -> (N, 3, 3)."""
    aa = np.asarray(aa, dtype=float)
    # |aa| as a dot product, the arithmetic np.linalg.norm uses on one vector,
    # so a row's matrix does not depend on the batch it arrives in
    theta = np.sqrt(aa[..., None, :] @ aa[..., :, None])[..., 0, 0]
    # below 1e-12 the second-order series keeps the map smooth through zero
    small = theta < 1e-12
    K = skew(aa / np.where(small, 1.0, theta)[..., None])
    s = np.where(small, 1.0, np.sin(theta))[..., None, None]
    c = np.where(small, 0.5, 1.0 - np.cos(theta))[..., None, None]
    return np.eye(3) + s * K + c * (K @ K)


def matrix_to_axis_angle(R: np.ndarray) -> np.ndarray:
    """Inverse of ``axis_angle_to_matrix``, angle in [0, pi]: (3, 3) -> (3,),
    or a stack of them, (N, 3, 3) -> (N, 3). Rows are formed together; only
    those within 1e-9 of the identity or 1e-6 of a half turn take the scalar
    branches, so a row's vector does not depend on the batch it arrives in."""
    R = np.asarray(R, dtype=float)
    if R.ndim == 2:
        return matrix_to_axis_angle(R[None])[0]
    cos = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos)
    v = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0],
                  R[:, 1, 0] - R[:, 0, 1]], axis=1)
    edge = (theta < 1e-9) | (np.pi - theta < 1e-6)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = v / (2.0 * np.sin(theta))[:, None] * theta[:, None]
    for i in np.flatnonzero(edge):
        out[i] = _near_identity_or_half_turn(R[i], cos[i], theta[i], v[i])
    return out


def _near_identity_or_half_turn(R, cos, theta, v):
    if theta < 1e-9:
        return np.zeros(3)
    # near pi, v = 2 sin(theta) k is too small to divide by: take the axis
    # from the symmetric part (1 - cos) k k^T, its sign from v, and the
    # angle from atan2, which stays exact where arccos does not
    S = (R + R.T) / 2.0 - cos * np.eye(3)
    i = int(np.argmax(np.diag(S)))
    if S[i, i] <= 0:
        return np.zeros(3)
    axis = S[i] / np.linalg.norm(S[i])
    if axis @ v < 0:
        axis = -axis
    return axis * np.arctan2(np.linalg.norm(v) / 2.0, cos)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross(a, b)`` for (..., 3) arrays, broadcast over the leading
    axes, bit for bit: the components are formed as np.cross forms them,
    ``a1*b2 - a2*b1, a2*b0 - a0*b2, a0*b1 - a1*b0``, product by product,
    without np.cross's axis handling, which costs more than the arithmetic
    on the small arrays here."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,):
        raise ValidationError(f"cross needs (..., 3) arrays, got shapes {a.shape} and {b.shape}")
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices, skew(v) @ w == np.cross(v, w):
    (3,) -> (3, 3), or (N, 3) -> (N, 3, 3)."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise ValidationError(f"expected a (3,) or (N, 3) array, got shape {v.shape}")
    K = np.zeros(v.shape + (3,))
    K[..., 0, 1], K[..., 0, 2] = -v[..., 2], v[..., 1]
    K[..., 1, 0], K[..., 1, 2] = v[..., 2], -v[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -v[..., 1], v[..., 0]
    return K


def nearest_rotation(M: np.ndarray) -> np.ndarray:
    """Closest rotation to M in Frobenius norm (SVD sign-corrected)."""
    U, _, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    R = U @ Vt
    if np.linalg.det(R) < 0:
        U = U.copy()
        U[:, -1] = -U[:, -1]
        R = U @ Vt
    return R


def look_at_rotation(eye: np.ndarray, target: np.ndarray, up=(0.0, 1.0, 0.0)) -> np.ndarray:
    """World-to-camera rotation of a camera at `eye` looking at `target`.

    Camera convention: x right, y down, z forward (into the scene).
    """
    eye = np.asarray(eye, dtype=float)
    fwd = np.asarray(target, dtype=float) - eye
    n = np.linalg.norm(fwd)
    if n < 1e-12:
        raise ValidationError("look-at target coincides with eye")
    fwd = fwd / n
    upv = np.asarray(up, dtype=float)
    right = cross(fwd, upv)
    rn = np.linalg.norm(right)
    if rn < 1e-9:
        raise ValidationError("look-at direction parallel to up vector")
    right /= rn
    # y axis points down so that image rows grow downward
    down = cross(fwd, right)
    return np.stack([right, down, fwd], axis=0)
