import json

import numpy as np
import pytest

from courtpose.camera import (Camera, camera_from_json, camera_to_json,
                              pixel_ray, project, project_with_depth)
from courtpose.errors import BehindCameraError, ValidationError
from courtpose.transforms import look_at_rotation
from helpers import random_rotation


def simple_camera(f=1000.0):
    eye = np.array([0.0, 2.0, -5.0])
    R = look_at_rotation(eye, np.array([0.0, 0.0, 5.0]))
    return Camera(f, 320.0, 240.0, R, -R @ eye)


def test_optical_axis_projects_to_principal_point():
    cam = simple_camera()
    axis_point = cam.center + cam.R.T @ np.array([0.0, 0.0, 4.0])
    uv = project(cam, axis_point)
    assert np.allclose(uv, [320.0, 240.0], atol=1e-9)


def test_doubling_focal_doubles_offset():
    cam1 = simple_camera(1000.0)
    cam2 = simple_camera(2000.0)
    p = np.array([0.5, 1.0, 3.0])
    d1 = project(cam1, p) - np.array([320.0, 240.0])
    d2 = project(cam2, p) - np.array([320.0, 240.0])
    assert np.allclose(d2, 2.0 * d1, rtol=1e-12)


def test_projection_matches_homogeneous_matrix_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        R = random_rotation(rng)
        T = rng.normal(size=3)
        f = rng.uniform(500, 3000)
        px, py = rng.uniform(100, 900, size=2)
        cam = Camera(f, px, py, R, T)
        P = np.array([[f, 0, px], [0, f, py], [0, 0, 1.0]]) @ np.hstack([R, T[:, None]])
        w = rng.normal(size=3)
        zc = (R @ w + T)[2]
        if zc <= 0.1:
            continue
        h = P @ np.append(w, 1.0)
        assert np.abs(project(cam, w) - h[:2] / h[2]).max() < 1e-9


def test_behind_camera_raises():
    cam = simple_camera()
    behind = cam.center - cam.R.T @ np.array([0.0, 0.0, 1.0])
    with pytest.raises(BehindCameraError):
        project(cam, behind)
    _, z = project_with_depth(cam, behind)
    assert z[0] < 0


def test_project_is_project_with_depth_in_front_of_the_camera():
    cam = simple_camera()
    rng = np.random.default_rng(4)
    local = np.column_stack([rng.normal(size=(200, 2)), np.logspace(-6, 1.6, 200)])
    pts = cam.to_world(local)
    uv, z = project_with_depth(cam, pts)
    assert z.min() > 0
    assert np.array_equal(project(cam, pts), uv)
    for p, want in zip(pts[:20], uv):
        got = project(cam, p)
        assert got.shape == (2,) and np.array_equal(got, want)


@pytest.mark.parametrize("z", [0.0, -0.0, -1e-12, -3.0])
def test_project_raises_at_or_behind_the_camera_plane(z):
    # at the origin with the identity rotation, a point's z_c is its z exactly
    cam = Camera(1000.0, 320.0, 240.0, np.eye(3), np.zeros(3))
    with pytest.raises(BehindCameraError, match="1 point"):
        project(cam, [0.5, 0.5, z])
    with pytest.raises(BehindCameraError, match="1 point"):
        project(cam, [[0.5, 0.5, 2.0], [0.5, 0.5, z]])


def test_pixel_ray_inverts_projection():
    cam = simple_camera()
    w = np.array([0.4, 1.2, 2.5])
    uv = project(cam, w)
    d = pixel_ray(cam, uv)
    zc = cam.to_camera(w)[2]
    assert np.allclose(cam.to_world(zc * d), w, atol=1e-9)


def test_cropped_camera_consistency():
    cam = simple_camera()
    crop = cam.cropped((100.0, 50.0), 0.5)
    w = np.array([0.3, 0.8, 4.0])
    full = project(cam, w)
    assert np.allclose(project(crop, w), (full - [100.0, 50.0]) * 0.5, atol=1e-9)


def test_camera_validation():
    with pytest.raises(ValidationError):
        Camera(-5.0, 0, 0, np.eye(3), np.zeros(3))
    with pytest.raises(ValidationError):
        Camera(100.0, 0, 0, np.eye(3) * 1.1, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["f", "px", "py", "R", "T"])
def test_camera_refuses_a_non_finite_field(field, bad):
    # a NaN R used to pass, since a NaN defect is not > 1e-9
    good = {"f": 1000.0, "px": 320.0, "py": 240.0, "R": np.eye(3), "T": np.zeros(3)}
    value = np.array(good[field], dtype=float)
    value.flat[value.size // 2] = bad
    message = "focal length" if field == "f" else f"camera {field} must be finite"
    with pytest.raises(ValidationError, match=message):
        Camera(**{**good, field: value if value.ndim else float(value)})


def test_camera_json_round_trip():
    cam = simple_camera(1234.5)
    back = camera_from_json(json.loads(json.dumps(camera_to_json(cam))))
    assert back.f == cam.f
    assert np.allclose(back.R, cam.R)
    assert np.allclose(back.T, cam.T)
