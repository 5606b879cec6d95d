"""Pinhole camera with square pixels.

Extrinsics map world to camera coordinates, ``V_c = R @ V_w + T`` (x right,
y down, z forward); the projection is ``x_p = f * X_c / Z_c + p_x`` and the
symmetric expression for y. The world y axis is up (court plane y = 0), so
the world height of a camera-space point is ``R[:,1] . (V_c - T)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, ValidationError
from .model import json_number, json_numbers
from .transforms import rotation_defect


@dataclass(frozen=True)
class Camera:
    f: float               # focal length, pixels
    px: float              # principal point x, pixels
    py: float              # principal point y, pixels
    R: np.ndarray          # (3, 3) world-to-camera rotation
    T: np.ndarray          # (3,) translation, camera coords, meters

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float).reshape(3))
        if not (np.isfinite(self.f) and self.f > 0):
            raise ValidationError("focal length must be positive")
        # before the defect: the determinant of a non-finite R warns
        for name in ("px", "py", "R", "T"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValidationError(f"camera {name} must be finite")
        d = rotation_defect(self.R)
        if not d <= 1e-9:
            raise ValidationError(f"camera rotation not orthonormal within 1e-9 (defect {d:.3g})")

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.R.T @ self.T

    def to_camera(self, world: np.ndarray) -> np.ndarray:
        return np.asarray(world, dtype=float) @ self.R.T + self.T

    def to_world(self, cam: np.ndarray) -> np.ndarray:
        return (np.asarray(cam, dtype=float) - self.T) @ self.R

    def cropped(self, origin, scale: float) -> "Camera":
        """Camera expressing the axis-aligned crop ``(p - origin) * scale``."""
        ox, oy = origin
        return Camera(self.f * scale, (self.px - ox) * scale, (self.py - oy) * scale,
                      self.R, self.T)


def project(camera: Camera, world) -> np.ndarray:
    """``project_with_depth``'s pixels of world point(s); raises if any
    point has z_c <= 0."""
    pts = np.asarray(world, dtype=float)
    uv, z = project_with_depth(camera, pts)
    if np.any(z <= 0):
        raise BehindCameraError(f"{int(np.sum(z <= 0))} point(s) at or behind the camera plane")
    return uv[0] if pts.ndim == 1 else uv


def project_with_depth(camera: Camera, world):
    """(pixels, z_c) of world points (N, 3), behind-camera points included
    (the caller filters on z_c > 0); a |z_c| below 1e-12 divides as 1e-12."""
    pts = np.asarray(world, dtype=float).reshape(-1, 3)
    cam = camera.to_camera(pts)
    z = cam[:, 2]
    safe = np.where(np.abs(z) < 1e-12, 1e-12, z)
    uv = cam[:, :2] / safe[:, None] * camera.f + np.array([camera.px, camera.py])
    return uv, z


def pixel_ray(camera: Camera, pixel) -> np.ndarray:
    """Unit-depth ray direction in camera coordinates through a pixel."""
    x, y = np.asarray(pixel, dtype=float).reshape(2)
    return np.array([(x - camera.px) / camera.f, (y - camera.py) / camera.f, 1.0])


def camera_to_json(c: Camera) -> dict:
    return {"f": c.f, "px": c.px, "py": c.py,
            "R": c.R.reshape(9).tolist(), "T": c.T.tolist()}


def camera_from_json(d: dict) -> Camera:
    f, px, py = (json_number(d[k], f"camera {k}") for k in ("f", "px", "py"))
    return Camera(f, px, py, json_numbers(d["R"], "camera R").reshape(3, 3),
                  json_numbers(d["T"], "camera T"))
