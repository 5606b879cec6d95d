"""Procedural body and demo geometry: capsules and tubes.

Everything returns a PartMesh with outward-facing (CCW) winding.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .mesh import PartMesh
from .transforms import cross


def _frame_from_axis(axis: np.ndarray) -> np.ndarray:
    """Rotation whose third column is the (unit) axis."""
    z = np.asarray(axis, dtype=float)
    n = np.linalg.norm(z)
    if n < 1e-12:
        raise ValidationError("degenerate axis")
    z = z / n
    pick = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    x = cross(pick, z)
    x /= np.linalg.norm(x)
    y = cross(z, x)
    return np.stack([x, y, z], axis=1)


def _lathe(profile, n_seg, bottom_pole=None, top_pole=None):
    """Surface of revolution around local +z from (z, radius) profile rows."""
    rings = []
    verts = []
    for z, rad in profile:
        base = len(verts)
        for i in range(n_seg):
            phi = 2.0 * np.pi * i / n_seg
            verts.append((rad * np.cos(phi), rad * np.sin(phi), z))
        rings.append(base)
    faces = []
    for a, b in zip(rings[:-1], rings[1:]):
        for i in range(n_seg):
            j = (i + 1) % n_seg
            faces.append((a + i, a + j, b + j))
            faces.append((a + i, b + j, b + i))
    if bottom_pole is not None:
        p = len(verts)
        verts.append((0.0, 0.0, bottom_pole))
        r0 = rings[0]
        for i in range(n_seg):
            j = (i + 1) % n_seg
            faces.append((p, r0 + j, r0 + i))
    if top_pole is not None:
        p = len(verts)
        verts.append((0.0, 0.0, top_pole))
        rt = rings[-1]
        for i in range(n_seg):
            j = (i + 1) % n_seg
            faces.append((p, rt + i, rt + j))
    return np.asarray(verts, dtype=float), np.asarray(faces, dtype=int)


def capsule(p0, p1, radius: float, n_seg: int = 10, cap_rings: int = 3,
            shaft_rings: int = 2, part: str = "arms") -> PartMesh:
    """Closed capsule from p0 to p1 (hemispherical caps)."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    L = np.linalg.norm(p1 - p0)
    if radius <= 0:
        raise ValidationError("capsule radius must be positive")
    profile = []
    for t in range(1, cap_rings + 1):
        ang = -np.pi / 2 + (np.pi / 2) * t / cap_rings
        profile.append((radius * np.sin(ang), radius * np.cos(ang)))
    for k in range(1, shaft_rings + 1):
        profile.append((L * k / (shaft_rings + 1), radius))
    for t in range(0, cap_rings):
        ang = (np.pi / 2) * t / cap_rings
        profile.append((L + radius * np.sin(ang), radius * np.cos(ang)))
    verts, faces = _lathe(profile, n_seg, bottom_pole=-radius, top_pole=L + radius)
    R = _frame_from_axis(p1 - p0) if L > 1e-12 else np.eye(3)
    return PartMesh(verts @ R.T + p0, faces, part)


def tube(p0, p1, radius: float, n_seg: int = 12, n_rings: int = 4,
         part: str = "shirt") -> PartMesh:
    """Open cylinder (a sleeve): no caps, boundary rings at both ends."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    L = np.linalg.norm(p1 - p0)
    if L < 1e-12:
        raise ValidationError("tube endpoints coincide")
    profile = [(L * k / (n_rings - 1), radius) for k in range(n_rings)]
    verts, faces = _lathe(profile, n_seg)
    R = _frame_from_axis(p1 - p0)
    return PartMesh(verts @ R.T + p0, faces, part)

