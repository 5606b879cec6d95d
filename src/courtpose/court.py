"""Planar basketball-court model: line segments and circular arcs on y = 0.

The court follows official pro-court geometry (28.65 m x 15.24 m
playing surface, 1.8288 m circle radii, 7.24 m three-point arc meeting
straight segments 0.9144 m in from the sidelines). Broadcast frames always
show this one court, so its dimensions are module constants.

Court coordinates: x runs along the court length, z across the width, y up.
The origin is the center of the court; a 2D primitive point (u, v) lifts to
the 3D point (u, 0, v).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

LENGTH = 28.65                   # baseline to baseline
WIDTH = 15.24                    # sideline to sideline
CENTER_CIRCLE_RADIUS = 1.8288
THREE_POINT_RADIUS = 7.24
THREE_POINT_SIDE_INSET = 0.9144  # straight segment distance from sideline
HOOP_FROM_BASELINE = 1.6002
KEY_WIDTH = 4.8768
KEY_DEPTH = 5.7912               # baseline to free-throw line
FT_CIRCLE_RADIUS = 1.8288


@dataclass(frozen=True)
class LineSegment2D:
    p0: tuple
    p1: tuple

    def sample(self, spacing: float) -> np.ndarray:
        return self.points(self.params(spacing))

    def params(self, spacing: float) -> np.ndarray:
        """The sample parameters t in [0, 1] for points at most ``spacing`` apart."""
        length = np.linalg.norm(np.subtract(self.p1, self.p0, dtype=float))
        return np.linspace(0.0, 1.0, max(2, int(np.ceil(length / spacing)) + 1))

    def points(self, t: np.ndarray) -> np.ndarray:
        p0 = np.asarray(self.p0, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        return p0 + t[:, None] * (p1 - p0)


@dataclass(frozen=True)
class Arc2D:
    center: tuple
    radius: float
    angle_start: float  # radians, measured in the (u, v) plane
    angle_end: float

    def sample(self, spacing: float) -> np.ndarray:
        return self.points(self.params(spacing))

    def params(self, spacing: float) -> np.ndarray:
        """The sample angles for points at most ``spacing`` apart along the arc."""
        span = abs(self.angle_end - self.angle_start)
        n = max(2, int(np.ceil(span * self.radius / spacing)) + 1)
        return np.linspace(self.angle_start, self.angle_end, n)

    def points(self, a: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        return c + self.radius * np.stack([np.cos(a), np.sin(a)], axis=1)


@dataclass(frozen=True)
class CourtModel:
    primitives: tuple   # LineSegment2D / Arc2D on the y=0 plane
    length: float
    width: float

    def sample_points3d(self, spacing: float = 0.15) -> np.ndarray:
        """World-space samples of every primitive, (K, 3) with y = 0."""
        pts = np.concatenate([p.sample(spacing) for p in self.primitives], axis=0)
        return lift_to_plane(pts)

    @cached_property
    def landmarks3d(self) -> np.ndarray:
        """Named court points, (K, 3) read-only: the corners, the centre, the
        ends of every line segment, each arc's two ends and midpoint, and the
        centre circle's quarter points.

        Calibration's correspondences are the landmarks a frame shows; the
        same set is the reprojection-error evaluation set.
        """
        L2, W2 = self.length / 2.0, self.width / 2.0
        pts = [(-L2, -W2), (-L2, W2), (L2, W2), (L2, -W2), (0.0, 0.0),
               (0.0, -W2), (0.0, W2)]
        r = CENTER_CIRCLE_RADIUS
        pts += [(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)]
        for p in self.primitives:
            if isinstance(p, LineSegment2D):
                pts += [p.p0, p.p1]
            else:
                a0, a1 = p.angle_start, p.angle_end
                pts += map(tuple, p.points(np.array([a0, (a0 + a1) / 2.0, a1])))
        uniq = sorted(set((round(u, 9), round(v, 9)) for u, v in pts))
        out = lift_to_plane(np.asarray(uniq, dtype=float))
        out.flags.writeable = False
        return out


def lift_to_plane(uv: np.ndarray) -> np.ndarray:
    uv = np.asarray(uv, dtype=float).reshape(-1, 2)
    out = np.zeros((len(uv), 3))
    out[:, 0] = uv[:, 0]
    out[:, 2] = uv[:, 1]
    return out


@cache
def make_court_model() -> CourtModel:
    """The one court, built once: boundary, center line + circle, three-point
    arcs, free-throw boxes with circles."""
    L2, W2 = LENGTH / 2.0, WIDTH / 2.0
    prims = [
        # boundary rectangle
        LineSegment2D((-L2, -W2), (L2, -W2)),
        LineSegment2D((L2, -W2), (L2, W2)),
        LineSegment2D((L2, W2), (-L2, W2)),
        LineSegment2D((-L2, W2), (-L2, -W2)),
        # center line and circle
        LineSegment2D((0.0, -W2), (0.0, W2)),
        Arc2D((0.0, 0.0), CENTER_CIRCLE_RADIUS, 0.0, 2.0 * np.pi),
    ]
    for side in (-1.0, 1.0):
        # side = -1: hoop near x = -L/2, side = +1: mirrored
        hoop_u = side * (L2 - HOOP_FROM_BASELINE)
        # three-point straight segments run from the baseline to the arc
        v_in = W2 - THREE_POINT_SIDE_INSET
        du = np.sqrt(max(THREE_POINT_RADIUS ** 2 - v_in ** 2, 0.0))
        for sv in (-1.0, 1.0):
            prims.append(LineSegment2D((side * L2, sv * v_in),
                                       (hoop_u - side * du, sv * v_in)))
        # arc spans between the two straight segments, opening to mid-court
        a = np.arctan2(v_in, -side * du)
        if side < 0:
            prims.append(Arc2D((hoop_u, 0.0), THREE_POINT_RADIUS, -a, a))
        else:
            prims.append(Arc2D((hoop_u, 0.0), THREE_POINT_RADIUS, a, 2.0 * np.pi - a))
        # free-throw box (the key) and circle
        ft_u = side * (L2 - KEY_DEPTH)
        k2 = KEY_WIDTH / 2.0
        prims += [
            LineSegment2D((side * L2, -k2), (ft_u, -k2)),
            LineSegment2D((side * L2, k2), (ft_u, k2)),
            LineSegment2D((ft_u, -k2), (ft_u, k2)),
            Arc2D((ft_u, 0.0), FT_CIRCLE_RADIUS, 0.0, 2.0 * np.pi),
        ]
    return CourtModel(tuple(prims), LENGTH, WIDTH)
