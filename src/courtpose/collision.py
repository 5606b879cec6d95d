"""Nearest-point-on-mesh queries and the garment collision detector.

``FaceTable(vertices, faces).nearest`` answers many query points at once; a
mesh that never moves keeps one table over all its queries. A conservative
bounding-sphere cull, run in cache-sized chunks of points x faces, drops
the point-face pairs that cannot be nearest, a plane cut drops those of the
rest whose face plane lies beyond the point's bound (a point is at least as
far from a triangle as from its plane; Ericson, Real-Time Collision
Detection, 2005, ch. 5), and the exact region tests run once on the pairs
left, then once more on the points that need the all-faces fallback: each
pair's faces come from the table's packed (F, 18) rows, each pair's Voronoi
region is classified once and only that region's closest point is formed,
and each point keeps the first of its pairs at the minimum distance
(``np.minimum.reduceat``), which is its lowest face on ties.
``nearest_triangle_bruteforce`` is its one-point reference: face, closest
point and squared distance are bit-identical, ties included. Given a
distance limit, the query also drops every face beyond it and answers only
the points within it.

A body vertex collides with a garment when it sits OUTSIDE the garment
surface (positive signed offset along the nearest triangle's outward normal)
and within a proximity band of it. Garments are open shells, so parity-based
inside/outside tests are undefined; the sign-plus-band predicate is the
documented stand-in, isolated here for replacement. The detector takes the
garment's ``FaceTable`` and needs the nearest face of in-band vertices only,
so it passes the band as the limit: on the bench scenes (5000-5007) 1.4% of
the point-face pairs reach the exact pass then, against 4.2% without it
(4.5% and 7.6% without the plane cut). Only the one-point reference
``point_triangle_closest`` and the chunk loop of the cull stay in Python.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .mesh import PartMesh, face_normals

COLLISION_BAND = 0.05  # meters


def point_triangle_closest(p, a, b, c):
    """Closest point on triangle abc to p and its barycentric coordinates."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = ab @ ap
    d2 = ac @ ap
    if d1 <= 0.0 and d2 <= 0.0:
        return a, (1.0, 0.0, 0.0)
    bp = p - b
    d3 = ab @ bp
    d4 = ac @ bp
    if d3 >= 0.0 and d4 <= d3:
        return b, (0.0, 1.0, 0.0)
    vc = d1 * d4 - d3 * d2
    if vc <= 0.0 and d1 >= 0.0 and d3 <= 0.0:
        v = d1 / (d1 - d3)
        return a + v * ab, (1.0 - v, v, 0.0)
    cp = p - c
    d5 = ab @ cp
    d6 = ac @ cp
    if d6 >= 0.0 and d5 <= d6:
        return c, (0.0, 0.0, 1.0)
    vb = d5 * d2 - d1 * d6
    if vb <= 0.0 and d2 >= 0.0 and d6 <= 0.0:
        w = d2 / (d2 - d6)
        return a + w * ac, (1.0 - w, 0.0, w)
    va = d3 * d6 - d5 * d4
    if va <= 0.0 and (d4 - d3) >= 0.0 and (d5 - d6) >= 0.0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        return b + w * (c - b), (0.0, 1.0 - w, w)
    denom = 1.0 / (va + vb + vc)
    v = vb * denom
    w = vc * denom
    return a + ab * v + ac * w, (1.0 - v - w, v, w)


def nearest_triangle_bruteforce(p, vertices, faces):
    """(face index, closest point, squared distance); lowest face index wins ties."""
    best = (np.inf, -1, None)
    for fi in range(len(faces)):
        a, b, c = vertices[faces[fi]]
        q, _ = point_triangle_closest(p, a, b, c)
        d2 = float(np.sum((p - q) ** 2))
        if d2 < best[0]:
            best = (d2, fi, q)
    if best[1] < 0:
        raise ValidationError("mesh has no faces")
    return best[1], best[2], best[0]


# point-face pairs per chunk of the batched query; bounds the temporaries of
# its cull (a few arrays of this many floats) and of its exact pass. At 2^15
# a cull temporary is 256 KiB and stays in cache: compose's largest query
# (328 x 320) runs in four chunks, about a fifth faster than in one.
QUERY_CHUNK_PAIRS = 1 << 15

# Margins of the bounding-sphere cull and the plane cut: relative to the
# magnitudes involved, plus an absolute floor in meters. Each is orders of
# magnitude above the rounding it covers (a few ulps of those magnitudes), so
# a face is dropped only when its computed distance must exceed the point's
# bound.
_CULL_REL = 1e-6
_CULL_ABS = 1e-12


class FaceTable:
    """What the nearest-triangle query needs of a triangle mesh, formed once:
    one packed (F, 18) row per face, (a, b, c, b - a, c - a, c - b), with the
    faces' unit normals, the padded bounding spheres of the cull, the
    (normal, offset) rows of the plane cut and the vertices some face
    references. A mesh that does not move (compose's garments) keeps one
    table over all its queries."""

    def __init__(self, vertices, faces):
        vertices = np.asarray(vertices, dtype=float)
        faces = np.asarray(faces, dtype=int).reshape(-1, 3)
        if len(faces) == 0:
            raise ValidationError("mesh has no faces")
        a, b, c = (vertices[faces[:, k]] for k in range(3))
        ab, ac = b - a, c - a
        self.table = np.concatenate([a, b, c, ab, ac, c - b], axis=1)
        self.normals = face_normals(vertices, faces)
        self.centre = (a + b + c) / 3.0
        self.cc = np.vecdot(self.centre, self.centre)
        radius = np.sqrt(np.max([np.vecdot(x - self.centre, x - self.centre)
                                 for x in (a, b, c)], axis=0))
        # also covers a computed closest point's offset from its triangle
        radius += _CULL_REL * (radius + np.sqrt(self.cc)) + _CULL_ABS
        self.radius = radius
        self.corners = vertices[np.unique(faces)]
        self.vv = np.vecdot(self.corners, self.corners)
        # the plane cut's (n, a.n) rows, n the unit normal; a face so thin
        # (|ab x ac| < _CULL_REL |ab| |ac|, tested as cos^2 of the angle at
        # a above 1 - _CULL_REL^2) that rounding may turn its computed normal
        # by more than about 1e-9 rad gets the zero normal, as a zero-area
        # face has, so its offset is 0 and it is never cut
        abac = np.vecdot(ab, ac)
        thin = abac * abac > (1 - _CULL_REL ** 2) * np.vecdot(ab, ab) * np.vecdot(ac, ac)
        n = np.where(thin[:, None], 0.0, self.normals)
        self.plane = np.column_stack([n, np.vecdot(a, n)])

    @property
    def num_faces(self) -> int:
        return len(self.table)

    def nearest(self, points, limit=None):
        """Exact nearest triangle of each of ``points`` against this mesh.

        Returns (face index (n,), closest point (n, 3), squared distance (n,)).
        Every result equals ``nearest_triangle_bruteforce`` bit for bit; ties
        go to the lowest face index.

        With a distance ``limit``, only the points whose squared distance is
        below ``limit ** 2`` are answered so; every other point gets face -1, a
        NaN closest point and an infinite distance.

        Faces are first culled per point, in chunks of at most
        ``QUERY_CHUNK_PAIRS`` point-face pairs: the nearest vertex that some
        face references bounds the point's distance to the mesh from above, and
        so does the limit; a face whose bounding sphere lies beyond that bound
        cannot be the answer. Of the kept pairs of all chunks, a pair whose
        squared offset from the face's plane, ``(p.n - a.n)`` squared with n
        the unit normal and a a corner, exceeds the point's padded bound is
        dropped too: a point is at least as far from a triangle as from its
        plane. The pairs left then run the region tests of
        ``point_triangle_closest`` in one pass, with the same expressions in
        the same order. A point whose best kept distance exceeds its vertex
        bound while that bound is below the limit (a degenerate face gives no
        finite distance) is answered against all faces instead, in one more
        pass over all such points.

        Both cuts drop a pair only when its computed distance must exceed the
        point's bound, so a dropped pair could never have been a point's answer
        and every result is the one without the cuts, bit for bit. Their
        margins, ``_CULL_REL`` relative and ``_CULL_ABS`` meters absolute, sit
        orders of magnitude above the rounding they cover, which is a few ulps
        of the magnitudes involved. For the plane cut the bound's square root
        is padded by ``_CULL_REL`` of itself, of ``|p|`` and of the largest
        bounding-sphere diameter of the faces, plus ``_CULL_ABS``. That covers
        (a) the rounding of the offset: ``p.n`` and ``a.n`` round by a few ulps
        of ``|p|`` and ``|a|``, where ``|a|`` is at most ``|p|`` plus the bound
        plus that diameter for a pair the sphere cull kept; and the normal's
        direction, formed from rounded edges, is off by at most about 4 ulps /
        ``_CULL_REL``, some 1e-9 rad, since a thinner face
        (``|ab x ac| < _CULL_REL |ab| |ac|``) gets the zero normal and is
        never cut, which moves the offset by at most 1e-9 of ``|p - a|``,
        itself at most the pair's distance plus that diameter. And it covers
        (b) the exact pass: its closest point lies within rounding of the
        magnitudes ``|p|`` and ``|a|`` of a point of the triangle, and its
        squared distance rounds by a few ulps. A NaN offset is never cut.
        """
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(points)):
            raise ValidationError("query points must be finite")
        limit2 = np.inf if limit is None else float(limit) ** 2
        F = self.num_faces
        upper = np.empty(len(points))
        kept = [(np.zeros(0, dtype=int),) * 2]  # (point, face) pairs; none for no points
        step = max(1, QUERY_CHUNK_PAIRS // F)
        for s in range(0, len(points), step):
            p = points[s:s + step]
            pp = np.vecdot(p, p)[:, None]
            # |p - x|^2 = |p|^2 + |x|^2 - 2 p.x, whose rounding is a few ulps of
            # |p|^2 + |x|^2: `upper` is at least the squared distance to the
            # nearest corner, `lower` at most that to each face's centre
            # (each formed in place, in the order of the expression
            # (1 + _CULL_REL) * (pp + vv) - 2.0 * (p @ corners.T))
            to_corner = np.add(pp, self.vv)
            to_corner *= 1 + _CULL_REL
            px = p @ self.corners.T
            px *= 2.0
            to_corner -= px
            up = upper[s:s + step] = to_corner.min(axis=1)
            lower = np.add(pp, self.cc)
            lower *= 1 - _CULL_REL
            px = p @ self.centre.T
            px *= 2.0
            lower -= px
            # the factor covers the relative rounding of the exact pass's distances
            reach = np.add(((1 + _CULL_REL) * np.sqrt(np.minimum(up, limit2)))[:, None],
                           self.radius)
            reach *= reach
            pi, fi = _pairs(lower <= reach)
            kept.append((pi + s, fi))
        pi, fi = map(np.concatenate, zip(*kept))
        # the plane cut: a face is at least as far from a point as its plane,
        # so a pair whose plane offset exceeds the point's bound cannot be
        # the answer; `bound` pads that bound for the rounding of the offset
        # and of the exact pass (see the docstring)
        bound = np.add((1 + _CULL_REL) * np.sqrt(np.minimum(upper, limit2)),
                       _CULL_REL * (np.sqrt(np.vecdot(points, points))
                                    + 2.0 * self.radius.max()) + _CULL_ABS)
        bound *= bound
        plane = self.plane.take(fi, axis=0)
        pn = points.take(pi, axis=0)
        pn *= plane[:, :3]
        off = pn[:, 0] + pn[:, 1]
        off += pn[:, 2]
        off -= plane[:, 3]
        off *= off
        cut = ~(off > bound.take(pi))
        # one exact pass over the pairs left, sorted by point, then face
        face, closest, dist2 = _nearest_among(points, (pi[cut], fi[cut]), self.table)
        # a point whose best kept distance exceeds its vertex bound while that
        # bound is below the limit (a degenerate face gives no finite
        # distance) is answered against all faces; where the limit is the
        # tighter bound, the cull kept every face within it, so no answer
        # can be missing
        redo = np.flatnonzero(~(dist2 <= upper) & ~(upper >= limit2))
        if len(redo):
            every = _pairs(np.ones((len(redo), F), dtype=bool))
            face[redo], closest[redo], dist2[redo] = _nearest_among(
                points[redo], every, self.table)
        if limit is not None:
            out = ~(dist2 < limit2)
            face[out], closest[out], dist2[out] = -1, np.nan, np.inf
        elif not np.all(np.isfinite(dist2)):
            raise ValidationError("no finite nearest triangle for some query point")
        return face, closest, dist2



def _pairs(keep):
    """The (point, face) indices of the True entries of ``keep`` (n, F),
    sorted by point, then face: ``np.nonzero(keep)`` from one flat scan."""
    return np.divmod(np.flatnonzero(keep), keep.shape[1])


def _nearest_among(points, pairs, table):
    """Nearest face of each of the n points among the (point, face) ``pairs``.

    ``pairs`` is sorted by point, then face, as ``_pairs`` gives them;
    ``table`` holds one (a, b, c, b - a, c - a, c - b) row per face.
    Returns (face, closest point, squared distance) per point; a point
    without pairs gets distance inf.
    """
    pi, fi = pairs
    n = len(points)
    face = np.zeros(n, dtype=int)
    closest = np.zeros((n, 3))
    dist2 = np.full(n, np.inf)
    if len(pi) == 0:
        return face, closest, dist2
    tri = table.take(fi, axis=0)
    # p - a, p - b and p - c of every pair in one subtraction
    diff = np.tile(points, 3).take(pi, axis=0)
    diff -= tri[:, :9]
    q = _closest_points(diff, tri)
    d = points.take(pi, axis=0) - q
    # the scalar sum order of np.sum((p - q) ** 2)
    d2 = d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2
    d2[np.isnan(d2)] = np.inf
    # each point's minimum, then the first of its pairs at that minimum:
    # faces ascend within a point, so ties go to the lowest face
    start = np.flatnonzero(np.diff(pi, prepend=-1))
    best = np.minimum.reduceat(d2, start)
    at_best = np.flatnonzero(d2 == np.repeat(best, np.diff(start, append=len(pi))))
    first = at_best[np.flatnonzero(np.diff(pi[at_best], prepend=-1))]
    rows = pi[first]
    face[rows], closest[rows], dist2[rows] = fi[first], q[first], d2[first]
    return face, closest, dist2


def _closest_points(diff, tri):
    """``point_triangle_closest`` for K points against one triangle each.

    Row k of ``tri`` (K, 18) holds the triangle's a, b, c, b - a, c - a and
    c - b; row k of ``diff`` (K, 9) holds p - a, p - b and p - c. Each row's
    region is the first whose test holds, as the scalar early returns take
    it, and only that region's point is formed for the row, with the scalar
    expressions."""
    ap, bp, cp = diff[:, 0:3], diff[:, 3:6], diff[:, 6:9]
    ab, ac = tri[:, 9:12], tri[:, 12:15]
    d1 = np.vecdot(ab, ap)
    d2 = np.vecdot(ac, ap)
    d3 = np.vecdot(ab, bp)
    d4 = np.vecdot(ac, bp)
    vc = d1 * d4 - d3 * d2
    d5 = np.vecdot(ab, cp)
    d6 = np.vecdot(ac, cp)
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    e43 = d4 - d3
    e56 = d5 - d6
    A, B, C, AB, AC, BC = (slice(j, j + 3) for j in range(0, 18, 3))

    def interior(t, i):
        denom = 1.0 / (va[i] + vb[i] + vc[i])
        v = (vb[i] * denom)[:, None]
        w = (vc[i] * denom)[:, None]
        return t[:, A] + t[:, AB] * v + t[:, AC] * w

    # (test, closest point of the rows t = tri[i] whose region it is)
    regions = [
        ((d1 <= 0.0) & (d2 <= 0.0), lambda t, i: t[:, A]),
        ((d3 >= 0.0) & (d4 <= d3), lambda t, i: t[:, B]),
        ((vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0),
         lambda t, i: t[:, A] + (d1[i] / (d1[i] - d3[i]))[:, None] * t[:, AB]),
        ((d6 >= 0.0) & (d5 <= d6), lambda t, i: t[:, C]),
        ((vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0),
         lambda t, i: t[:, A] + (d2[i] / (d2[i] - d6[i]))[:, None] * t[:, AC]),
        ((va <= 0.0) & (e43 >= 0.0) & (e56 >= 0.0),
         lambda t, i: t[:, B] + (e43[i] / (e43[i] + e56[i]))[:, None] * t[:, BC]),
        (np.ones(len(tri), dtype=bool), interior),
    ]
    q = np.empty((len(tri), 3))
    left = np.ones(len(tri), dtype=bool)  # rows whose region is still open
    with np.errstate(divide="ignore", invalid="ignore"):
        for test, point in regions:
            i = np.flatnonzero(test & left)
            left &= ~test
            if len(i):
                q[i] = point(tri.take(i, axis=0), i)
    return q


@dataclass(frozen=True)
class CollisionReport:
    """Colliding body-vertex indices with their nearest garment point/normal."""

    vertex_indices: np.ndarray   # (K,)
    garment_points: np.ndarray   # (K, 3)
    garment_normals: np.ndarray  # (K, 3)

    @property
    def count(self) -> int:
        return len(self.vertex_indices)


def detect_collisions(body: PartMesh, garment: FaceTable) -> CollisionReport:
    """Flag body vertices outside the garment shell, given by its face table,
    within ``COLLISION_BAND`` meters."""
    fi, q, d2 = garment.nearest(body.vertices, limit=COLLISION_BAND)
    near = np.flatnonzero(d2 < COLLISION_BAND * COLLISION_BAND)
    n = garment.normals[fi[near]]
    hit = np.vecdot(body.vertices[near] - q[near], n) > 0.0
    return CollisionReport(near[hit], q[near[hit]], n[hit])
