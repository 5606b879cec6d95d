import itertools

import numpy as np
import pytest

from courtpose import collision, composer
from courtpose.collision import (COLLISION_BAND, CollisionReport, FaceTable,
                                 detect_collisions, nearest_triangle_bruteforce,
                                 point_triangle_closest)
from courtpose.composer import (GARMENT_PAIRS, minimize_lbfgs, penetration_loss,
                                resolve_interpenetration)
from courtpose.errors import NumericalError, ValidationError
from courtpose.mesh import BodyMesh, PartMesh, face_normals, mesh_edges
from courtpose.primitives import capsule, tube
from courtpose.synth import synth_scene
from helpers import face_table, icosphere, plane_grid


def sleeve_scene(delta):
    """Arm cylinder protruding `delta` meters through a sleeve tube."""
    r_g = 0.05
    garment = tube((0, 0.05, 0), (0, 0.25, 0), r_g, n_seg=16, n_rings=6,
                   part="shirt")
    body = capsule((0, 0, 0), (0, 0.3, 0), r_g + delta, n_seg=12, cap_rings=3,
                   shaft_rings=6, part="arms")
    return BodyMesh((body, garment))


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_concentric_spheres_detection():
    garment = face_table(icosphere(1.0, 3, part="shirt"))
    inside = icosphere(0.8, 2, part="arms")
    assert detect_collisions(inside, garment).count == 0
    far_out = icosphere(1.2, 2, part="arms")  # outside but beyond the 5 cm band
    assert detect_collisions(far_out, garment).count == 0
    just_out = icosphere(1.03, 2, part="arms")
    rep = detect_collisions(just_out, garment)
    assert rep.count == just_out.num_vertices


def test_detection_matches_bruteforce_on_scene(monkeypatch):
    scene = synth_scene(5000).posed_body
    for body_name, garment_name in GARMENT_PAIRS:
        body, garment = scene.part(body_name), scene.part(garment_name)
        nearest = [nearest_triangle_bruteforce(v, garment.vertices, garment.faces)
                   for v in body.vertices]
        fi = np.array([f for f, _, _ in nearest])
        q = np.array([q for _, q, _ in nearest])
        d2 = np.array([d for _, _, d in nearest])
        n = face_normals(garment.vertices, garment.faces)[fi]
        outside = np.vecdot(body.vertices - q, n) > 0.0
        # the default band flags 2 vertices on this scene, the wide one 67
        for band in (COLLISION_BAND, 0.3):
            monkeypatch.setattr(collision, "COLLISION_BAND", band)
            hit = outside & (d2 < band * band)
            rep = detect_collisions(body, face_table(garment))
            assert np.array_equal(rep.vertex_indices, np.nonzero(hit)[0])
            assert np.array_equal(rep.garment_points, q[hit])
            assert np.array_equal(rep.garment_normals, n[hit])


def garment_of(scene, table):
    """The garment part of ``scene`` whose faces ``table`` packs."""
    return next(p for p in scene.parts if p.part in {g for _, g in GARMENT_PAIRS}
                and np.array_equal(table.table[:, :9], p.vertices[p.faces].reshape(-1, 9)))


def unbounded_detect(body, garment):
    """The detector without the distance limit: the nearest face of every
    body vertex, then the band test."""
    fi, q, d2 = face_table(garment).nearest(body.vertices)
    n = face_normals(garment.vertices, garment.faces[fi])
    hit = (np.vecdot(body.vertices - q, n) > 0.0) & (d2 < COLLISION_BAND * COLLISION_BAND)
    return CollisionReport(np.nonzero(hit)[0], q[hit], n[hit])


def test_detection_matches_unbounded_detector_through_compose(monkeypatch):
    # every detection of the compose loop on the criterion-9 scenes, whose
    # 1018 still has hits after the budget runs out
    checked = []

    def checking(body, garment):
        rep = detect_collisions(body, garment)
        ref = unbounded_detect(body, garment_of(scene, garment))
        assert np.array_equal(rep.vertex_indices, ref.vertex_indices)
        assert np.array_equal(rep.garment_points, ref.garment_points)
        assert np.array_equal(rep.garment_normals, ref.garment_normals)
        checked.append(rep.count)
        return rep

    monkeypatch.setattr(composer, "detect_collisions", checking)
    residual = {}
    for seed in range(1000, 1020):
        scene = synth_scene(seed).posed_body
        _, rep = resolve_interpenetration(scene)
        residual[seed] = rep["residual_collisions"]
    assert residual[1018] > 0
    assert len(checked) > 3 * 20 and sum(checked) > 0


def test_empty_garment_rejected():
    # a garment without faces has no face table to detect against
    with pytest.raises(ValidationError, match="mesh has no faces"):
        FaceTable(np.zeros((3, 3)), np.zeros((0, 3), int))


def test_compose_names_an_empty_garment():
    # compose indexes each garment once, up front
    empty = PartMesh(np.zeros((3, 3)), np.zeros((0, 3), int), "shirt")
    with pytest.raises(ValidationError, match="shirt mesh has no faces"):
        resolve_interpenetration(BodyMesh((icosphere(1.0, 1, part="arms"), empty)))


def _assert_matches_bruteforce(monkeypatch, pts, verts, faces):
    """The batched query equals the one-point oracle bit for bit, at the
    default chunking and at 7 points per chunk. With a distance limit it
    does so on every point within the limit and answers the rest as
    non-hits; the limits are the collision band, one that splits the points
    in half and one beyond them all."""
    with np.errstate(invalid="ignore"):  # degenerate faces divide 0 by 0
        expected = [nearest_triangle_bruteforce(p, verts, faces) for p in pts]
    d2 = np.array([d for _, _, d in expected])
    limits = (None, COLLISION_BAND, np.sqrt(np.median(d2)), 2.0 * np.sqrt(d2.max()))
    for chunk_pairs in (collision.QUERY_CHUNK_PAIRS, 7 * len(faces)):
        monkeypatch.setattr(collision, "QUERY_CHUNK_PAIRS", chunk_pairs)
        for limit in limits:
            fv, qv, dv = FaceTable(verts, faces).nearest(pts, limit=limit)
            for k, (fb, qb, db) in enumerate(expected):
                if limit is None or db < limit * limit:
                    assert fb == fv[k]
                    assert db == dv[k]
                    assert np.array_equal(qb, qv[k])
                else:
                    assert fv[k] == -1
                    assert dv[k] == np.inf
                    assert np.isnan(qv[k]).all()


def test_batched_query_matches_bruteforce_exactly(monkeypatch):
    garment = icosphere(1.0, 2, part="shirt")
    rng = np.random.default_rng(0)
    pts = np.concatenate([
        rng.normal(scale=1.2, size=(123, 3)),
        garment.vertices[:40] * 1.001,  # near-surface queries hit ties
    ])
    # a partial last chunk at 7 points per chunk
    assert len(pts) % 7 != 0
    _assert_matches_bruteforce(monkeypatch, pts, garment.vertices, garment.faces)


def _unreferenced_vertex_case(rng):
    # each query has an unused vertex 1e-4 away, nearer than any face
    m = icosphere(1.0, 2)
    pts = m.vertices[::4] * 1.05 + rng.normal(scale=0.01, size=(len(m.vertices[::4]), 3))
    verts = np.concatenate([m.vertices, pts + 1e-4])
    return pts, verts, m.faces


def _zero_area_case(rng):
    # face 0 repeats a vertex and gives no finite distance beside its edge,
    # so there the nearest face lies beyond the bound its corners set
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0], [6.0, 0, 0], [5.0, 1, 0]])
    faces = np.array([[0, 0, 1], [2, 3, 4]])
    pts = np.concatenate([[[0.5, 0.5, 0.0], [0.5, -0.5, 0.2], [-0.1, 0.0, 0.0]],
                          rng.normal(scale=2.0, size=(10, 3))])
    return pts, verts, faces


def _far_case(rng):
    m = icosphere(1.0, 2)
    d = rng.normal(size=(30, 3))
    pts = d / np.linalg.norm(d, axis=1, keepdims=True) * 10.0 ** rng.uniform(3, 6, (30, 1))
    return pts, m.vertices, m.faces


def _scaled_case(scale):
    def build(rng):
        m = icosphere(1.0, 2)
        verts = m.vertices * scale
        pts = np.concatenate([rng.normal(scale=1.2 * scale, size=(40, 3)),
                              verts[::3] * 1.001])
        return pts, verts, m.faces
    return build


def _plane_case(scale):
    # points in the plane z = 0, 1e-5 to 0.1 off the origin, whose nearest
    # corner is (0, 0, -1); large faces parallel to them at z = 1 - 1e-9 ...
    # 1 + 1e-3 keep their bounding spheres in reach, so only their plane
    # offsets, around the bound that corner sets, decide the plane cut (the
    # one at z = 1 ties with the corner for the origin); faces in the plane
    # z = 0, far off sideways, have no offset at all
    def build(rng):
        verts = [[0.0, 0, -1], [0.3, 0, -1.2], [0, 0.3, -1.2]]
        faces = [[0, 1, 2]]
        for h in (1 - 1e-9, 1.0, 1 + 1e-9, 1 + 1e-7, 1 + 1e-6, 1 + 1e-5, 1 + 1e-3):
            faces.append(len(verts) + np.arange(3))
            verts += [[-10.0, -10, h], [10.0, -10, h], [0.0, 10, h]]
        for x in (1.5, -1.5):
            faces.append(len(verts) + np.arange(3))
            verts += [[x, -3.0, 0], [x, 3.0, 0], [x * 8 / 3, 0.0, 0]]
        side = rng.uniform(-1, 1, (30, 2)) * 10.0 ** rng.uniform(-5, -1, (30, 1))
        pts = np.concatenate([[[0.0, 0, 0]], np.column_stack([side, np.zeros(30)])])
        return pts * scale, np.array(verts) * scale, np.array(faces)
    return build


def _thin_face_case(rng):
    # needles: for |ab x ac| down to 1e-16 |ab| |ac|, the rounded edges turn
    # the computed normal by up to a tenth of a radian. Each point sits 1 cm
    # off its needle's middle, along the needle's true normal, and a
    # triangle has a corner only just farther away, which sets the bound; a
    # plane cut trusting the needle's normal would drop the nearest face
    verts, faces, pts = [], [], []
    for x in range(0, 400, 10):
        a = rng.uniform(-1, 1, 3) + [x, 0, 0]
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        b = a + e * rng.uniform(0.5, 2)
        side = np.cross(e, rng.normal(size=3))
        side /= np.linalg.norm(side)
        up = np.cross(e, side)
        p = a + (b - a) * rng.uniform(0.2, 0.8) + 0.01 * up
        w = p - 0.01 * (1 + 10.0 ** rng.uniform(-6, -2)) * up
        faces += [len(verts) + np.arange(3), len(verts) + np.arange(3, 6)]
        verts += [a, b, (a + b) / 2 + side * 10.0 ** rng.uniform(-16, -14),
                  w, w - 0.3 * up + 0.01 * side, w - 0.3 * up - 0.05 * side]
        pts.append(p)
    return np.array(pts), np.array(verts), np.array(faces)


def _band_edge_case(rng):
    # a point a few ulps inside the collision band above each tilted
    # triangle: its offset from the plane and its exact-pass distance round
    # apart, and the plane cut's margin must keep every face that the exact
    # pass finds within the band
    verts = rng.normal(scale=0.3, size=(60, 3, 3)) + np.arange(60)[:, None, None] * [10.0, 0, 0]
    verts, faces = verts.reshape(-1, 3), np.arange(180).reshape(-1, 3)
    z = COLLISION_BAND * (1 - rng.integers(1, 4, size=(60, 1)) * 2.0 ** -52)
    return verts[faces].mean(axis=1) + z * face_normals(verts, faces), verts, faces


@pytest.mark.parametrize("build", [
    _unreferenced_vertex_case, _zero_area_case, _far_case,
    _scaled_case(1e-3), _scaled_case(1e3),
    _plane_case(1e-3), _plane_case(1.0), _plane_case(1e3), _thin_face_case, _band_edge_case],
    ids=["unreferenced_vertex", "zero_area_face", "far_points", "scale_1e-3", "scale_1e3",
         "plane_bound_1e-3", "plane_bound_1", "plane_bound_1e3", "thin_face", "band_edge"])
@pytest.mark.parametrize("seed", [0, 1])
def test_culled_query_matches_bruteforce_exactly(monkeypatch, build, seed):
    pts, verts, faces = build(np.random.default_rng(seed))
    _assert_matches_bruteforce(monkeypatch, pts, verts, faces)


def test_cull_bound_ignores_unreferenced_vertices(monkeypatch):
    # an unused vertex next to the query must not tighten the bound: if it
    # did, the bound would fail and every point would be scanned against all
    # faces (here about 2% of the pairs reach the exact pass)
    pts, verts, faces = _unreferenced_vertex_case(np.random.default_rng(0))
    closest_points = collision._closest_points
    pairs = []

    def counting(p, *face_arrays):
        pairs.append(len(p))
        return closest_points(p, *face_arrays)

    monkeypatch.setattr(collision, "_closest_points", counting)
    FaceTable(verts, faces).nearest(pts)
    assert sum(pairs) < 0.25 * len(pts) * len(faces)


def test_plane_cut_leaves_fewer_pairs_than_the_sphere_cull(monkeypatch):
    # scene 5000, legs against pants in the band: the sphere cull keeps
    # 6,978 pairs, of which the plane cut leaves 2,325 to the exact pass
    scene = synth_scene(5000).posed_body
    pants = face_table(scene.part("pants"))
    pairs, closest = [], []
    make_pairs, closest_points = collision._pairs, collision._closest_points

    def counting_pairs(keep):
        pi, fi = make_pairs(keep)
        pairs.append(len(pi))
        return pi, fi

    def counting(p, *face_arrays):
        closest.append(len(p))
        return closest_points(p, *face_arrays)

    monkeypatch.setattr(collision, "_pairs", counting_pairs)
    monkeypatch.setattr(collision, "_closest_points", counting)
    detect_collisions(scene.part("legs"), pants)
    assert 0 < sum(closest) < 0.5 * sum(pairs)


def test_nan_query_point_rejected():
    m = icosphere(1.0, 1)
    pts = np.array([[0.0, 0.0, 2.0], [np.nan, 0.0, 0.0]])
    for limit in (None, COLLISION_BAND):
        with pytest.raises(ValidationError):
            face_table(m).nearest(pts, limit=limit)


def test_limit_excludes_points_at_exactly_the_limit():
    # above corner 0 of a face in the plane z = 0, the nearest point is that
    # corner and the squared distance is z * z, computed exactly as the
    # band's square when z is the band
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    faces = np.array([[0, 1, 2]])
    band = COLLISION_BAND
    z = np.array([np.nextafter(band, 0.0), band, np.nextafter(band, 1.0)])
    pts = np.column_stack([np.zeros(3), np.zeros(3), z])
    fv, qv, dv = FaceTable(verts, faces).nearest(pts, limit=band)
    assert dv[1] == np.inf and fv[1] == -1
    assert dv[2] == np.inf and fv[2] == -1
    assert dv[0] == z[0] * z[0] < band * band and fv[0] == 0
    assert np.array_equal(qv[0], verts[0])
    # a body vertex there sits outside the face (its normal is +z): only
    # the one inside the band collides
    body = PartMesh(pts, [[0, 1, 2]], "arms")
    rep = detect_collisions(body, FaceTable(verts, faces))
    assert rep.vertex_indices.tolist() == [0]


def test_limit_caps_the_cull_and_skips_the_full_scan(monkeypatch):
    # far points keep no face within the limit, and a point that keeps no
    # pair is simply out of it: no pair reaches the exact region tests
    pts, verts, faces = _far_case(np.random.default_rng(0))
    closest_points = collision._closest_points
    pairs = []

    def counting(p, *face_arrays):
        pairs.append(len(p))
        return closest_points(p, *face_arrays)

    monkeypatch.setattr(collision, "_closest_points", counting)
    table = FaceTable(verts, faces)
    face, _, dist2 = table.nearest(pts, limit=COLLISION_BAND)
    assert np.all(face == -1) and np.all(dist2 == np.inf)
    assert sum(pairs) == 0
    table.nearest(pts)
    assert sum(pairs) > 0


@pytest.mark.parametrize("apex", [(0.5, 1.0, 0.0), (0.5, 1.0, 1.0)])
def test_batched_query_tie_on_shared_edge_goes_to_lowest_face(apex):
    # two faces sharing edge (0, 1), mirror images across the plane y = 0;
    # the query point on that plane is equidistant from both
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], apex,
                      [apex[0], -apex[1], apex[2]]])
    p = np.array([[0.5, 0.0, 1.0]])
    for faces, limit in itertools.product(([[0, 1, 2], [0, 1, 3]], [[0, 1, 3], [0, 1, 2]]),
                                          (None, 2.0)):
        faces = np.array(faces)
        q0, _ = point_triangle_closest(p[0], *verts[faces[0]])
        q1, _ = point_triangle_closest(p[0], *verts[faces[1]])
        assert np.sum((p[0] - q0) ** 2) == np.sum((p[0] - q1) ** 2)
        fv, qv, dv = FaceTable(verts, faces).nearest(p, limit=limit)
        fb, qb, db = nearest_triangle_bruteforce(p[0], verts, faces)
        assert fv[0] == fb == 0
        assert dv[0] == db
        assert np.array_equal(qv[0], qb)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_query_tie_on_shared_vertex_goes_to_lowest_face(seed):
    # queries exactly on vertices, each shared by 5 or 6 faces at distance 0
    m = icosphere(0.7, 1)
    rot, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    verts = m.vertices @ rot + [0.3, -0.2, 0.1]
    for faces, limit in itertools.product((m.faces, m.faces[::-1]), (None, COLLISION_BAND)):
        fv, qv, dv = FaceTable(verts, faces).nearest(verts, limit=limit)
        for k, p in enumerate(verts):
            fb, qb, db = nearest_triangle_bruteforce(p, verts, faces)
            assert fv[k] == fb == np.nonzero((faces == k).any(axis=1))[0].min()
            assert dv[k] == db == 0.0
            assert np.array_equal(qv[k], qb)


# The exact pass as it was before it formed each region's point for its own
# pairs only and picked the minima by reduceat: every region's point for
# every pair, np.select, and a lexsort per point. Kept as the oracle.

def closest_points_select_oracle(p, a, b, c, ab, ac, bc):
    ap = p - a
    d1 = np.vecdot(ab, ap)
    d2 = np.vecdot(ac, ap)
    bp = p - b
    d3 = np.vecdot(ab, bp)
    d4 = np.vecdot(ac, bp)
    vc = d1 * d4 - d3 * d2
    cp = p - c
    d5 = np.vecdot(ab, cp)
    d6 = np.vecdot(ac, cp)
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = (d1 / (d1 - d3))[..., None]
        w_ac = (d2 / (d2 - d6))[..., None]
        w_bc = ((d4 - d3) / ((d4 - d3) + (d5 - d6)))[..., None]
        denom = 1.0 / (va + vb + vc)
        v = (vb * denom)[..., None]
        w = (vc * denom)[..., None]
        regions = [
            (d1 <= 0.0) & (d2 <= 0.0),
            (d3 >= 0.0) & (d4 <= d3),
            (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0),
            (d6 >= 0.0) & (d5 <= d6),
            (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0),
            (va <= 0.0) & ((d4 - d3) >= 0.0) & ((d5 - d6) >= 0.0),
        ]
        points = [a, b, a + v_ab * ab, c, a + w_ac * ac, b + w_bc * bc]
        return np.select([r[..., None] for r in regions],
                         [np.broadcast_to(q, ap.shape) for q in points],
                         default=a + ab * v + ac * w)


def nearest_among_lexsort_oracle(points, pairs, vertices, faces):
    pi, fi = pairs
    a, b, c = (vertices[faces[fi, k]] for k in range(3))
    p = points[pi]
    q = closest_points_select_oracle(p, a, b, c, b - a, c - a, c - b)
    d = p - q
    d2 = d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2
    d2[np.isnan(d2)] = np.inf
    order = np.lexsort((d2, pi))
    first = order[np.flatnonzero(np.diff(pi[order], prepend=-1))]
    n = len(points)
    face, closest, dist2 = np.zeros(n, dtype=int), np.zeros((n, 3)), np.full(n, np.inf)
    rows = pi[first]
    face[rows], closest[rows], dist2[rows] = fi[first], q[first], d2[first]
    return face, closest, dist2


def tie_and_degenerate_case(rng):
    """A square grid queried at lattice points, edge midpoints and above
    them, where up to six faces tie, plus zero-area faces: a repeated
    vertex, three collinear vertices and three equal ones."""
    grid = plane_grid(6, 6, spacing=0.5)
    extra = np.array([[1.0, 1.0, 0.2], [1.5, 1.0, 0.2], [2.0, 1.0, 0.2],
                      [0.7, 0.7, -0.3]])
    verts = np.concatenate([grid.vertices, extra])
    n = len(grid.vertices)
    faces = np.concatenate([grid.faces, [[n, n, n + 1], [n, n + 1, n + 2],
                                         [n + 3, n + 3, n + 3], [0, 0, 1]]])
    lattice = np.stack(np.meshgrid(np.arange(0.0, 3.0, 0.25), np.arange(0.0, 3.0, 0.25),
                                   indexing="ij"), axis=-1).reshape(-1, 2)
    pts = np.concatenate([
        np.column_stack([lattice, np.zeros(len(lattice))]),
        np.column_stack([lattice, np.full(len(lattice), 0.25)]),
        verts + [0.0, 0.0, 0.1],
        rng.uniform(-0.5, 3.0, size=(40, 3)),
    ])
    return pts, verts, faces


def test_ties_and_degenerate_faces_match_bruteforce_exactly(monkeypatch):
    pts, verts, faces = tie_and_degenerate_case(np.random.default_rng(3))
    _assert_matches_bruteforce(monkeypatch, pts, verts, faces)


@pytest.mark.parametrize("seed", range(3))
def test_exact_pass_matches_select_and_lexsort_oracle(seed):
    rng = np.random.default_rng(seed)
    pts, verts, faces = tie_and_degenerate_case(rng)
    pts = np.concatenate([pts, rng.normal(scale=2.0, size=(50, 3))])
    a, b, c = (verts[faces[:, k]] for k in range(3))
    table = np.concatenate([a, b, c, b - a, c - a, c - b], axis=1)
    keep = rng.random((len(pts), len(faces))) < [0.05, 0.5, 1.0][seed]
    keep[:7] = False  # points without pairs
    pairs = np.nonzero(keep)
    assert all(np.array_equal(x, y) for x, y in zip(collision._pairs(keep), pairs))
    with np.errstate(invalid="ignore"):
        got = collision._nearest_among(pts, pairs, table)
        want = nearest_among_lexsort_oracle(pts, pairs, verts, faces)
        pi, fi = pairs
        diff = pts[pi][:, None, :] - table[fi, :9].reshape(-1, 3, 3)
        q = collision._closest_points(diff.reshape(-1, 9), table[fi])
        q_want = closest_points_select_oracle(pts[pi], a[fi], b[fi], c[fi],
                                              *(x[fi] for x in (b - a, c - a, c - b)))
    assert np.array_equal(q, q_want, equal_nan=True)
    assert np.isnan(q).any()  # the degenerate faces reach the default region
    # a point whose only pairs are zero-area faces keeps a NaN closest point
    for x, y in zip(got, want):
        assert np.array_equal(x, y, equal_nan=True)


def test_point_triangle_closest_regions():
    a, b, c = np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    q, bary = point_triangle_closest(np.array([0.25, 0.25, 1.0]), a, b, c)
    assert np.allclose(q, [0.25, 0.25, 0.0])
    assert np.isclose(sum(bary), 1.0)
    q, _ = point_triangle_closest(np.array([-1.0, -1.0, 0.0]), a, b, c)
    assert np.allclose(q, a)
    q, _ = point_triangle_closest(np.array([0.5, -2.0, 0.0]), a, b, c)
    assert np.allclose(q, [0.5, 0.0, 0.0])


# ---------------------------------------------------------------------------
# penetration loss
# ---------------------------------------------------------------------------

def test_penetration_loss_zero_at_anchor():
    mesh = capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms")
    loss, grad = penetration_loss(mesh.vertices, mesh.vertices, mesh)
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0


def test_penetration_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    mesh = capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms")
    Vs = mesh.vertices
    V = Vs + rng.normal(scale=0.004, size=Vs.shape)
    _, grad = penetration_loss(V, Vs, mesh)
    h = 1e-6
    for _ in range(10):
        i = rng.integers(0, len(V))
        k = rng.integers(0, 3)
        Vp, Vm = V.copy(), V.copy()
        Vp[i, k] += h
        Vm[i, k] -= h
        lp, _ = penetration_loss(Vp, Vs, mesh)
        lm, _ = penetration_loss(Vm, Vs, mesh)
        fd = (lp - lm) / (2 * h)
        assert abs(fd - grad[i, k]) / max(abs(fd), abs(grad[i, k]), 1e-9) < 1e-4


def test_edge_term_first_order_in_uniform_scale(monkeypatch):
    mesh = capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms")
    Vs = mesh.vertices
    eps = 1e-3
    V = Vs * (1.0 + eps)
    # the edge term alone, at weight 1
    for name, weight in (("W_DATA", 0.0), ("W_LAP", 0.0), ("W_EL", 1.0)):
        monkeypatch.setattr(composer, name, weight)
    loss, _ = penetration_loss(V, Vs, mesh)
    n_edges = len(mesh_edges(mesh.faces))
    # each edge ratio is exactly (1+eps), so the term is eps per edge
    assert loss == pytest.approx(n_edges * eps, rel=1e-9)


def test_zero_length_rest_edge_warns_and_is_excluded():
    # vertices 0 and 1 coincide and share a face, so edge (0,1) has zero
    # rest length
    verts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    mesh = PartMesh(verts, [[0, 1, 2], [1, 2, 3]], "arms")
    with pytest.warns(UserWarning):
        loss, grad = penetration_loss(verts + 0.01, verts, mesh)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


def test_penetration_loss_uses_the_kept_transpose(monkeypatch):
    """The Laplacian's transpose is built once, with the terms: an
    evaluation on given terms builds none."""
    rng = np.random.default_rng(2)
    mesh = capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms")
    Vs = mesh.vertices
    V = Vs + rng.normal(scale=0.004, size=Vs.shape)
    want = penetration_loss(V, Vs, mesh)
    terms = composer.penetration_terms(mesh, Vs)
    transposes = []
    csr = type(terms.laplacian)
    transpose = csr.transpose
    monkeypatch.setattr(csr, "transpose",
                        lambda *a, **k: transposes.append(a) or transpose(*a, **k))
    loss, grad = penetration_loss(V, Vs, mesh, terms=terms)
    assert transposes == []
    assert loss == want[0] and np.array_equal(grad, want[1])


def test_lbfgs_decreases_quadratic(monkeypatch):
    A = np.diag([1.0, 10.0, 100.0])
    b = np.array([1.0, -2.0, 3.0])

    def f(x):
        return 0.5 * x @ A @ x - b @ x, A @ x - b

    monkeypatch.setattr(composer, "INNER_ITERATIONS", 50)
    x, hist = minimize_lbfgs(f, np.zeros(3))
    assert all(h2 <= h1 + 1e-15 for h1, h2 in zip(hist, hist[1:]))
    assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-6


def _rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                  200.0 * (x[1] - x[0] ** 2)])
    return f, g


@pytest.mark.parametrize("max_iters", [1, 5, 200])
def test_lbfgs_history_contract(monkeypatch, max_iters):
    monkeypatch.setattr(composer, "INNER_ITERATIONS", max_iters)
    x0 = np.array([-1.2, 1.0])
    x, hist = minimize_lbfgs(_rosenbrock, x0)
    assert np.array_equal(x0, [-1.2, 1.0])
    assert hist[0] == _rosenbrock(x0)[0]
    assert 2 <= len(hist) <= max_iters + 1
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] == _rosenbrock(x)[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lbfgs_rejects_non_finite_start(bad):
    with pytest.raises(NumericalError):
        minimize_lbfgs(lambda x: (bad, np.zeros_like(x)), np.zeros(3))



# ---------------------------------------------------------------------------
# resolve loop
# ---------------------------------------------------------------------------

def test_no_initial_collisions_is_identity():
    body = icosphere(0.8, 2, part="arms")
    garment = icosphere(1.0, 2, part="shirt")
    scene = BodyMesh((body, garment))
    out, rep = resolve_interpenetration(scene)
    assert rep["residual_collisions"] == 0
    assert len(rep["iterations"]) == 1
    assert np.array_equal(out.part("arms").vertices, body.vertices)
    assert np.array_equal(out.part("shirt").vertices, garment.vertices)


@pytest.mark.parametrize("delta", [0.002, 0.005, 0.008])
def test_sleeve_scene_resolves(delta):
    scene = sleeve_scene(delta)
    body0 = scene.part("arms")
    rep0 = detect_collisions(body0, face_table(scene.part("shirt")))
    assert rep0.count > 0
    out, rep = resolve_interpenetration(scene)
    assert rep["residual_collisions"] == 0
    assert len(rep["iterations"]) <= 3
    # collision counts never increase across outer iterations
    counts = [it["collisions"] for it in rep["iterations"]]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    # pinned vertices bit-identical through every inner solve
    for it in rep["iterations"]:
        assert all(it["pinned_intact"].values())
    # garment untouched
    assert np.array_equal(out.part("shirt").vertices, scene.part("shirt").vertices)

    # local rigidity: edges away from the collision region stay put
    flagged = set(rep0.vertex_indices.tolist())
    e = mesh_edges(body0.faces)
    outside = [k for k, (i, j) in enumerate(e)
               if i not in flagged and j not in flagged]
    L0 = np.linalg.norm(body0.vertices[e[:, 0]] - body0.vertices[e[:, 1]], axis=1)
    V1 = out.part("arms").vertices
    L1 = np.linalg.norm(V1[e[:, 0]] - V1[e[:, 1]], axis=1)
    change = np.abs(L1[outside] / L0[outside] - 1.0)
    assert change.mean() < 0.01


def test_inner_losses_non_increasing():
    scene = sleeve_scene(0.005)
    _, rep = resolve_interpenetration(scene)
    for it in rep["iterations"]:
        for losses in it["losses"].values():
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _count_detections(monkeypatch, scene):
    """Route the composer's detections on ``scene`` through a counter;
    returns the list that gets one entry per call."""
    calls = []

    def counting(body, garment, *args, **kwargs):
        calls.append((body.part, garment_of(scene, garment).part))
        return detect_collisions(body, garment, *args, **kwargs)

    monkeypatch.setattr(composer, "detect_collisions", counting)
    return calls


def _fresh_residual(body, pairs):
    return sum(detect_collisions(body.part(b), face_table(body.part(g))).count
               for b, g in pairs)


def _moved_pair_detections(rep):
    """The pairs the loop detects: all of them once, then after each
    recorded iteration the pairs whose body part it pushed and relaxed."""
    pairs = rep["pairs"]
    calls = list(pairs)
    for it in rep["iterations"]:
        calls += [pair for pair in pairs if pair[0] in it["pinned"]]
    return calls


@pytest.mark.parametrize("build", [lambda: sleeve_scene(0.012),
                                   lambda: synth_scene(5000).posed_body],
                         ids=["sleeve", "scene5000"])
def test_converged_run_detects_once_per_iteration(monkeypatch, build):
    scene = build()
    calls = _count_detections(monkeypatch, scene)
    out, rep = resolve_interpenetration(scene)
    assert rep["residual_collisions"] == 0
    assert len(rep["iterations"]) >= 2
    # one detection per pair whose body part moved; the pass that finds no
    # collision ends the loop and is the residual
    assert calls == _moved_pair_detections(rep)
    assert rep["residual_collisions"] == _fresh_residual(out, rep["pairs"])


def test_second_pass_detects_only_the_moved_pair(monkeypatch):
    # on scene 5000 only the head pokes out of the shirt
    scene = synth_scene(5000).posed_body
    seen = []

    def recording(body, garment, *args, **kwargs):
        rep = detect_collisions(body, garment, *args, **kwargs)
        seen.append(((body.part, garment_of(scene, garment).part), rep.count))
        return rep

    monkeypatch.setattr(composer, "detect_collisions", recording)
    out, rep = resolve_interpenetration(scene)
    pairs = list(GARMENT_PAIRS)
    assert [pair for pair, _ in seen] == pairs + [("head", "shirt")]
    first = dict(seen[:3])
    assert first[("head", "shirt")] > 0
    assert [it["collisions"] for it in rep["iterations"]] == [first[("head", "shirt")], 0]
    # the counts carried over for the unmoved pairs equal a fresh detection
    for body_name, garment_name in pairs[0], pairs[2]:
        assert np.array_equal(out.part(body_name).vertices, scene.part(body_name).vertices)
        fresh = detect_collisions(out.part(body_name), face_table(out.part(garment_name)))
        assert fresh.count == first[body_name, garment_name] == 0
    assert rep["residual_collisions"] == _fresh_residual(out, pairs) == seen[3][1]


def test_exhausted_budget_counts_residual_in_one_extra_pass(monkeypatch):
    monkeypatch.setattr(composer, "OUTER_ITERATIONS", 1)
    scene = sleeve_scene(0.012)  # needs two rounds
    calls = _count_detections(monkeypatch, scene)
    out, rep = resolve_interpenetration(scene)
    assert len(rep["iterations"]) == 1
    assert rep["residual_collisions"] > 0
    assert calls == _moved_pair_detections(rep) == rep["pairs"] * 2
    assert rep["residual_collisions"] == _fresh_residual(out, rep["pairs"])
