import heapq

import numpy as np
import pytest
import scipy.sparse as sp

from courtpose.collision import (FaceTable, nearest_triangle_bruteforce,
                                 point_triangle_closest)
from courtpose.errors import ValidationError
from courtpose.mesh import PartMesh, face_normals, mesh_edges
from courtpose.meshnet import NetConfig, build_sampling
from courtpose.meshnet import sampling
from courtpose.meshnet.sampling import _AREA_EPS, _collapse_valid, _neighbors
from courtpose.primitives import capsule
from courtpose.synth import SceneConfig, canonical_body
from helpers import icosphere, plane_grid, tri_grid


def test_factor_one_is_identity():
    m = capsule((0, 0, 0), (0, 0.4, 0), 0.08, part="arms")
    op = build_sampling(m, 1)
    n = m.num_vertices
    assert np.array_equal(op.D.toarray(), np.eye(n))
    assert np.array_equal(op.U.toarray(), np.eye(n))
    assert op.reached_target


def test_invalid_factor():
    m = icosphere(1.0, 1)
    with pytest.raises(ValidationError):
        build_sampling(m, 0.5)


def test_planar_grid_stays_planar():
    g = plane_grid(8, 8)
    op = build_sampling(g, 2)
    assert op.reached_target
    assert np.abs(op.coarse.vertices[:, 2]).max() == 0.0
    assert op.coarse.num_vertices <= g.num_vertices // 2


def test_down_up_identity_on_coarse_features():
    m = icosphere(1.0, 2, part="head")
    op = build_sampling(m, 4)
    nc = op.coarse.num_vertices
    DU = (op.D @ op.U).toarray()
    assert np.abs(DU - np.eye(nc)).max() < 1e-12
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(nc, 8))
    assert np.abs(op.D @ (op.U @ feats) - feats).max() < 1e-12


def test_upsampling_rows_are_barycentric():
    m = capsule((0, 0, 0), (0, 0.5, 0), 0.07, part="arms")
    op = build_sampling(m, 3)
    U = op.U.toarray()
    assert np.abs(U.sum(axis=1) - 1.0).max() < 1e-12
    assert U.min() >= -1e-12
    # kept vertices map to themselves
    D = op.D.toarray()
    kept = np.nonzero(D.sum(axis=0))[0]
    for row in kept:
        assert np.count_nonzero(U[row]) == 1


def test_d_rows_are_indicators():
    m = icosphere(1.0, 1)
    op = build_sampling(m, 2)
    D = op.D.toarray()
    assert np.all((D == 0) | (D == 1))
    assert np.all(D.sum(axis=1) == 1)


def test_upsampled_positions_approximate_fine_mesh():
    m = icosphere(1.0, 2, part="head")
    op = build_sampling(m, 2)
    rebuilt = op.U @ op.coarse.vertices
    err = np.linalg.norm(rebuilt - m.vertices, axis=1)
    assert err.max() < 0.35  # removed vertices land on a nearby kept triangle
    assert np.median(err) < 0.1


def test_extreme_factor_best_effort_flag():
    m = icosphere(1.0, 1)
    op = build_sampling(m, 1000)
    # cannot shrink a closed sphere to zero vertices; flag must say so
    assert not op.reached_target
    assert op.coarse.num_vertices >= 3
    assert op.coarse.num_faces >= 1


def test_upsampling_rows_match_bruteforce_nearest_triangle():
    m = icosphere(1.0, 2, part="head")
    op = build_sampling(m, 4)
    cv, cf = op.coarse.vertices, op.coarse.faces
    U = op.U.toarray()
    removed = np.nonzero(op.D.toarray().sum(axis=0) == 0)[0]
    assert removed.size > 0
    for i in removed:
        fi, _, _ = nearest_triangle_bruteforce(m.vertices[i], cv, cf)
        _, bary = point_triangle_closest(m.vertices[i], *cv[cf[fi]])
        expected = np.zeros(len(cv))
        expected[cf[fi]] = bary
        assert np.array_equal(U[i], expected)


@pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.5, -2, "2", None])
def test_factor_must_be_a_finite_number_of_at_least_one(factor):
    with pytest.raises(ValidationError, match=f"got {factor!r}"):
        build_sampling(icosphere(1.0, 1), factor)


# ---------------------------------------------------------------------------
# Oracle: the decimation loop that recomputes every collapse cost per push
# ---------------------------------------------------------------------------

def vertex_quadrics_loop(verts, faces):
    """The quadrics with one np.cross per face."""
    q = np.zeros((len(verts), 4, 4))
    for f in faces:
        a, b, c = verts[f]
        nrm = np.cross(b - a, c - a)
        area = 0.5 * np.linalg.norm(nrm)
        if area < _AREA_EPS:
            continue
        nrm = nrm / (2.0 * area)
        plane = np.append(nrm, -nrm @ a)
        K = area * np.outer(plane, plane)
        for v in f:
            q[v] += K
    return q


def collapse_valid_loop(u, v, verts, faces, face_alive, vert_faces):
    """The collapse check with one np.cross pair per face of u."""
    for fi in vert_faces[u]:
        if not face_alive[fi]:
            continue
        f = faces[fi]
        if v in f:
            continue  # this face dies with the edge
        newf = [v if w == u else w for w in f]
        if len(set(newf)) < 3:
            return False
        a, b, c = verts[list(f)]
        na = np.cross(b - a, c - a)
        a, b, c = verts[newf]
        nb = np.cross(b - a, c - a)
        if np.linalg.norm(nb) < 2.0 * _AREA_EPS:
            return False
        if na @ nb <= 0.0:
            return False
    return True


def build_sampling_uncached(mesh, factor):
    """``build_sampling`` as it was before the collapse costs were kept: every
    push computes its cost from the current quadrics."""
    n = mesh.num_vertices
    target = int(np.floor(n / factor))
    if factor == 1 or target >= n:
        eye = sp.identity(n, format="csr")
        return eye, eye.copy(), mesh, True
    verts = mesh.vertices
    faces = [tuple(f) for f in mesh.faces]
    face_alive = [True] * len(faces)
    vert_faces = [set() for _ in range(n)]
    for fi, f in enumerate(faces):
        for v in f:
            vert_faces[v].add(fi)
    alive = np.ones(n, dtype=bool)
    quadrics = vertex_quadrics_loop(verts, mesh.faces)
    version = np.zeros(n, dtype=int)
    heap = []

    def push(u, v):
        Q = quadrics[u] + quadrics[v]
        p = np.append(verts[v], 1.0)
        heapq.heappush(heap, (float(p @ Q @ p), u, v, version[u], version[v]))

    edges = set()
    for a, b, c in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            e = (min(u, v), max(u, v))
            if e not in edges:
                edges.add(e)
                push(e[0], e[1])
                push(e[1], e[0])
    removed = 0
    alive_faces = len(faces)
    while n - removed > target and heap:
        _, u, v, vu, vv = heapq.heappop(heap)
        if not (alive[u] and alive[v]) or vu != version[u] or vv != version[v]:
            continue
        if v not in _neighbors(u, faces, vert_faces):
            continue
        if not collapse_valid_loop(u, v, verts, faces, face_alive, vert_faces):
            continue
        dying = sum(1 for fi in vert_faces[u] if v in faces[fi])
        if alive_faces - dying < 1:
            continue
        quadrics[v] = quadrics[u] + quadrics[v]
        alive[u] = False
        removed += 1
        alive_faces -= dying
        for fi in [fi for fi in vert_faces[u] if v in faces[fi]]:
            face_alive[fi] = False
            for w in faces[fi]:
                vert_faces[w].discard(fi)
        for fi in list(vert_faces[u]):
            faces[fi] = tuple(v if w == u else w for w in faces[fi])
            vert_faces[v].add(fi)
        vert_faces[u] = set()
        version[u] += 1
        version[v] += 1
        for w in _neighbors(v, faces, vert_faces):
            version[w] += 1
            push(w, v)
            push(v, w)
            for x in _neighbors(w, faces, vert_faces):
                if alive[x]:
                    push(w, x)
                    push(x, w)
    kept = np.nonzero(alive)[0]
    nc = len(kept)
    new_index = -np.ones(n, dtype=int)
    new_index[kept] = np.arange(nc)
    coarse_faces = np.asarray(
        [[new_index[w] for w in faces[fi]] for fi in range(len(faces)) if face_alive[fi]],
        dtype=int).reshape(-1, 3)
    coarse = PartMesh(verts[kept], coarse_faces, mesh.part)
    D = sp.csr_matrix((np.ones(nc), (np.arange(nc), kept)), shape=(nc, n))
    dropped = np.nonzero(~alive)[0]
    nearest = np.zeros(n, dtype=int)
    if dropped.size:
        nearest[dropped] = FaceTable(coarse.vertices, coarse_faces).nearest(verts[dropped])[0]
    rows, cols, vals = [], [], []
    for i in range(n):
        if alive[i]:
            rows.append(i)
            cols.append(new_index[i])
            vals.append(1.0)
        else:
            fi = nearest[i]
            _, bary = point_triangle_closest(verts[i], *coarse.vertices[coarse_faces[fi]])
            for k in range(3):
                rows.append(i)
                cols.append(int(coarse_faces[fi][k]))
                vals.append(float(bary[k]))
    U = sp.csr_matrix((vals, (rows, cols)), shape=(n, nc))
    return D, U, coarse, n - removed <= target


def assert_sampling_matches_uncached(mesh, factor):
    op = build_sampling(mesh, factor)
    D, U, coarse, reached = build_sampling_uncached(mesh, factor)
    for got, want in ((op.D, D), (op.U, U)):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    assert np.array_equal(op.coarse.vertices, coarse.vertices)
    assert np.array_equal(op.coarse.faces, coarse.faces)
    assert op.reached_target == reached
    return op


def test_quadrics_match_the_per_face_loop():
    for mesh in canonical_body(SceneConfig().voxel_res)[1].parts:
        assert np.array_equal(sampling._vertex_quadrics(mesh.vertices, mesh.faces),
                              vertex_quadrics_loop(mesh.vertices, mesh.faces))


def test_kept_collapse_costs_match_uncached_on_body_part_pyramids():
    for mesh in canonical_body(SceneConfig().voxel_res)[1].parts:
        for factor in NetConfig().ds_factors:
            mesh = assert_sampling_matches_uncached(mesh, factor).coarse


@pytest.mark.parametrize("factor", [1, 2, 3, 4])
def test_kept_collapse_costs_match_uncached_on_tri_grids(factor):
    # planar grids: every interior collapse costs 0, so the heap's order
    # rests on the tie-breaking vertex ids and versions
    for rows, cols in ((5, 6), (8, 9), (12, 11)):
        assert_sampling_matches_uncached(tri_grid(rows, cols), factor)


def test_face_normal_equals_np_cross_bit_for_bit():
    """``face_normals(..., normalize=False)``, which the quadrics and the
    collapse check read, is np.cross(b - a, c - a): the same bits on random,
    scaled, degenerate and signed-zero triangles."""
    rng = np.random.default_rng(3)
    tris = [rng.normal(scale=s, size=(3, 3)) for s in (1e-9, 1e-3, 1.0, 1e3)
            for _ in range(500)]
    tris += [np.zeros((3, 3)), -np.zeros((3, 3)), np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0.0]]),
             np.array([[1, 1, 1], [1, 1, 1], [1, 2, 3.0]]), np.array([[0, -0.0, 0], [1, 0, -0.0],
                                                                      [0, 1, 0.0]])]
    verts = np.concatenate(tris)
    got = face_normals(verts, np.arange(len(verts)).reshape(-1, 3), normalize=False)
    want = np.array([np.cross(b - a, c - a) for a, b, c in tris])
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_collapse_check_matches_the_per_face_loop_on_every_head_candidate(monkeypatch):
    """Every collapse the decimation of the head's pyramid weighs gets the
    per-face loop's verdict."""
    verdicts = []

    def checked(*args):
        got = _collapse_valid(*args)
        assert got is collapse_valid_loop(*args)
        verdicts.append(got)
        return got

    monkeypatch.setattr(sampling, "_collapse_valid", checked)
    mesh = canonical_body(SceneConfig().voxel_res)[1].part("head")
    for factor in NetConfig().ds_factors:
        mesh = build_sampling(mesh, factor).coarse
    assert len(verdicts) == 72


@pytest.mark.parametrize("mesh", [tri_grid(6, 7), icosphere(1.0, 2)], ids=["grid", "sphere"])
def test_collapse_check_matches_the_per_face_loop_on_jittered_meshes(mesh):
    """Both ways of every edge of a jittered mesh, where some collapses
    flip a face: the per-face loop's verdict on each."""
    verts = mesh.vertices + np.random.default_rng(0).normal(scale=0.3, size=mesh.vertices.shape)
    faces = [tuple(f) for f in mesh.faces]
    vert_faces = [set() for _ in verts]
    for fi, f in enumerate(faces):
        for w in f:
            vert_faces[w].add(fi)
    verdicts = set()
    for u, v in mesh_edges(mesh.faces).tolist():
        for args in ((u, v), (v, u)):
            args += (verts, faces, [True] * len(faces), vert_faces)
            got = _collapse_valid(*args)
            assert got is collapse_valid_loop(*args)
            verdicts.add(got)
    assert verdicts == {True, False}
