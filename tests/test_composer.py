import numpy as np
import pytest

from courtpose import collision
from courtpose.collision import (detect_collisions, nearest_triangle_bruteforce,
                                 nearest_triangles, point_triangle_closest)
from courtpose.composer import (PenetrationWeights, minimize_lbfgs,
                                penetration_loss, resolve_interpenetration)
from courtpose.errors import ValidationError
from courtpose.mesh import BodyMesh, PartMesh, mesh_edges
from courtpose.primitives import capsule, icosphere, tube


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
    garment = icosphere(1.0, 3, part="shirt")
    inside = icosphere(0.8, 2, part="arms")
    assert detect_collisions(inside, garment).count == 0
    far_out = icosphere(1.2, 2, part="arms")  # outside but beyond the 5 cm band
    assert detect_collisions(far_out, garment).count == 0
    just_out = icosphere(1.03, 2, part="arms")
    rep = detect_collisions(just_out, garment)
    assert rep.count == just_out.num_vertices


def test_empty_garment_rejected():
    body = icosphere(1.0, 1, part="arms")
    with pytest.raises(ValidationError):
        detect_collisions(body, PartMesh(np.zeros((3, 3)), np.zeros((0, 3), int),
                                         "shirt"))


def test_batched_query_matches_bruteforce_exactly(monkeypatch):
    garment = icosphere(1.0, 2, part="shirt")
    rng = np.random.default_rng(0)
    pts = np.concatenate([
        rng.normal(scale=1.2, size=(123, 3)),
        garment.vertices[:40] * 1.001,  # near-surface queries hit ties
    ])
    expected = [nearest_triangle_bruteforce(p, garment.vertices, garment.faces)
                for p in pts]
    # the default chunking, then 7 points per chunk with a partial last chunk
    assert len(pts) % 7 != 0
    for chunk_pairs in (collision.QUERY_CHUNK_PAIRS, 7 * garment.num_faces):
        monkeypatch.setattr(collision, "QUERY_CHUNK_PAIRS", chunk_pairs)
        fv, qv, dv = nearest_triangles(pts, garment.vertices, garment.faces)
        for k, (fb, qb, db) in enumerate(expected):
            assert fb == fv[k]
            assert db == dv[k]
            assert np.array_equal(qb, qv[k])


@pytest.mark.parametrize("apex", [(0.5, 1.0, 0.0), (0.5, 1.0, 1.0)])
def test_batched_query_tie_on_shared_edge_goes_to_lowest_face(apex):
    # two faces sharing edge (0, 1), mirror images across the plane y = 0;
    # the query point on that plane is equidistant from both
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], apex,
                      [apex[0], -apex[1], apex[2]]])
    p = np.array([[0.5, 0.0, 1.0]])
    for faces in ([[0, 1, 2], [0, 1, 3]], [[0, 1, 3], [0, 1, 2]]):
        faces = np.array(faces)
        q0, _ = point_triangle_closest(p[0], *verts[faces[0]])
        q1, _ = point_triangle_closest(p[0], *verts[faces[1]])
        assert np.sum((p[0] - q0) ** 2) == np.sum((p[0] - q1) ** 2)
        fv, qv, dv = nearest_triangles(p, verts, faces)
        fb, qb, db = nearest_triangle_bruteforce(p[0], verts, faces)
        assert fv[0] == fb == 0
        assert dv[0] == db
        assert np.array_equal(qv[0], qb)


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


def test_edge_term_first_order_in_uniform_scale():
    mesh = capsule((0, 0, 0), (0, 0.3, 0), 0.05, part="arms")
    Vs = mesh.vertices
    eps = 1e-3
    V = Vs * (1.0 + eps)
    w = PenetrationWeights(w_data=0.0, w_lap=0.0, w_el=1.0)
    loss, _ = penetration_loss(V, Vs, mesh, w)
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


def test_lbfgs_decreases_quadratic():
    A = np.diag([1.0, 10.0, 100.0])
    b = np.array([1.0, -2.0, 3.0])

    def f(x):
        return 0.5 * x @ A @ x - b @ x, A @ x - b

    x, hist = minimize_lbfgs(f, np.zeros(3), max_iters=50)
    assert all(h2 <= h1 + 1e-15 for h1, h2 in zip(hist, hist[1:]))
    assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-6


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
    rep0 = detect_collisions(body0, scene.part("shirt"))
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
