import re

import numpy as np
import pytest

from courtpose.errors import ValidationError
from courtpose.mesh import (BodyMesh, PartMesh, adjacency_lists, load_obj,
                            mesh_edges, save_obj, stack_meshes, uniform_laplacian,
                            vertex_normals)
from helpers import icosphere, plane_grid, tri_grid


def test_vertex_normals_sphere_radial_within_2_degrees():
    sphere = icosphere(1.0, 3, part="head")
    n = vertex_normals(sphere)
    radial = sphere.vertices / np.linalg.norm(sphere.vertices, axis=1, keepdims=True)
    cos = np.sum(n * radial, axis=1)
    angles = np.degrees(np.arccos(np.clip(cos, -1, 1)))
    assert angles.max() < 2.0


def test_vertex_normals_flat_quad_and_winding_flip():
    quad = PartMesh(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
        [[0, 1, 2], [0, 2, 3]], "shirt")
    n = vertex_normals(quad)
    assert np.allclose(n, [[0, 0, 1]] * 4)
    flipped = PartMesh(quad.vertices, quad.faces[:, ::-1], "shirt")
    assert np.allclose(vertex_normals(flipped), -n)


def test_vertex_normals_isolated_vertex_zero():
    m = PartMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]],
                 [[0, 1, 2]], "shirt")
    n = vertex_normals(m)
    assert np.linalg.norm(n[3]) == 0.0


def test_laplacian_interior_grid_vertex_zero():
    g = plane_grid(5, 5)
    L = uniform_laplacian(g)
    out = L @ g.vertices
    interior = 2 * 5 + 2  # (2,2) in a 5x5 grid
    assert np.abs(out[interior]).max() < 1e-12


def test_laplacian_constant_function_zero():
    g = tri_grid(5, 6)
    L = uniform_laplacian(g)
    const = np.ones((g.num_vertices, 1)) * 3.7
    assert np.abs(L @ const).max() < 1e-12


def test_laplacian_matches_neighbor_average_oracle():
    sphere = icosphere(1.0, 1, part="legs")
    L = uniform_laplacian(sphere)
    out = L @ sphere.vertices
    adj = adjacency_lists(sphere.num_vertices, sphere.faces)
    for i in range(sphere.num_vertices):
        expect = np.mean(sphere.vertices[adj[i]], axis=0) - sphere.vertices[i]
        assert np.abs(out[i] - expect).max() < 1e-12


def test_laplacian_isolated_vertex_zero_row():
    m = PartMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 9]],
                 [[0, 1, 2]], "shirt")
    L = uniform_laplacian(m).toarray()
    assert np.abs(L[3]).max() == 0.0


def test_affine_function_zero_at_interior_vertices():
    g = tri_grid(6, 7)
    L = uniform_laplacian(g)
    A = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 1.0]])
    f = g.vertices @ A.T + np.array([0.3, -0.7, 2.0])
    out = L @ f
    interior = [r * 7 + c for r in range(2, 4) for c in range(2, 5)]
    assert np.abs(out[interior]).max() < 1e-12


def test_obj_round_trip(tmp_path):
    body = BodyMesh((
        icosphere(0.5, 1, part="head"),
        plane_grid(3, 3, part="shirt"),
    ))
    path = tmp_path / "body.obj"
    save_obj(path, body)
    back = load_obj(path)
    assert isinstance(back, BodyMesh)
    assert [p.part for p in back.parts] == ["head", "shirt"]
    for a, b in zip(body.parts, back.parts):
        assert np.abs(a.vertices - b.vertices).max() < 1e-6
        assert np.array_equal(a.faces, b.faces)


@pytest.mark.parametrize("tagged", [True, False], ids=["tagged", "untagged"])
def test_obj_round_trip_of_one_part_is_a_one_part_body(tmp_path, tagged):
    # save_obj writes a lone PartMesh with its `# part:` tag; a plain OBJ
    # without the tag reads as default_part
    part = icosphere(0.5, 1, part="arms")
    path = tmp_path / "arms.obj"
    save_obj(path, part)
    if not tagged:
        path.write_text(path.read_text().replace("# part: arms\n", ""))
    back = load_obj(path, default_part="arms")
    assert isinstance(back, BodyMesh)
    assert [p.part for p in back.parts] == ["arms"]
    assert np.abs(back.parts[0].vertices - part.vertices).max() < 1e-6
    assert np.array_equal(back.parts[0].faces, part.faces)
    assert np.array_equal(back.merged()[0], back.parts[0].vertices)


def test_stack_meshes_shifts_faces_by_the_vertices_before_them():
    meshes = [icosphere(0.5, 1, part="head"), plane_grid(3, 3), tri_grid(2, 3)]
    verts, faces = stack_meshes(meshes)
    starts = np.cumsum([0] + [m.num_vertices for m in meshes])
    assert np.array_equal(verts, np.concatenate([m.vertices for m in meshes]))
    for m, lo, hi in zip(meshes, starts, np.cumsum([m.num_faces for m in meshes])):
        assert np.array_equal(faces[hi - m.num_faces:hi], m.faces + lo)
    assert len(faces) == sum(m.num_faces for m in meshes)


def test_with_vertices_inverts_merged():
    body = BodyMesh((icosphere(0.5, 1, part="head"), plane_grid(3, 3, part="shirt")))
    verts, _ = body.merged()
    back = body.with_vertices(verts + 1.0)
    for a, b in zip(body.parts, back.parts):
        assert a.part == b.part
        assert np.array_equal(a.vertices + 1.0, b.vertices)
        assert np.array_equal(a.faces, b.faces)
    with pytest.raises(ValidationError):
        body.with_vertices(verts[:-1])


def test_obj_rejects_degenerate_faces(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
    with pytest.raises(ValidationError):
        load_obj(path)


def test_obj_face_across_two_part_sections_names_the_file(tmp_path):
    # the face 3 4 5 used to be dropped: 3 faces loaded as 2
    path = tmp_path / "split.obj"
    path.write_text("# part: head\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
                    "# part: shirt\nv 0 0 1\nv 1 0 1\nv 0 1 1\nf 4 5 6\nf 3 4 5\n")
    msg = f"OBJ file {path}: a face of part 'shirt' indexes a vertex outside it"
    with pytest.raises(ValidationError, match=re.escape(msg)):
        load_obj(path)


def test_obj_geometry_before_the_first_part_tag_names_the_file(tmp_path):
    # the untagged head of a tagged file used to be dropped: 6 vertices and
    # 2 faces loaded as 3 and 1
    path = tmp_path / "untagged_head.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
                    "# part: shirt\nv 0 0 1\nv 1 0 1\nv 0 1 1\nf 4 5 6\n")
    msg = f"OBJ file {path} has 3 vertices and 1 faces before its first '# part:' tag"
    with pytest.raises(ValidationError, match=re.escape(msg)):
        load_obj(path)


def test_part_name_validation():
    with pytest.raises(ValidationError):
        PartMesh(np.zeros((3, 3)), [[0, 1, 2]], "torso")


def test_face_index_validation():
    with pytest.raises(ValidationError):
        PartMesh(np.zeros((3, 3)), [[0, 1, 7]], "head")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_validation(bad):
    verts = np.eye(3)
    verts[1, 2] = bad
    with pytest.raises(ValidationError, match="finite"):
        PartMesh(verts, [[0, 1, 2]], "head")


def test_mesh_edges_unique_sorted():
    g = plane_grid(3, 3)
    e = mesh_edges(g.faces)
    assert np.all(e[:, 0] < e[:, 1])
    assert len(np.unique(e, axis=0)) == len(e)
