"""Test-only helpers that the library itself never calls: an icosphere, a
square grid and a triangle lattice for geometry tests, a part mesh's face
table, a random rotation, a sparse JSON writer for skinning weights (the CLI
only reads them), a sum-to-scalar op for autograd losses, and the seeds of
the pipeline scenes."""
import numpy as np

from courtpose.collision import FaceTable
from courtpose.mesh import PartMesh
from courtpose.meshnet import autograd as ag
from courtpose.skinning import SkinningWeights
from courtpose.transforms import axis_angle_to_matrix

# the bench scenes, the held-out scenes and twenty more
PIPELINE_SEEDS = [*range(5000, 5008), *range(6000, 6008), *range(1000, 1020)]

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    (-1, _GOLDEN, 0), (1, _GOLDEN, 0), (-1, -_GOLDEN, 0), (1, -_GOLDEN, 0),
    (0, -1, _GOLDEN), (0, 1, _GOLDEN), (0, -1, -_GOLDEN), (0, 1, -_GOLDEN),
    (_GOLDEN, 0, -1), (_GOLDEN, 0, 1), (-_GOLDEN, 0, -1), (-_GOLDEN, 0, 1),
], dtype=float)

_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=int)


def icosphere(radius: float = 1.0, subdivisions: int = 2, center=(0, 0, 0),
              part: str = "shirt") -> PartMesh:
    """Subdivided icosahedron on a sphere, outward-facing (CCW) winding."""
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES
    for _ in range(subdivisions):
        verts, faces = _subdivide(verts, faces)
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    return PartMesh(verts * radius + np.asarray(center, dtype=float), faces, part)


def _subdivide(verts, faces):
    verts = list(map(tuple, verts))
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = len(verts)
            verts.append(tuple((np.array(verts[i]) + np.array(verts[j])) / 2.0))
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return np.asarray(verts, dtype=float), np.asarray(out, dtype=int)


def plane_grid(nx: int, ny: int, spacing: float = 1.0, part: str = "shirt") -> PartMesh:
    """Regular right-triangle grid in the z=0 plane, normals +z."""
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    verts = np.stack([xs.ravel() * spacing, ys.ravel() * spacing,
                      np.zeros(nx * ny)], axis=1)
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            b = (i + 1) * ny + j
            faces.append((a, b, b + 1))
            faces.append((a, b + 1, a + 1))
    return PartMesh(verts, np.asarray(faces, dtype=int), part)


def tri_grid(rows: int, cols: int, spacing: float = 1.0, part: str = "shirt") -> PartMesh:
    """Equilateral-triangle lattice in the z=0 plane (interior valence 6)."""
    verts = []
    for r in range(rows):
        for c in range(cols):
            verts.append(((c + 0.5 * (r % 2)) * spacing,
                          r * spacing * np.sqrt(3.0) / 2.0, 0.0))
    faces = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            a = r * cols + c
            b = a + 1
            d = (r + 1) * cols + c
            e = d + 1
            if r % 2 == 0:
                faces.append((a, b, d))
                faces.append((b, e, d))
            else:
                faces.append((a, b, e))
                faces.append((a, e, d))
    return PartMesh(np.asarray(verts, dtype=float), np.asarray(faces, dtype=int), part)


def face_table(mesh: PartMesh) -> FaceTable:
    """The nearest-triangle query object of ``mesh``, such as a garment."""
    return FaceTable(mesh.vertices, mesh.faces)


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    return axis_angle_to_matrix(axis * angle)


def weights_to_json(w: SkinningWeights) -> dict:
    """The sparse record that ``skinning.weights_from_json`` reads."""
    rows, cols = np.nonzero(w.W)
    return {
        "shape": list(w.W.shape),
        "rows": rows.tolist(),
        "cols": cols.tolist(),
        "values": w.W[rows, cols].tolist(),
    }


def sum_all(a: ag.Var) -> ag.Var:
    """Sum of every entry of ``a``, as a scalar Var."""
    out = ag.Var(a.value.sum(), (a,))
    out.grad_fn = lambda g: ag._accum(a, np.full_like(a.value, float(g)))
    return out
