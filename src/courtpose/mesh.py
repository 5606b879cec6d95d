"""Triangle meshes segmented into named body parts, plus the mesh operators
the rest of the library leans on (normals, uniform Laplacian, OBJ files).

Meshes may be non-watertight and may contain multiple connected components;
nothing here assumes manifoldness.

``mesh_edges`` sorts one integer code per edge (a 1-D ``np.unique``), and
``uniform_laplacian`` builds its CSR arrays from ``np.bincount`` degrees,
with no per-vertex Python loop; both equal the row-unique and set-based
constructions they replaced, array for array. ``adjacency_lists``, used
only when spirals are built, stays a loop over the edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .transforms import cross

PART_NAMES = ("head", "arms", "shirt", "pants", "legs", "shoes")

_DEGENERATE_AREA = 1e-12


@dataclass(frozen=True)
class PartMesh:
    vertices: np.ndarray  # (N, 3), meters
    faces: np.ndarray     # (M, 3), vertex indices
    part: str

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "faces", np.asarray(self.faces, dtype=int).reshape(-1, 3))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValidationError("vertices must be (N, 3)")
        if not np.all(np.isfinite(self.vertices)):
            raise ValidationError("mesh vertices must be finite")
        if self.part not in PART_NAMES:
            raise ValidationError(f"unknown part {self.part!r}; expected one of {PART_NAMES}")
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise ValidationError(f"a face of part {self.part!r} indexes a vertex outside it")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def with_vertices(self, vertices: np.ndarray) -> "PartMesh":
        return PartMesh(vertices, self.faces, self.part)


@dataclass(frozen=True)
class BodyMesh:
    """Ordered collection of part meshes making up one body."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        names = [p.part for p in self.parts]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate part names in body mesh")

    def part(self, name: str) -> PartMesh:
        for p in self.parts:
            if p.part == name:
                return p
        raise ValidationError(f"body has no part {name!r}")

    @property
    def total_vertices(self) -> int:
        return sum(p.num_vertices for p in self.parts)

    def merged(self):
        """Single (vertices, faces) pair with per-part index offsets applied."""
        return stack_meshes(self.parts)

    def with_parts(self, parts) -> "BodyMesh":
        return BodyMesh(tuple(parts))

    def with_vertices(self, vertices: np.ndarray) -> "BodyMesh":
        """Inverse of ``merged``: these parts carrying a merged array's rows."""
        if len(vertices) != self.total_vertices:
            raise ValidationError("merged vertex count does not match the body")
        ends = np.cumsum([p.num_vertices for p in self.parts])[:-1]
        return self.with_parts(map(PartMesh.with_vertices, self.parts,
                                   np.split(vertices, ends)))


def stack_meshes(meshes):
    """(vertices, faces) of the meshes as one: their vertices in order, and
    each one's faces shifted by the vertex count of those before it."""
    vs, fs, off = [], [], 0
    for m in meshes:
        vs.append(m.vertices)
        fs.append(m.faces + off)
        off += m.num_vertices
    return np.concatenate(vs, axis=0), np.concatenate(fs, axis=0)


def face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    a = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    b = vertices[faces[:, 2]] - vertices[faces[:, 0]]
    return 0.5 * np.linalg.norm(cross(a, b), axis=1)


def face_normals(vertices: np.ndarray, faces: np.ndarray, normalize: bool = True) -> np.ndarray:
    a = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    b = vertices[faces[:, 2]] - vertices[faces[:, 0]]
    n = cross(a, b)
    if normalize:
        ln = np.linalg.norm(n, axis=1, keepdims=True)
        n = np.divide(n, ln, out=np.zeros_like(n), where=ln > 0)
    return n


def vertex_normals(mesh: PartMesh) -> np.ndarray:
    """Area-weighted average of incident face normals, unit length.

    Isolated vertices get a zero normal (flagged by the zero length rather
    than an exception so partially used buffers stay usable).
    """
    V, F = mesh.vertices, mesh.faces
    weighted = face_normals(V, F, normalize=False)  # length = 2 * area
    out = np.zeros_like(V)
    for k in range(3):
        np.add.at(out, F[:, k], weighted)
    ln = np.linalg.norm(out, axis=1, keepdims=True)
    return np.divide(out, ln, out=np.zeros_like(out), where=ln > 0)


def mesh_edges(faces: np.ndarray) -> np.ndarray:
    """Unique undirected edges (K, 2) with i < j, sorted lexicographically."""
    faces = np.asarray(faces, dtype=int).reshape(-1, 3)
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]], axis=0)
    e.sort(axis=1)
    # one code per edge: i * n + j with j < n sorts as the rows (i, j) do
    n = int(e.max()) + 1 if e.size else 1
    return np.stack(np.divmod(np.unique(e[:, 0] * n + e[:, 1]), n), axis=1)


def adjacency_lists(num_vertices: int, faces: np.ndarray) -> list:
    adj = [set() for _ in range(num_vertices)]
    for i, j in mesh_edges(faces):
        adj[i].add(int(j))
        adj[j].add(int(i))
    return [sorted(s) for s in adj]


def uniform_laplacian(mesh: PartMesh) -> sp.csr_matrix:
    """Sparse N x N operator; row i maps vertices to (mean of neighbors) - v_i.

    Isolated vertices get an all-zero row. A face that repeats a vertex
    makes the vertex its own neighbour, whose diagonal is then 1/degree - 1.
    The CSR arrays are built directly, each row's columns ascending.
    """
    n = mesh.num_vertices
    if mesh.num_faces == 0:
        raise ValidationError("mesh has no faces, Laplacian undefined")
    i, j = mesh_edges(mesh.faces).T
    loop = i == j
    # each edge in both directions, a self-loop once, at 1/degree of its row
    rows = np.concatenate([i, j[~loop]])
    cols = np.concatenate([j, i[~loop]])
    degree = np.bincount(rows, minlength=n)
    vals = 1.0 / degree[rows]
    vals[rows == cols] -= 1.0
    # -1 on the diagonal of every other vertex with a neighbour
    own = np.zeros(n, dtype=bool)
    own[i[loop]] = True
    diag = np.flatnonzero((degree > 0) & ~own)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    vals = np.concatenate([vals, np.full(len(diag), -1.0)])
    order = np.argsort(rows * n + cols)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))


# ---------------------------------------------------------------------------
# OBJ I/O (ASCII, with `# part: <name>` section tags)
# ---------------------------------------------------------------------------

def save_obj(path, mesh) -> None:
    """Write a PartMesh or BodyMesh. Parts are tagged with `# part: <name>`."""
    parts = mesh.parts if isinstance(mesh, BodyMesh) else (mesh,)
    lines = []
    offset = 0
    for p in parts:
        lines.append(f"# part: {p.part}")
        for v in p.vertices:
            lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
        for f in p.faces:
            lines.append(f"f {f[0] + 1 + offset} {f[1] + 1 + offset} {f[2] + 1 + offset}")
        offset += p.num_vertices
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_obj(path, default_part: str = "shirt"):
    """Read an OBJ written by save_obj (or a plain untagged OBJ, whose one
    part is ``default_part``).

    Returns a BodyMesh with one part per `# part:` section, so a single-part
    file gives a one-part body. Geometry before the first tag, a face on
    vertices outside its section or of area below 1e-12, and an unknown or
    repeated part are ValidationErrors naming the file.
    """
    sections = []  # (part, vertex count, face count) at each tag
    verts, faces = [], []
    try:
        fh = open(path)
    except OSError as e:
        raise ValidationError(f"cannot read OBJ file {path}: {e}") from e
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            try:
                if line.startswith("# part:"):
                    sections.append((line.split(":", 1)[1].strip(), len(verts), len(faces)))
                elif line.startswith("v "):
                    xyz = [float(x) for x in line.split()[1:4]]
                    if len(xyz) != 3:
                        raise ValueError("a vertex needs 3 coordinates")
                    verts.append(xyz)
                elif line.startswith("f "):
                    idx = [int(tok.split("/")[0]) - 1 for tok in line.split()[1:]]
                    if len(idx) != 3:
                        raise ValueError("only triangle faces are supported")
                    faces.append(idx)
            except ValueError as e:
                raise ValidationError(f"OBJ file {path}, line {lineno}: {e}") from e
    if not verts:
        raise ValidationError(f"OBJ file {path} has no vertices")
    if not sections:
        sections = [(default_part, 0, 0)]
    elif sections[0][1:] != (0, 0):
        raise ValidationError(f"OBJ file {path} has {sections[0][1]} vertices and "
                              f"{sections[0][2]} faces before its first '# part:' tag")
    verts = np.asarray(verts, dtype=float)
    faces = np.asarray(faces, dtype=int).reshape(-1, 3)
    ends = [s[1:] for s in sections[1:]] + [(len(verts), len(faces))]
    try:
        # one part per section: its vertices, and its faces on those alone
        body = BodyMesh(tuple(PartMesh(verts[v0:v1], faces[f0:f1] - v0, name)
                              for (name, v0, f0), (v1, f1) in zip(sections, ends)))
    except ValidationError as e:
        raise ValidationError(f"OBJ file {path}: {e}") from e
    bad = np.nonzero(face_areas(verts, faces) < _DEGENERATE_AREA)[0]
    if bad.size:
        raise ValidationError(f"OBJ file {path} has degenerate (zero-area) faces "
                              f"at rows {bad[:8].tolist()}")
    return body
