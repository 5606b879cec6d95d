"""Deterministic spiral orderings around mesh vertices.

Ordering rule (fixed, documented): the spiral starts at the vertex itself;
its 1-ring follows counterclockwise around the vertex normal, starting from
the neighbor whose tangent-plane direction best aligns with a global
reference axis (+X, falling back to +Y when the normal is parallel to +X).
Farther BFS rings are appended in the same angular order. Dilation keeps
every d-th entry of the concatenated sequence; short spirals pad with -1.

A table is applied as a fixed sparse gather matrix, like the samplers: row
``v*S + k`` picks vertex ``indices[v, k]``; PAD rows are empty (gather zero).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import ValidationError
from ..mesh import PartMesh, adjacency_lists, vertex_normals

PAD = -1


@dataclass(frozen=True)
class SpiralIndices:
    indices: np.ndarray  # (N, S), PAD marks missing entries
    dilation: int
    gather: sp.csr_matrix = field(init=False, repr=False, compare=False)  # (N*S, N)

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))
        if self.indices.ndim != 2:
            raise ValidationError("spiral indices must be (N, S)")
        n = self.indices.shape[0]
        flat = self.indices.ravel()
        if flat.size and (flat.min() < PAD or flat.max() >= n):
            raise ValidationError(f"spiral indices must lie in [{PAD}, {n})")
        rows = np.flatnonzero(flat != PAD)
        object.__setattr__(self, "gather", sp.csr_matrix(
            (np.ones(rows.size), (rows, flat[rows])), shape=(flat.size, n)))

    @property
    def length(self) -> int:
        return self.indices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.indices.shape[0]


def build_spirals(mesh: PartMesh, length: int = 9, dilation: int = 1) -> SpiralIndices:
    for name, value in (("length", length), ("dilation", dilation)):
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValidationError(f"spiral {name} must be an integer >= 1, got {value!r}")
    n = mesh.num_vertices
    adj = adjacency_lists(n, mesh.faces)
    normals = vertex_normals(mesh)
    out = np.full((n, length), PAD, dtype=int)
    need = length * dilation
    for v in range(n):
        if not adj[v]:
            continue  # isolated: all padding
        seq = _spiral_sequence(v, adj, mesh.vertices, normals[v], need)
        picked = seq[::dilation][:length]
        out[v, :len(picked)] = picked
    return SpiralIndices(out, dilation)


def _tangent_basis(normal: np.ndarray):
    n = normal.copy()
    ln = np.linalg.norm(n)
    if ln < 1e-12:
        n = np.array([0.0, 0.0, 1.0])
    else:
        n /= ln
    for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])):
        e1 = axis - (axis @ n) * n
        if np.linalg.norm(e1) > 1e-8:
            e1 /= np.linalg.norm(e1)
            # np.cross(n, e1) from its components, in np.cross's own order:
            # for one 3-vector per call, transforms.cross's array handling
            # would cost more than the arithmetic
            (n0, n1, n2), (a0, a1, a2) = n.tolist(), e1.tolist()
            return e1, np.array([n1 * a2 - n2 * a1, n2 * a0 - n0 * a2, n0 * a1 - n1 * a0])
    raise AssertionError("unreachable: +X and +Y cannot both be parallel to n")


def _angles(center, pts, e1, e2):
    d = pts - center
    a = np.arctan2(d @ e2, d @ e1)
    return np.where(a < 0, a + 2.0 * np.pi, a)


def _spiral_sequence(v, adj, verts, normal, need):
    e1, e2 = _tangent_basis(normal)
    ring = sorted(adj[v])
    ang = _angles(verts[v], verts[ring], e1, e2)
    # start at the neighbor most aligned with the reference axis (angle
    # closest to zero, either side), then walk counterclockwise
    start_k = int(np.argmin(np.minimum(ang, 2.0 * np.pi - ang)))
    start_angle = ang[start_k]
    order = np.argsort((np.round(ang - start_angle, 12)) % (2.0 * np.pi), kind="stable")
    seq = [v] + [ring[k] for k in order]
    visited = set(seq)
    frontier = [ring[k] for k in order]
    while len(seq) < need and frontier:
        nxt = sorted({u for f in frontier for u in adj[f]} - visited)
        if not nxt:
            break
        ang_n = _angles(verts[v], verts[nxt], e1, e2)
        order_n = np.argsort((np.round(ang_n - start_angle, 12)) % (2.0 * np.pi), kind="stable")
        ring_sorted = [nxt[k] for k in order_n]
        seq += ring_sorted
        visited |= set(ring_sorted)
        frontier = ring_sorted
    return seq
