"""COMA-style mesh down/up-sampling operators.

Down-sampling removes vertices by greedy edge collapse in ascending quadric
error (collapses that would invalidate faces are skipped). D selects the
surviving vertices; U returns removed vertices through the barycentric
coordinates of their projection onto the nearest kept triangle, so D @ U is
the identity on coarse vertex features. The quadrics and the collapse check
take their face normals from ``mesh.face_normals``.

A collapse cost reads only its two vertices' quadrics and the target's
position, which never moves, so each cost is computed once and kept until a
collapse changes one of its two quadrics, which drops it. The heap entries,
and with them D, U and the coarse mesh, are those of recomputing every cost
on every push.
"""
from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..collision import FaceTable, point_triangle_closest
from ..errors import ValidationError
from ..mesh import PartMesh, face_normals

_AREA_EPS = 1e-12


@dataclass(frozen=True)
class SamplingOperator:
    D: sp.csr_matrix        # (Nc, N) indicator rows over kept vertices
    U: sp.csr_matrix        # (N, Nc) barycentric rows, each summing to 1
    coarse: PartMesh
    reached_target: bool


def check_sampling_factor(factor) -> None:
    """A sampling factor is a finite number >= 1: ValidationError otherwise."""
    if not (isinstance(factor, numbers.Real) and math.isfinite(factor) and factor >= 1):
        raise ValidationError(f"sampling factor must be a finite number >= 1, got {factor!r}")


def build_sampling(mesh: PartMesh, factor: float) -> SamplingOperator:
    check_sampling_factor(factor)
    n = mesh.num_vertices
    target = int(np.floor(n / factor))
    if factor == 1 or target >= n:
        eye = sp.identity(n, format="csr")
        return SamplingOperator(eye, eye.copy(), mesh, True)

    verts = mesh.vertices
    faces = [tuple(f) for f in mesh.faces]
    face_alive = [True] * len(faces)
    vert_faces = [set() for _ in range(n)]
    for fi, f in enumerate(faces):
        for v in f:
            vert_faces[v].add(fi)
    alive = np.ones(n, dtype=bool)
    quadrics = _vertex_quadrics(verts, mesh.faces)
    version = np.zeros(n, dtype=int)

    def collapse_cost(u, v):
        """Cost of moving u into v, evaluated at v's position."""
        Q = quadrics[u] + quadrics[v]
        p = np.append(verts[v], 1.0)
        return float(p @ Q @ p)

    costs = {}                          # (u, v) -> cost, while both quadrics hold
    cost_keys = [[] for _ in range(n)]  # per vertex: the keys of costs that read it
    heap = []
    def push(u, v):
        cost = costs.get((u, v))
        if cost is None:
            cost = costs[u, v] = collapse_cost(u, v)
            cost_keys[u].append((u, v))
            cost_keys[v].append((u, v))
        heapq.heappush(heap, (cost, u, v, version[u], version[v]))

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
        cost, u, v, vu, vv = heapq.heappop(heap)
        if not (alive[u] and alive[v]) or vu != version[u] or vv != version[v]:
            continue
        if v not in _neighbors(u, faces, vert_faces):
            continue
        if not _collapse_valid(u, v, verts, faces, face_alive, vert_faces):
            continue
        dying = sum(1 for fi in vert_faces[u] if v in faces[fi])
        if alive_faces - dying < 1:
            continue  # never decimate the mesh out of existence
        # collapse u -> v
        quadrics[v] = quadrics[u] + quadrics[v]
        for w in (u, v):
            for key in cost_keys[w]:
                costs.pop(key, None)
            cost_keys[w] = []
        alive[u] = False
        removed += 1
        alive_faces -= dying
        dead_faces = [fi for fi in vert_faces[u] if v in faces[fi]]
        for fi in dead_faces:
            face_alive[fi] = False
            for w in faces[fi]:
                vert_faces[w].discard(fi)
        for fi in list(vert_faces[u]):
            f = faces[fi]
            faces[fi] = tuple(v if w == u else w for w in f)
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
        if len(coarse_faces) == 0:
            raise ValidationError("decimation removed every face")
        nearest[dropped] = FaceTable(coarse.vertices, coarse_faces).nearest(verts[dropped])[0]
    rows, cols, vals = [], [], []
    for i in range(n):
        if alive[i]:
            rows.append(i)
            cols.append(new_index[i])
            vals.append(1.0)
        else:
            fi = nearest[i]
            a, b, c = coarse.vertices[coarse_faces[fi]]
            _, bary = point_triangle_closest(verts[i], a, b, c)
            for k in range(3):
                rows.append(i)
                cols.append(int(coarse_faces[fi][k]))
                vals.append(float(bary[k]))
    U = sp.csr_matrix((vals, (rows, cols)), shape=(n, nc))
    return SamplingOperator(D, U, coarse, n - removed <= target)


def _neighbors(v, faces, vert_faces):
    out = set()
    for fi in vert_faces[v]:
        out.update(faces[fi])
    out.discard(v)
    return out


def _vertex_quadrics(verts, faces):
    q = np.zeros((len(verts), 4, 4))
    normals = face_normals(verts, faces, normalize=False)
    for f, a, nrm in zip(faces, verts[faces[:, 0]], normals):
        area = 0.5 * np.linalg.norm(nrm)
        if area < _AREA_EPS:
            continue
        nrm = nrm / (2.0 * area)
        plane = np.append(nrm, -nrm @ a)
        K = area * np.outer(plane, plane)
        for v in f:
            q[v] += K
    return q


def _collapse_valid(u, v, verts, faces, face_alive, vert_faces):
    """Collapsing u into v must not create degenerate or flipped faces: each
    of u's surviving faces keeps three distinct corners, a normal at least
    ``2 * _AREA_EPS`` long, and a positive dot product with its old normal."""
    old = [faces[fi] for fi in vert_faces[u] if face_alive[fi] and v not in faces[fi]]
    new = [[v if w == u else w for w in f] for f in old]
    if any(len(set(f)) < 3 for f in new):
        return False
    normals = face_normals(verts, np.array(old + new, dtype=int).reshape(-1, 3),
                           normalize=False)
    na, nb = normals[:len(old)], normals[len(old):]
    return not (np.any(np.sqrt(np.vecdot(nb, nb)) < 2.0 * _AREA_EPS)
                or np.any(np.vecdot(na, nb) <= 0.0))
