"""Combine body-part meshes while resolving garment-body interpenetration.

The loop: detect body vertices poking outside their garment, push them 10 mm
inward along their vertex normals, pin them, and relax the remaining
vertices under a data + Laplacian + edge-length objective (scipy's L-BFGS-B
inner solves, 20 iterations) so the push blends smoothly into the part.
Repeat until no collisions remain or the outer-iteration budget (10) runs
out; a residual count is reported, never silently dropped. The detection
that ends the loop is that count, and one unrecorded pass follows the last
push only when the budget runs out. Garments never move, so a pass detects
again only the (body, garment) pairs whose body part was pushed and relaxed
since that pair's last detection; every other pair keeps its last report.

What each pass can share is built once per call: each garment's
``FaceTable`` (packed faces, bounding spheres, face normals) serves all its
detections, and each relaxed body part's ``PenetrationTerms`` (Laplacian,
edges, rest lengths) serve all its relaxations. The push, the loss and the
L-BFGS-B iterations stay per body part.

``scipy.optimize`` is imported in ``minimize_lbfgs``, where it is used, so
that importing this module loads none of it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .collision import FaceTable, detect_collisions
from .errors import NumericalError, ValidationError
from .mesh import BodyMesh, PartMesh, mesh_edges, uniform_laplacian, vertex_normals

PUSH_DISTANCE = 0.010  # meters, along the inward vertex normal
OUTER_ITERATIONS = 10
INNER_ITERATIONS = 20
LBFGS_MEMORY = 10
# penetration_loss weights: data, Laplacian, edge length
W_DATA = 1.0
W_LAP = 0.1
W_EL = 0.1

# (body part, garment) pairs that are checked for interpenetration
GARMENT_PAIRS = (("arms", "shirt"), ("head", "shirt"), ("legs", "pants"))


@dataclass(frozen=True)
class PenetrationTerms:
    """The parts of the penetration loss fixed by the mesh and its anchor V*:
    the Laplacian and its transpose, the edges of nonzero rest length and
    those rest lengths."""

    laplacian: sp.csr_matrix
    laplacian_t: sp.csc_matrix  # laplacian.T, built once for the gradient
    edges: np.ndarray  # (K, 2)
    rest: np.ndarray   # (K,)


def penetration_terms(mesh: PartMesh, V_star: np.ndarray) -> PenetrationTerms:
    """Build the loss terms that do not depend on V; zero-length rest edges
    are excluded with a warning."""
    edges = mesh_edges(mesh.faces)
    rest = np.linalg.norm(V_star[edges[:, 0]] - V_star[edges[:, 1]], axis=1)
    ok = rest > 1e-12
    if not np.all(ok):
        warnings.warn(f"{int(np.sum(~ok))} zero-length rest edges excluded "
                      "from the edge-length term")
    L = uniform_laplacian(mesh)
    return PenetrationTerms(L, L.T, edges[ok], rest[ok])


def penetration_loss(V: np.ndarray, V_star: np.ndarray, mesh: PartMesh,
                     terms: PenetrationTerms | None = None):
    """W_DATA*||V-V*||_2 + W_LAP*||L(V)-L(V*)||_F + W_EL*sum|E/E* - 1|, with
    the module's weights.

    Returns (loss, gradient (N,3)). Norm gradients are guarded to zero at
    the singular point V == V*. ``terms`` are ``penetration_terms(mesh,
    V_star)``, built here when not given.
    """
    V = np.asarray(V, dtype=float)
    V_star = np.asarray(V_star, dtype=float)
    if V.shape != V_star.shape or V.shape != mesh.vertices.shape:
        raise ValidationError("vertex arrays must match the mesh")
    if terms is None:
        terms = penetration_terms(mesh, V_star)
    grad = np.zeros_like(V)

    diff = V - V_star
    nd = float(np.linalg.norm(diff))
    loss = W_DATA * nd
    if nd > 1e-12:
        grad += W_DATA * diff / nd

    L = terms.laplacian
    ld = L @ diff
    nl = float(np.linalg.norm(ld))
    loss += W_LAP * nl
    if nl > 1e-12:
        grad += W_LAP * (terms.laplacian_t @ ld) / nl

    edges = terms.edges
    rest = terms.rest
    d = V[edges[:, 0]] - V[edges[:, 1]]
    cur = np.linalg.norm(d, axis=1)
    ratio = cur / rest - 1.0
    loss += W_EL * float(np.sum(np.abs(ratio)))
    safe = np.where(cur > 1e-12, cur, 1.0)
    coef = W_EL * np.sign(ratio) / rest / safe
    contrib = coef[:, None] * d
    np.add.at(grad, edges[:, 0], contrib)
    np.add.at(grad, edges[:, 1], -contrib)
    return loss, grad


def minimize_lbfgs(fun, x0: np.ndarray):
    """scipy's L-BFGS-B (``LBFGS_MEMORY`` pairs, no bounds) on ``fun(x) -> (f, g)``.

    Only the budget of ``INNER_ITERATIONS`` iterations, a vanishing gradient
    or a failed line search ends the solve. Returns (x, [f history]): the
    start value, then the value after each iteration, never increasing.
    """
    history = []

    def checked(x):
        f, g = fun(x)
        if not history:  # scipy's first call is at x0
            if not np.isfinite(f):
                raise NumericalError("non-finite objective at the initial point")
            history.append(float(f))
        return f, g

    def record(intermediate_result):
        history.append(float(intermediate_result.fun))

    from scipy.optimize import minimize
    res = minimize(checked, x0, jac=True, method="L-BFGS-B", callback=record,
                   options={"maxiter": INNER_ITERATIONS, "maxcor": LBFGS_MEMORY,
                            "ftol": 0.0, "gtol": 1e-12})
    return res.x, history


def resolve_interpenetration(parts: BodyMesh):
    """Detect-push-optimize loop over the body/garment pairs, with the
    module constants.

    Returns (BodyMesh, report). The report carries per-iteration collision
    counts and inner loss histories plus the residual collision count, which
    is the count of the detection pass that ended the loop.
    """
    current = {p.part: p.vertices.copy() for p in parts.parts}
    anchors = {p.part: p.vertices.copy() for p in parts.parts}  # V* stays the input
    meshes = {p.part: p for p in parts.parts}
    pairs = [(b, g) for b, g in GARMENT_PAIRS if b in meshes and g in meshes]
    # garments never move: each one's face table serves all its detections
    garments = {}
    for g in {g for _, g in pairs}:
        if meshes[g].num_faces == 0:
            raise ValidationError(f"{g} mesh has no faces")
        garments[g] = FaceTable(meshes[g].vertices, meshes[g].faces)
    terms = {}  # body part -> penetration_terms, built on its first collision
    report = {"iterations": [], "residual_collisions": 0, "pairs": pairs}
    detected = {}  # pair -> its CollisionReport, until its body part moves

    for outer in range(OUTER_ITERATIONS + 1):
        found = {}
        for pair in pairs:
            if pair not in detected:
                body_name, garment_name = pair
                body = meshes[body_name].with_vertices(current[body_name])
                detected[pair] = detect_collisions(body, garments[garment_name])
            if detected[pair].count:
                found.setdefault(pair[0], []).append(detected[pair])
        total = sum(r.count for reps in found.values() for r in reps)
        if outer == OUTER_ITERATIONS:
            break  # the budget is spent: this pass only counts the residual
        entry = {"collisions": total, "losses": {}, "pinned": {}, "pinned_intact": {}}
        report["iterations"].append(entry)
        if total == 0:
            break
        # each body part with a collision is pushed and relaxed below
        detected = {pair: rep for pair, rep in detected.items() if pair[0] not in found}
        for body_name, reps in found.items():
            mesh = meshes[body_name].with_vertices(current[body_name])
            normals = vertex_normals(mesh)
            pinned = np.unique(np.concatenate([r.vertex_indices for r in reps]))
            V = current[body_name]
            V[pinned] -= PUSH_DISTANCE * normals[pinned]
            free = np.setdiff1d(np.arange(len(V)), pinned)
            if free.size == 0:
                continue
            V_star = anchors[body_name]
            if body_name not in terms:
                terms[body_name] = penetration_terms(mesh, V_star)
            pinned_snapshot = V[pinned].copy()

            def objective(xfree, V=V, free=free, mesh=mesh, V_star=V_star,
                          part_terms=terms[body_name]):
                W = V.copy()
                W[free] = xfree.reshape(-1, 3)
                loss, grad = penetration_loss(W, V_star, mesh, terms=part_terms)
                return loss, grad[free].ravel()

            x, losses = minimize_lbfgs(objective, V[free].ravel())
            V[free] = x.reshape(-1, 3)
            entry["losses"][body_name] = losses
            entry["pinned"][body_name] = pinned.tolist()
            entry["pinned_intact"][body_name] = bool(
                np.array_equal(V[pinned], pinned_snapshot))

    report["residual_collisions"] = int(total)
    out_parts = [meshes[p.part].with_vertices(current[p.part]) for p in parts.parts]
    return parts.with_parts(out_parts), report
