"""Garment-body interpenetration resolution.

An arm cylinder pokes 5 mm through a sleeve; the detect-push-optimize loop
moves the colliding vertices inside and relaxes their neighborhood under
data + Laplacian + edge-length terms. Pinned vertices never move during the
inner solves and the far field keeps its edge lengths. The detector asks the
garment's FaceTable, the one nearest-triangle query object, for the nearest
sleeve face of each arm vertex within its 5 cm band; compose builds that
table once per garment and reuses it on every pass.
"""
import numpy as np

from courtpose import BodyMesh, FaceTable, detect_collisions, resolve_interpenetration
from courtpose.mesh import mesh_edges
from courtpose.primitives import capsule, tube

garment = tube((0, 0.05, 0), (0, 0.25, 0), 0.05, n_seg=16, n_rings=6, part="shirt")
body = capsule((0, 0, 0), (0, 0.3, 0), 0.055, n_seg=12, cap_rings=3,
               shaft_rings=6, part="arms")
scene = BodyMesh((body, garment))

initial = detect_collisions(body, FaceTable(garment.vertices, garment.faces))
print(f"arm pokes 5 mm through the sleeve: {initial.count} colliding vertices")

resolved, report = resolve_interpenetration(scene)
counts = [it["collisions"] for it in report["iterations"]]
print(f"collision counts per outer iteration: {counts}")
print(f"residual collisions: {report['residual_collisions']}")
print("pinned vertices bit-identical through the inner solves:",
      all(all(it["pinned_intact"].values()) for it in report["iterations"]
          if it["pinned_intact"]))

flagged = set(initial.vertex_indices.tolist())
e = mesh_edges(body.faces)
outside = [k for k, (i, j) in enumerate(e) if i not in flagged and j not in flagged]
L0 = np.linalg.norm(body.vertices[e[:, 0]] - body.vertices[e[:, 1]], axis=1)
V1 = resolved.part("arms").vertices
L1 = np.linalg.norm(V1[e[:, 0]] - V1[e[:, 1]], axis=1)
print(f"mean edge-length change outside the collision region: "
      f"{np.abs(L1[outside] / L0[outside] - 1).mean() * 100:.4f}%")
