"""Camera from the court: planar PnP + line-mask refinement.

Synthesizes a broadcast camera over the court, rasterizes the court lines
into a mask, recovers the camera from four landmark correspondences, then
refines against the exact distance to the mask's nearest line pixel. A
deliberately perturbed start shows the refinement pulling the camera back
onto the lines.
"""
import numpy as np

from courtpose import Camera, make_court_model
from courtpose.calibrate import (rasterize_court_lines, refine_camera_lines,
                                 solve_pnp_planar)
from courtpose.synth import _pick_correspondences, court_landmark_reprojection
from courtpose.transforms import axis_angle_to_matrix, look_at_rotation

SIZE = (1280, 720)
court = make_court_model()
print(f"court: {court.length} x {court.width} m, {len(court.primitives)} primitives")

eye = np.array([4.0, 9.0, court.width / 2 + 13.0])
R = look_at_rotation(eye, np.array([2.0, 1.0, 0.0]))
camera = Camera(1500.0, SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)

mask = rasterize_court_lines(camera, court, SIZE)
print(f"rasterized mask: {int(mask.pixels.sum())} line pixels")

corrs = _pick_correspondences(camera, court, SIZE)
est, rms = solve_pnp_planar(corrs, SIZE)
print(f"planar PnP: reprojection rms {rms:.2e} px, focal {est.f:.1f} "
      f"(truth {camera.f:.1f})")

axis = np.array([0.3, 1.0, -0.2])
pert = Camera(camera.f, camera.px, camera.py,
              axis_angle_to_matrix(np.deg2rad(2.0) * axis / np.linalg.norm(axis)) @ camera.R,
              camera.T + np.array([0.12, -0.08, 0.1]))
before = court_landmark_reprojection(pert, camera, court, SIZE)
result = refine_camera_lines(pert, mask, court)
after = court_landmark_reprojection(result.camera, camera, court, SIZE)
print(f"perturbed start: landmark reprojection {before:.1f} px, "
      f"cost {result.initial_cost:.2f}")
print(f"after refinement: reprojection {after:.3f} px, cost {result.final_cost:.2e} "
      f"({result.iterations} iterations)")
