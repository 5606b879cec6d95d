"""The evaluation metric suite next to its brute-force oracles.

Procrustes alignment, MPJPE/MPVPE (mm), Chamfer distance (x1000, squared
convention), exact EMD on farthest-point subsamples, and ICP alignment.
"""
import itertools

import numpy as np

from courtpose import (chamfer, emd, icp, mpjpe, mpvpe, procrustes_align,
                       Pose3D, Skeleton, lsp14_indices)
from courtpose.transforms import axis_angle_to_matrix

rng = np.random.default_rng(0)

X = rng.normal(size=(14, 3))
R, t, s = axis_angle_to_matrix(rng.normal(size=3)), rng.normal(size=3), 1.3
fit = procrustes_align(X, s * X @ R.T + t, with_scale=True)
print(f"procrustes recovers a constructed similarity: scale err "
      f"{abs(fit.scale - s):.1e}, rotation err {np.abs(fit.R - R).max():.1e}")

sk = Skeleton.canonical()
subset = lsp14_indices(sk)
pose = rng.normal(size=(35, 3))
pose[0] = 0
gt = Pose3D(pose)
shifted = Pose3D(pose + [0.01, 0, 0], frame="world")
print(f"MPJPE of a 10 mm shift: {mpjpe(shifted, gt, subset):.3f} mm; "
      f"with Procrustes: {mpjpe(shifted, gt, subset, procrustes=True):.1e} mm")

A = rng.normal(size=(150, 3))
B = rng.normal(size=(140, 3))
d2 = np.sum((A[:, None] - B[None]) ** 2, axis=2)
oracle = 1000 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())
print(f"chamfer vs quadratic-scan oracle: |diff| = {abs(chamfer(A, B) - oracle):.1e}")

n = 7
P = rng.normal(size=(n, 3))
Q = rng.normal(size=(n, 3))
cost = np.linalg.norm(P[:, None] - Q[None], axis=2)
best = min(np.mean([cost[i, p[i]] for i in range(n)])
           for p in itertools.permutations(range(n)))
print(f"EMD vs all-permutation oracle at n={n}: |diff| = {abs(emd(P, Q) - best):.1e}")

cloud = rng.normal(size=(150, 3)) * [1.0, 0.4, 0.2]
cloud[:, 0] += 0.3 * cloud[:, 1] ** 2
axis = np.array([0.2, 1.0, -0.3])
Ricp = axis_angle_to_matrix(np.deg2rad(8) * axis / np.linalg.norm(axis))
ticp = np.array([0.3, -0.05, 0.1])
fit = icp(cloud, cloud @ Ricp.T + ticp)
print(f"ICP recovers an 8-degree + 0.3 m motion within "
      f"{max(np.abs(fit.R - Ricp).max(), np.abs(fit.t - ticp).max()):.1e}; "
      f"residuals fell {fit.residuals[0]:.3f} -> {fit.residuals[-1]:.1e} "
      f"over {fit.iterations} iterations")
print(f"MPVPE of identical meshes: {mpvpe(cloud, cloud):.1f} mm")
