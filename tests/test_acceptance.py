"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured statistics. Runs in well under ten minutes
on a laptop-class machine.
"""
import itertools
import time

import numpy as np
import pytest

from courtpose.calibrate import rasterize_court_lines, refine_camera_lines, solve_pnp_planar
from courtpose.camera import Camera
from courtpose.collision import detect_collisions
from courtpose.composer import resolve_interpenetration
from courtpose.court import make_court_model
from courtpose.mesh import BodyMesh, mesh_edges
from courtpose.metrics import chamfer, emd, icp, mpjpe, mpvpe, procrustes_align
from courtpose.meshnet import NetConfig, PartOps, init_params
from courtpose.meshnet import autograd as ag
from courtpose.meshnet.network import _block_diagonal, _sc, tl_graph
from courtpose.meshnet.spirals import build_spirals
from courtpose.meshnet.training import TrainConfig, eval_mesh_term, train_toy
from courtpose.model import (BoneTransforms, Frame, Pose2D, Pose3D, Skeleton,
                             forward_kinematics, lsp14_indices, rest_pose)
from courtpose.composer import penetration_loss
from courtpose.placement import place_player
from courtpose.posemaps import (JumpInfo, decode_heatmaps, decode_location_maps,
                                encode_heatmaps, encode_location_maps)
from courtpose.primitives import capsule, tube
from courtpose.skinning import (SkinningWeights, fit_pose_to_keypoints,
                                heat_diffusion_weights, lbs)
from courtpose.synth import (SceneConfig, court_landmark_reprojection,
                             run_pipeline, synth_scene)
from courtpose.toydata import toy_part_dataset
from courtpose.transforms import axis_angle_to_matrix, look_at_rotation
from helpers import face_table, random_rotation, sum_all

SIZE = (1280, 720)


def report(num, name, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def broadcast_camera(rng):
    eye = np.array([rng.uniform(-8, 8), rng.uniform(5, 15),
                    7.62 + rng.uniform(8, 20)])
    R = look_at_rotation(eye, np.array([rng.uniform(-6, 6), 1.0, 0.0]))
    return Camera(rng.uniform(800, 3000), SIZE[0] / 2, SIZE[1] / 2, R, -R @ eye)


def test_criterion_1_camera_recovery():
    court = make_court_model()
    rng = np.random.default_rng(100)
    errs, times = [], []
    from courtpose.synth import _pick_correspondences
    for _ in range(100):
        cam = broadcast_camera(rng)
        t0 = time.perf_counter()
        mask = rasterize_court_lines(cam, court, SIZE)
        corrs = _pick_correspondences(cam, court, SIZE)
        init, _ = solve_pnp_planar(corrs, SIZE)
        ref = refine_camera_lines(init, mask, court)
        times.append(time.perf_counter() - t0)
        assert ref.final_cost <= ref.initial_cost
        errs.append(court_landmark_reprojection(ref.camera, cam, court, SIZE))
    mean_err = float(np.mean(errs))
    ok = mean_err < 0.5 and max(times) < 1.0
    report(1, "camera recovery",
           ok, f"mean reproj {mean_err:.4f} px (max {max(errs):.4f}), "
               f"max per-scene time {max(times):.2f} s over 100 scenes")


def test_criterion_2_placement_round_trip():
    errs = []
    for seed in range(100):
        b = synth_scene(seed, SceneConfig())
        placed, _ = place_player(b.crop_camera, b.pose2d, b.pose_root, b.jump)
        j = int(np.argmin(b.pose_root.positions[:, 1]))
        errs.append(float(np.linalg.norm(placed.positions[j]
                                         - b.pose_world.positions[j])))
    gates = [JumpInfo.from_height(h).airborne for h in (0.05, 0.1, 0.15)]
    ok = max(errs) < 1e-6 and gates == [False, False, True]
    report(2, "placement round trip",
           ok, f"max lowest-joint error {max(errs):.2e} m over 100 scenes; "
               f"gating {{0.05,0.1,0.15}} -> {gates}")


def test_criterion_3_codec_bounds():
    rng = np.random.default_rng(3)
    worst2d, worst3d = 0.0, 0.0
    for _ in range(1000):
        pix = rng.uniform(0, 256, size=(35, 2))
        pos = rng.normal(scale=0.5, size=(35, 3))
        pos[0] = 0
        p2 = Pose2D(pix, np.ones(35, bool))
        p3 = Pose3D(pos)
        heat = encode_heatmaps(p2)
        loc = encode_location_maps(p3, heat)
        d2 = decode_heatmaps(heat)
        d3 = decode_location_maps(loc, heat)
        worst2d = max(worst2d, float(np.abs(d2.pixels - pix).max()))
        worst3d = max(worst3d, float(np.abs(d3.positions - pos).max()))

    ok = worst2d <= 1e-9 and worst3d <= 1e-9
    report(3, "codec bounds",
           ok, f"1000 poses: max 2D err {worst2d:.1e} px, max 3D err "
               f"{worst3d:.1e} m")


def _rel_err(fd, an):
    return abs(fd - an) / max(abs(fd), abs(an), 1e-10)


def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(4)
    h = 1e-5
    worst = {"spiral_conv": 0.0, "tl_forward": 0.0, "penetration_loss": 0.0}

    # spiral_conv: the network's gather + matmul gradient vs central differences
    mesh = capsule((0, 0, 0), (0, 0.3, 0), 0.06, part="arms", n_seg=8,
                   cap_rings=2, shaft_rings=1)
    gather = _block_diagonal(build_spirals(mesh, 6, 1).gather, 1)
    for _ in range(20):
        F = ag.Var(rng.normal(size=(mesh.num_vertices, 3)))
        W = ag.Var(rng.normal(size=(18, 4)))
        b = ag.Var(rng.normal(size=4))
        out = sum_all(_sc(F, gather, W, b))
        for v in (F, W, b):
            v.zero_grad()
        ag.backward(out)

        def f():
            return float(_sc(ag.Var(F.value), gather, W, b).value.sum())

        for var in (F, W):
            idx = tuple(rng.integers(0, s) for s in var.value.shape)
            old = var.value[idx]
            var.value[idx] = old + h
            fp = f()
            var.value[idx] = old - h
            fm = f()
            var.value[idx] = old
            worst["spiral_conv"] = max(worst["spiral_conv"],
                                       _rel_err((fp - fm) / (2 * h), var.grad[idx]))

    # tl_forward (inference path: the ground-truth encoder is not part of it)
    cfg = NetConfig(spiral_length=6, ds_factors=(2, 2, 1, 1))
    ops = PartOps.build(mesh, cfg)
    for _ in range(20):
        params = init_params(cfg, ops, 35, rng)
        pos = rng.normal(scale=0.3, size=(35, 3))
        pos[0] = 0
        _, v = tl_graph(pos, mesh.vertices, params, ops, cfg)
        loss = sum_all(v)
        for p in params.values():
            p.zero_grad()
        ag.backward(loss)
        name = rng.choice([k for k in params if not k.startswith("enc_gt.")])
        var = params[name]
        idx = tuple(rng.integers(0, s) for s in var.value.shape)
        old = var.value[idx]
        var.value[idx] = old + h
        fp = float(tl_graph(pos, mesh.vertices, params, ops, cfg)[1].value.sum())
        var.value[idx] = old - h
        fm = float(tl_graph(pos, mesh.vertices, params, ops, cfg)[1].value.sum())
        var.value[idx] = old
        worst["tl_forward"] = max(worst["tl_forward"],
                                  _rel_err((fp - fm) / (2 * h), var.grad[idx]))

    # penetration_loss
    for _ in range(20):
        Vs = mesh.vertices
        V = Vs + rng.normal(scale=0.004, size=Vs.shape)
        _, grad = penetration_loss(V, Vs, mesh)
        i = rng.integers(0, len(V))
        k = rng.integers(0, 3)
        Vp, Vm = V.copy(), V.copy()
        Vp[i, k] += h
        Vm[i, k] -= h
        lp, _ = penetration_loss(Vp, Vs, mesh)
        lm, _ = penetration_loss(Vm, Vs, mesh)
        worst["penetration_loss"] = max(worst["penetration_loss"],
                                        _rel_err((lp - lm) / (2 * h), grad[i, k]))

    ok = all(v < 1e-4 for v in worst.values())
    report(4, "gradient checks",
           ok, "worst relative errors over 20 instances each: "
               + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_5_toy_tl_overfit():
    dataset, ops, cfg = toy_part_dataset(seed=0, count=50)
    tc = TrainConfig(lr=3e-3, epochs=200, max_steps=500, seed=0)
    params = init_params(cfg, ops, 35, np.random.default_rng(0))
    before = eval_mesh_term(dataset, params, ops, cfg)
    params, curve = train_toy(dataset, params, ops, cfg, tc)
    after = eval_mesh_term(dataset, params, ops, cfg)
    ratio = after / before

    # determinism over a 40-step prefix
    pa = init_params(cfg, ops, 35, np.random.default_rng(0))
    pb = init_params(cfg, ops, 35, np.random.default_rng(0))
    _, ca = train_toy(dataset, pa, ops, cfg, TrainConfig(lr=3e-3, max_steps=40, seed=0))
    _, cb = train_toy(dataset, pb, ops, cfg, TrainConfig(lr=3e-3, max_steps=40, seed=0))
    deterministic = [c["total"] for c in ca] == [c["total"] for c in cb]

    ok = len(curve) == 500 and ratio <= 0.10 and deterministic
    report(5, "toy TL-network overfit",
           ok, f"mesh term {before:.3f} -> {after:.3f} "
               f"(ratio {ratio:.3f}) in {len(curve)} steps; "
               f"deterministic={deterministic}")


def test_criterion_6_composer():
    rng = np.random.default_rng(6)
    resolved, edge_changes, pinned_all = [], [], True
    for k in range(10):
        delta = rng.uniform(0.002, 0.008)
        garment = tube((0, 0.05, 0), (0, 0.25, 0), 0.05, n_seg=16, n_rings=6,
                       part="shirt")
        body = capsule((0, 0, 0), (0, 0.3, 0), 0.05 + delta, n_seg=12,
                       cap_rings=3, shaft_rings=6, part="arms")
        scene = BodyMesh((body, garment))
        rep0 = detect_collisions(body, face_table(garment))
        out, rep = resolve_interpenetration(scene)
        resolved.append(rep["residual_collisions"] == 0
                        and len(rep["iterations"]) <= 10)
        for it in rep["iterations"]:
            pinned_all &= all(it["pinned_intact"].values())
        flagged = set(rep0.vertex_indices.tolist())
        e = mesh_edges(body.faces)
        outside = [i for i, (a, b) in enumerate(e)
                   if a not in flagged and b not in flagged]
        L0 = np.linalg.norm(body.vertices[e[:, 0]] - body.vertices[e[:, 1]], axis=1)
        V1 = out.part("arms").vertices
        L1 = np.linalg.norm(V1[e[:, 0]] - V1[e[:, 1]], axis=1)
        edge_changes.append(float(np.abs(L1[outside] / L0[outside] - 1).mean()))
    ok = all(resolved) and max(edge_changes) < 0.01 and pinned_all
    report(6, "composer",
           ok, f"10 sleeve scenes resolved={sum(resolved)}/10, "
               f"max mean edge change outside region "
               f"{max(edge_changes) * 100:.3f}%, pinned intact={pinned_all}")


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0

    A = rng.normal(size=(180, 3))
    B = rng.normal(size=(160, 3))
    d2 = np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)
    cd_oracle = 1000.0 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())
    worst = max(worst, abs(chamfer(A, B) - cd_oracle))

    for n in (5, 7, 8):
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 3))
        cost = np.linalg.norm(X[:, None] - Y[None, :], axis=2)
        best = min(np.mean([cost[i, p[i]] for i in range(n)])
                   for p in itertools.permutations(range(n)))
        worst = max(worst, abs(emd(X, Y) - best))

    a = rng.normal(size=(35, 3))
    b = rng.normal(size=(35, 3))
    a[0] = b[0] = 0
    sub = lsp14_indices(Skeleton.canonical())
    oracle = np.mean([np.linalg.norm(a[j] - b[j]) for j in sub]) * 1000
    worst = max(worst, abs(mpjpe(Pose3D(a), Pose3D(b), sub) - oracle))
    va = rng.normal(size=(90, 3))
    vb = rng.normal(size=(90, 3))
    worst = max(worst, abs(mpvpe(va, vb)
                           - np.mean(np.linalg.norm(va - vb, axis=1)) * 1000))

    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 3))
    fit = procrustes_align(X, Y, with_scale=False)
    for _ in range(100):
        R, t = random_rotation(rng), rng.normal(size=3)
        assert fit.residual <= float(np.sum((X @ R.T + t - Y) ** 2)) + 1e-9

    cloud = rng.normal(size=(150, 3)) * np.array([1.0, 0.4, 0.2])
    cloud[:, 0] += 0.3 * cloud[:, 1] ** 2
    axis = np.array([0.2, 1.0, -0.3])
    Ricp = axis_angle_to_matrix(np.deg2rad(8.0) * axis / np.linalg.norm(axis))
    ticp = np.array([0.3, -0.05, 0.1])
    fit2 = icp(cloud, cloud @ Ricp.T + ticp)
    icp_err = max(float(np.abs(fit2.R - Ricp).max()),
                  float(np.abs(fit2.t - ticp).max()))

    ok = worst < 1e-9 and icp_err < 1e-3
    report(7, "metric oracles",
           ok, f"worst oracle discrepancy {worst:.2e}; "
               f"ICP recovery error {icp_err:.2e}")


def test_criterion_8_skinning():
    # LBS identity / rigid equivariance at 1e-12
    sk = Skeleton(["j0", "j1", "j2"], [-1, 0, 1],
                  [[0, 0, 0], [0, 0.3, 0], [0, 0.3, 0]])
    body = BodyMesh((capsule((0, 0, 0), (0, 0.6, 0), 0.07, part="arms",
                             n_seg=12, shaft_rings=6),))
    rest = forward_kinematics(sk, BoneTransforms.identity(3), frame=Frame.WORLD)
    w = heat_diffusion_weights(body, sk, rest, voxel_res=20)
    rows_ok = float(np.abs(w.W.sum(axis=1) - 1.0).max())

    ident = lbs(body, w, BoneTransforms.identity(3), sk)
    id_err = float(np.abs(ident.merged()[0] - body.merged()[0]).max())

    rng = np.random.default_rng(8)
    rots = np.stack([random_rotation(rng, 0.3) for _ in range(3)])
    base = lbs(body, w, BoneTransforms(rots, np.zeros((3, 3))), sk).merged()[0]
    g = random_rotation(rng)
    gt = rng.normal(size=3)
    rots2 = rots.copy()
    rots2[0] = g @ rots[0]
    tr = np.zeros((3, 3))
    tr[0] = gt
    moved = lbs(body, w, BoneTransforms(rots2, tr), sk).merged()[0]
    equiv_err = float(np.abs(moved - (base @ g.T + gt)).max())

    sk6 = Skeleton([f"j{i}" for i in range(6)], [-1, 0, 1, 2, 3, 4],
                   [[0, 0, 0]] + [[0, 0.25, 0]] * 5)
    true_rots = np.stack([random_rotation(rng, 0.25) for _ in range(6)])
    target = forward_kinematics(sk6, BoneTransforms(true_rots, np.zeros((6, 3))))
    pert = np.stack([
        axis_angle_to_matrix(rng.normal(scale=np.deg2rad(5) / np.sqrt(3), size=3)) @ R
        for R in true_rots])
    _, info = fit_pose_to_keypoints(sk6, target,
                                    init=BoneTransforms(pert, np.zeros((6, 3))))
    fit_err = float(info["joint_residuals"].max())

    ok = (id_err <= 1e-12 and equiv_err <= 1e-12 and rows_ok < 1e-6
          and fit_err < 1e-3)
    report(8, "skinning",
           ok, f"LBS identity {id_err:.1e}, equivariance {equiv_err:.1e}, "
               f"row-sum defect {rows_ok:.1e}, fit residual {fit_err * 1000:.3f} mm")


def test_criterion_9_end_to_end():
    failures = []
    joint_ok = True
    for seed in range(20):
        bundle = synth_scene(1000 + seed)
        try:
            rep = run_pipeline(bundle)
        except Exception as e:  # noqa: BLE001 - reported as a criterion failure
            failures.append((seed, str(e)))
            continue
        st = rep["stages"]
        joint_ok &= st["calibrate"]["final_cost"] <= st["calibrate"]["initial_cost"]
        joint_ok &= st["calibrate"]["landmark_reproj_px"] < 0.5
        joint_ok &= st["codec"]["max_2d_err_px"] <= 1e-9
        joint_ok &= st["codec"]["max_3d_err_m"] <= 1e-9
        joint_ok &= st["place"]["lowest_joint_err_m"] < 1e-3
        # the fit from its swing-IK start converges on every scene (mean
        # joint residual at most 0.23 mm, MPVPE at most 5.2 mm, measured)
        joint_ok &= st["skin"]["fit_stop"] == "converged"
        joint_ok &= st["skin"]["fit_joint_residual_m"] < 1e-3
        joint_ok &= st["eval"]["mpvpe_mm"] < 10.0
        joint_ok &= set(st) == {"calibrate", "codec", "place", "skin",
                                "compose", "eval"}
    ok = not failures and joint_ok
    report(9, "end-to-end pipeline",
           ok, f"20 scenes, {len(failures)} stage errors; "
               f"per-stage thresholds jointly hold: {joint_ok}")
