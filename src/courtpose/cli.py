"""Command-line front door.

Subcommands: synth, calibrate, place, codec, skin, compose, train-toy,
infer-part, eval, pipeline. synth and pipeline take the frame size as
--image-size WxH, as calibrate does.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import blas
from .calibrate import load_pgm, solve_pnp_planar, refine_camera_lines
from .camera import camera_from_json, camera_to_json
from .composer import resolve_interpenetration
from .court import make_court_model
from .errors import NumericalError, StageError, ValidationError
from .mesh import BodyMesh, PART_NAMES, load_obj, save_obj
from .metrics import chamfer, emd, icp, mpvpe
from .model import (Skeleton, json_numbers, load_json_record, pose2d_from_json,
                    pose2d_to_json, pose3d_from_json, pose3d_to_json,
                    skeleton_from_json, transforms_from_json)
from .placement import place_player
from .posemaps import (codec_errors, decode_heatmaps, decode_location_maps, encode_heatmaps,
                       encode_location_maps, jump_from_json, load_heatmaps,
                       load_location_maps, save_heatmaps, save_location_maps)
from .skinning import lbs, weights_from_json
from .synth import (SceneConfig, canonical_body, load_scene, run_pipeline, save_scene,
                    synth_scene)


def _correspondences_from_json(points):
    """[{pixel, court}, ...] -> (pixel xy, court point) pairs."""
    pixels = json_numbers([p["pixel"] for p in points], "correspondence pixel")
    court = json_numbers([p["court"] for p in points], "correspondence court point")
    pixels, court = pixels.reshape(len(points), 2), court.reshape(len(points), -1)
    return list(zip(pixels, court))


def _write_json(path, payload):
    text = json.dumps(payload, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _image_size(text):
    try:
        size = tuple(map(int, text.lower().split("x")))
    except ValueError:
        size = ()
    if len(size) != 2 or min(size) < 1:
        raise ValidationError(f"bad --image-size {text!r}; expected WxH, "
                              "two positive integers")
    return size


def _scene_config(args):
    """The SceneConfig of synth's and pipeline's optional --image-size."""
    if args.image_size is None:
        return SceneConfig()
    return SceneConfig(_image_size(args.image_size))


def cmd_synth(args):
    bundle = synth_scene(args.seed, _scene_config(args))
    save_scene(bundle, args.out)
    print(f"scene {args.seed} written to {args.out}")
    return 0


def cmd_calibrate(args):
    size = _image_size(args.image_size)
    corrs = load_json_record(args.points, _correspondences_from_json)
    cam, rms = solve_pnp_planar(corrs, size, focal=args.focal)
    result = {"pnp_rms_px": rms}
    if args.mask:
        mask = load_pgm(args.mask)
        if mask.size != size:
            raise ValidationError(f"mask {args.mask} is {mask.size[0]}x{mask.size[1]}, "
                                  f"but --image-size is {size[0]}x{size[1]}")
        ref = refine_camera_lines(cam, mask, make_court_model())
        cam = ref.camera
        result.update(initial_cost=ref.initial_cost, final_cost=ref.final_cost,
                      iterations=ref.iterations, stop=ref.stop)
    result["camera"] = camera_to_json(cam)
    _write_json(args.out, result)
    return 0


def cmd_place(args):
    camera = load_json_record(args.camera, camera_from_json)
    pose2d = load_json_record(args.pose2d, pose2d_from_json)
    pose3d = load_json_record(args.pose3d, pose3d_from_json)
    jump = load_json_record(args.jump, jump_from_json)
    placed, offset = place_player(camera, pose2d, pose3d, jump)
    _write_json(args.out, {"pose_world": pose3d_to_json(placed),
                           "offset": offset.tolist()})
    return 0


def cmd_codec(args):
    pose2d = load_json_record(args.pose2d, pose2d_from_json)
    pose3d = load_json_record(args.pose3d, pose3d_from_json)
    heat = encode_heatmaps(pose2d)
    loc = encode_location_maps(pose3d, heat)
    os.makedirs(args.out_dir, exist_ok=True)
    save_heatmaps(os.path.join(args.out_dir, "heatmaps.bin"), heat)
    save_location_maps(os.path.join(args.out_dir, "location_maps.bin"), loc)
    heat2 = load_heatmaps(os.path.join(args.out_dir, "heatmaps.bin"))
    loc2 = load_location_maps(os.path.join(args.out_dir, "location_maps.bin"))
    p2 = decode_heatmaps(heat2)
    p3 = decode_location_maps(loc2, heat2)
    report = {
        **codec_errors(pose2d, pose3d, p2, p3),
        "pose2d_decoded": pose2d_to_json(p2),
        "pose3d_decoded": pose3d_to_json(p3),
    }
    _write_json(os.path.join(args.out_dir, "codec_report.json"), report)
    print(f"codec round trip written to {args.out_dir}")
    return 0


def cmd_skin(args):
    rest = load_obj(args.rest)
    weights = load_json_record(args.weights, weights_from_json)
    transforms = load_json_record(args.pose, transforms_from_json)
    skeleton = (load_json_record(args.skeleton, skeleton_from_json) if args.skeleton
                else Skeleton.canonical())
    posed = lbs(rest, weights, transforms, skeleton)
    save_obj(args.out, posed)
    print(f"posed mesh written to {args.out}")
    return 0


def cmd_compose(args):
    parts = []
    for name in PART_NAMES:
        path = os.path.join(args.parts, f"{name}.obj")
        if os.path.exists(path):
            parts.extend(load_obj(path, default_part=name).parts)
    if not parts:
        raise ValidationError(f"no part OBJ files found under {args.parts}")
    body, rep = resolve_interpenetration(BodyMesh(tuple(parts)))
    save_obj(args.out, body)
    _write_json(args.report, {
        "residual_collisions": rep["residual_collisions"],
        "iterations": [{"collisions": it["collisions"],
                        "losses": it["losses"]} for it in rep["iterations"]],
    })
    return 0


def cmd_train_toy(args):
    from .meshnet import init_params, save_params
    from .meshnet.training import TrainConfig, eval_mesh_term, train_toy
    from .toydata import toy_part_dataset

    tc = TrainConfig(epochs=args.epochs, max_steps=args.steps, seed=args.seed)
    dataset, ops, config = toy_part_dataset(seed=args.seed, count=args.count)
    rng = np.random.default_rng(args.seed)
    params = init_params(config, ops, dataset[0][0].num_joints, rng)
    before = eval_mesh_term(dataset, params, ops, config)
    params, curve = train_toy(dataset, params, ops, config, tc)
    after = eval_mesh_term(dataset, params, ops, config)
    save_params(args.out, params)
    _write_json(None, {"steps": len(curve), "mesh_term_initial": before,
                       "mesh_term_final": after,
                       "final_total": curve[-1]["total"]})
    return 0


def cmd_infer_part(args):
    from .meshnet import NetConfig, PartOps, load_params, tl_forward
    from .toydata import TOY_PART

    _, rest_body, _ = canonical_body(SceneConfig.voxel_res)
    config = NetConfig()
    ops = PartOps.build(rest_body.part(TOY_PART), config)
    params = load_params(args.params)
    pose = load_json_record(args.pose, pose3d_from_json)
    # the network's part from a body OBJ in any part order, or an untagged OBJ
    parts = load_obj(args.rest, default_part=TOY_PART).parts
    rest = next((p for p in parts if p.part == TOY_PART), None)
    if rest is None:
        raise ValidationError(f"OBJ file {args.rest} has no {TOY_PART!r} part, only "
                              f"{[p.part for p in parts]}")
    out = tl_forward(pose, rest, params, ops, config)
    save_obj(args.out, rest.with_vertices(out["V_pred"]))
    print(f"inferred part written to {args.out}")
    return 0


def cmd_eval(args):
    pv, _ = load_obj(args.pred).merged()
    gv, _ = load_obj(args.gt).merged()
    if args.icp:
        fit = icp(pv, gv)
        pv = pv @ fit.R.T + fit.t
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not wanted:
        raise ValidationError(f"--metrics {args.metrics!r} names no metric "
                              "(expected cd, emd, mpvpe)")
    out = {}
    for m in wanted:
        if m == "cd":
            out["cd"] = chamfer(pv, gv)
        elif m == "emd":
            out["emd"] = emd(pv, gv)
        elif m == "mpvpe":
            out["mpvpe_mm"] = mpvpe(pv, gv)
            out["mpvpe_pa_mm"] = mpvpe(pv, gv, procrustes=True)
        else:
            raise ValidationError(f"unknown metric {m!r} (expected cd, emd, mpvpe)")
    _write_json(args.out, out)
    return 0


def _pipeline_one(seed_and_cfg):
    # the --jobs workers share the cores, so a BLAS call split over threads
    # would wait for the other workers (see ``blas``); a forked worker
    # inherits the parent's pin and sets nothing, a spawned one pins here
    seed, config = seed_and_cfg
    with blas.single_thread():
        return run_pipeline(synth_scene(seed, config))


def cmd_pipeline(args):
    # --seed, --scenes and --jobs set no attribute unless given (SUPPRESS)
    given = {k: v for k, v in vars(args).items() if k in ("seed", "scenes", "jobs")}
    if args.scene_dir and given:
        raise ValidationError(f"{', '.join('--' + k for k in given)} cannot go with "
                              "--scene-dir, which runs the one scene saved there")
    seed, scenes, jobs = given.get("seed", 0), given.get("scenes", 1), given.get("jobs", 1)
    for flag, val in (("--scenes", scenes), ("--jobs", jobs)):
        if val < 1:
            raise ValidationError(f"{flag} must be at least 1, got {val}")
    scene_config = _scene_config(args)
    if args.scene_dir:
        reports = [run_pipeline(load_scene(args.scene_dir))]
    elif jobs > 1:
        # stages stay sequential; only independent scenes run in parallel
        import multiprocessing

        # load and build once what every scene needs, before the workers
        # fork, so that they inherit it instead of each doing it at once
        import scipy.optimize  # noqa: F401 - compose and eval use them
        import scipy.spatial  # noqa: F401
        canonical_body(SceneConfig.voxel_res)
        # the workers fork from one BLAS thread, so that they start none;
        # imap raises the first failure in seed order, not the first to arrive
        with blas.single_thread(), multiprocessing.Pool(jobs) as pool:
            reports = list(pool.imap(_pipeline_one, [(seed + k, scene_config)
                                                     for k in range(scenes)]))
    else:
        reports = [run_pipeline(synth_scene(seed + k, scene_config)) for k in range(scenes)]
    _write_json(args.out, reports if len(reports) > 1 else reports[0])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="courtpose",
                                 description="Court-aware player reconstruction toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene bundle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--image-size", help="frame size WxH (default 1280x720)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("calibrate", help="camera from correspondences (+ optional mask)")
    p.add_argument("--image-size", required=True)
    p.add_argument("--points", required=True, help="JSON [{pixel, court}, ...]")
    p.add_argument("--mask", help="court line mask (PGM P5)")
    p.add_argument("--focal", type=float, help="pin the focal length (px)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("place", help="solve global player position")
    p.add_argument("--camera", required=True)
    p.add_argument("--pose2d", required=True)
    p.add_argument("--pose3d", required=True)
    p.add_argument("--jump", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_place)

    p = sub.add_parser("codec", help="round-trip JSON poses through the map codecs")
    p.add_argument("--pose2d", required=True)
    p.add_argument("--pose3d", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_codec)

    p = sub.add_parser("skin", help="pose a rest mesh with LBS")
    p.add_argument("--rest", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--pose", required=True, help="bone transforms JSON")
    p.add_argument("--skeleton")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_skin)

    p = sub.add_parser("compose", help="combine parts, resolving interpenetration")
    p.add_argument("--parts", required=True, help="directory of <part>.obj files")
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("train-toy", help="overfit the toy mesh network")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("infer-part", help="run the mesh network on one part")
    p.add_argument("--params", required=True)
    p.add_argument("--pose", required=True)
    p.add_argument("--rest", required=True, help="OBJ with the head: a body or one part")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer_part)

    p = sub.add_parser("eval", help="mesh metrics between two OBJ files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--metrics", default="cd,emd,mpvpe")
    p.add_argument("--icp", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("pipeline", help="full synthetic reconstruction run")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="first seed (default 0)")
    p.add_argument("--scenes", type=int, default=argparse.SUPPRESS, help="scene count (default 1)")
    p.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                   help="process this many scenes in parallel (default 1)")
    # a saved scene carries its own frame size
    source = p.add_mutually_exclusive_group()
    source.add_argument("--image-size", help="frame size WxH (default 1280x720)")
    source.add_argument("--scene-dir", help="run on a saved scene instead")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_pipeline)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e.cause, ValidationError) else 3
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
