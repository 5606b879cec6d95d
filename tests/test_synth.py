import dataclasses
import json
import pickle

import numpy as np
import pytest

from courtpose import synth
from courtpose.camera import Camera, project
from courtpose.errors import StageError, ValidationError
from courtpose.model import Pose2D
from courtpose.placement import place_player
from courtpose.posemaps import (decode_heatmaps, decode_location_maps,
                                encode_heatmaps, encode_location_maps)
from courtpose.synth import (Observation, SceneBundle, SceneConfig, evaluate, load_scene,
                             observe, reconstruct, run_pipeline, save_scene, synth_scene)
from helpers import PIPELINE_SEEDS


@pytest.fixture(scope="module")
def bundle():
    return synth_scene(7)


def test_same_seed_bit_identical(bundle):
    again = synth_scene(7)
    assert np.array_equal(bundle.pose_world.positions, again.pose_world.positions)
    assert np.array_equal(bundle.pose2d.pixels, again.pose2d.pixels)
    assert np.array_equal(bundle.line_mask.pixels, again.line_mask.pixels)
    assert np.array_equal(bundle.posed_body.merged()[0], again.posed_body.merged()[0])
    assert bundle.camera.f == again.camera.f
    assert bundle.jump.height == again.jump.height


def test_different_seeds_differ(bundle):
    other = synth_scene(8)
    assert not np.array_equal(bundle.pose_world.positions,
                              other.pose_world.positions)


def test_projection_invariant_exact(bundle):
    reproj = project(bundle.crop_camera, bundle.pose_world.positions)
    assert np.array_equal(reproj, bundle.pose2d.pixels)


def test_zero_jump_range_grounded(monkeypatch):
    monkeypatch.setattr(synth, "JUMP_RANGE", (0.0, 0.0))
    b = synth_scene(3)
    assert b.jump.height == 0.0
    assert not b.jump.airborne
    lowest = b.pose_world.positions[:, 1].min()
    assert abs(lowest) < 1e-12


def test_jump_gating_consistent(bundle):
    assert bundle.jump.airborne == (bundle.jump.height > 0.1)


def test_bundle_codec_round_trip_bound(bundle):
    heat = encode_heatmaps(bundle.pose2d)
    loc = encode_location_maps(bundle.pose_root, heat)
    p2 = decode_heatmaps(heat)
    p3 = decode_location_maps(loc, heat)
    assert np.abs(p2.pixels - bundle.pose2d.pixels).max() <= 1e-9
    assert np.abs(p3.positions - bundle.pose_root.positions).max() <= 1e-9


def test_posed_body_parts_match_rest_topology(bundle):
    # the scene keeps no rest body: the posed one has the player model's
    _, rest, _ = synth.canonical_body(bundle.config.voxel_res)
    assert len(rest.parts) == len(bundle.posed_body.parts)
    for rest_p, posed_p in zip(rest.parts, bundle.posed_body.parts):
        assert rest_p.part == posed_p.part
        assert np.array_equal(rest_p.faces, posed_p.faces)


def test_every_pipeline_bundle_passes_validate():
    # synth_scene no longer validates what it builds; load_scene does
    for seed in PIPELINE_SEEDS:
        synth_scene(seed).validate()


def test_correspondences_lie_in_the_frame():
    # a court detector reports only what the frame shows
    for seed in PIPELINE_SEEDS:
        b = synth_scene(seed)
        W, H = b.config.image_size
        pix = np.array([px for px, _ in b.correspondences])
        world = np.array([w for _, w in b.correspondences])
        assert np.all((pix >= 0) & (pix < [W, H])), seed
        assert np.array_equal(pix, project(b.camera, world)), seed


def test_every_scene_shows_four_landmarks():
    # planar PnP needs four; over the pipeline scenes, 3000-3039 and
    # 30000-30149 the frame shows at least six
    seeds = [*PIPELINE_SEEDS, *range(3000, 3040), *range(30000, 30150)]
    few = {}
    for seed in seeds:
        b = synth_scene(seed)
        pix = np.array([px for px, _ in b.correspondences])
        shown = int(np.sum(np.all((pix >= 0) & (pix < b.config.image_size), axis=1)))
        if shown < 4:
            few[seed] = shown
    assert few == {}


def test_half_size_frame_gives_the_same_reconstruction():
    # halving the frame, the focal length and the principal point, with the
    # same draws, halves every pixel: the chain must not see the difference
    for seed in range(5000, 5008):
        full = synth_scene(seed)
        cam = full.camera
        half = dataclasses.replace(full, config=SceneConfig((640, 360)), camera=Camera(
            cam.f / 2, cam.px / 2, cam.py / 2, cam.R, cam.T))
        assert len(half.correspondences) == len(full.correspondences), seed
        got, want = (run_pipeline(b)["stages"] for b in (half, full))
        assert got["calibrate"]["refine_stop"] == "done", seed
        assert got["codec"]["pose2d"] == want["codec"]["pose2d"], seed
        for stage, field in (("place", "lowest_joint_err_m"), ("eval", "mpvpe_mm"),
                             ("compose", "residual_collisions")):
            assert got[stage][field] == want[stage][field], (seed, field)


def test_scene_save_load_round_trip(tmp_path):
    # the views derive from exact JSON floats, bit for bit
    for seed in range(5000, 5008):
        bundle = synth_scene(seed)
        save_scene(bundle, tmp_path / str(seed))
        back = load_scene(tmp_path / str(seed))
        assert back.seed == bundle.seed
        assert back.camera.f == bundle.camera.f
        assert (back.crop_origin, back.crop_scale) == (bundle.crop_origin,
                                                       bundle.crop_scale), seed
        assert np.array_equal(back.line_mask.pixels, bundle.line_mask.pixels), seed
        assert back.correspondences == bundle.correspondences, seed
        for view in ("pose_root", "pose_world"):
            assert np.array_equal(getattr(back, view).positions,
                                  getattr(bundle, view).positions), (seed, view)
        assert np.array_equal(back.pose2d.pixels, bundle.pose2d.pixels), seed
        assert np.array_equal(back.pose2d.visibility, bundle.pose2d.visibility), seed
        assert np.array_equal(back.posed_body.merged()[0], bundle.posed_body.merged()[0]), seed


def test_saved_scene_runs_as_the_synthesized_one(tmp_path, bundle):
    save_scene(bundle, tmp_path / "scene")
    reports = [run_pipeline(load_scene(tmp_path / "scene")), run_pipeline(bundle)]
    for r in reports:
        for fields in r["stages"].values():
            del fields["seconds"]
    assert json.dumps(reports[0]) == json.dumps(reports[1])


def test_save_scene_writes_the_truth_and_no_player_model(tmp_path, bundle):
    save_scene(bundle, tmp_path / "scene")
    assert sorted(p.name for p in (tmp_path / "scene").iterdir()) == ["scene.json"]
    scene = json.loads((tmp_path / "scene" / "scene.json").read_text())
    assert list(scene) == ["seed", "image_size", "camera", "transforms", "offset", "jump"]


def test_scene_bundle_holds_only_its_draws():
    assert [f.name for f in dataclasses.fields(SceneBundle)] == [
        "seed", "config", "camera", "transforms", "offset", "jump"]


def test_load_scene_ignores_the_rest_obj_of_an_older_scene(tmp_path, bundle):
    scene = tmp_path / "scene"
    save_scene(bundle, scene)
    before = pickle.dumps(load_scene(scene))
    for name in ("rest.obj", "posed.obj"):
        (scene / name).write_text("v not a number\n")
    assert pickle.dumps(load_scene(scene)) == before


def test_load_scene_ignores_the_mask_crop_and_correspondences_of_an_older_scene(
        tmp_path, bundle):
    # they are views of the camera and the pose: a stale copy is not read
    scene = tmp_path / "scene"
    save_scene(bundle, scene)
    want = run_pipeline(load_scene(scene))
    (scene / "mask.pgm").write_bytes(b"P5\n2 2\n255\nnot a mask")
    record = json.loads((scene / "scene.json").read_text())
    record.update(crop_origin=[0.0, "1"], crop_scale=float("nan"),
                  correspondences=[[[1.0, 2.0], [False, 0.0, 0.0]]])
    (scene / "scene.json").write_text(json.dumps(record))
    got = run_pipeline(load_scene(scene))
    for r in (got, want):
        for fields in r["stages"].values():
            del fields["seconds"]
    assert json.dumps(got) == json.dumps(want)


def test_run_pipeline_stages_and_thresholds(bundle):
    report = run_pipeline(bundle)
    stages = report["stages"]
    assert list(stages) == ["calibrate", "codec", "place", "skin", "compose", "eval"]
    assert stages["calibrate"]["final_cost"] <= stages["calibrate"]["initial_cost"]
    assert stages["calibrate"]["landmark_reproj_px"] < 0.5
    assert stages["codec"]["max_2d_err_px"] <= 1e-9
    assert stages["codec"]["max_3d_err_m"] <= 1e-9
    assert stages["place"]["lowest_joint_err_m"] < 1e-3
    assert stages["eval"]["mpvpe_mm"] < 100.0
    assert stages["skin"]["fit_stop"] == "converged"
    assert stages["skin"]["fit_joint_residual_m"] < 1e-3
    assert 0.0 <= stages["eval"]["rot_err_deg_mean"] < 180.0
    stops = {"converged", "plateau", "done", "stalled", "max_iters"}
    for stage, loop in (("calibrate", "refine"), ("skin", "fit")):
        assert type(stages[stage][f"{loop}_iterations"]) is int
        assert stages[stage][f"{loop}_iterations"] >= 1
        assert stages[stage][f"{loop}_stop"] in stops


def test_place_takes_the_codec_pose(bundle, monkeypatch):
    from courtpose import synth
    decoded, placed_from = [], []

    def decode(loc, heat):
        decoded.append(decode_location_maps(loc, heat))
        return decoded[-1]

    def place(camera, pose2d, pose3d, jump):
        placed_from.append(pose3d)
        return place_player(camera, pose2d, pose3d, jump)

    monkeypatch.setattr(synth, "decode_location_maps", decode)
    monkeypatch.setattr(synth, "place_player", place)
    run_pipeline(bundle)
    assert len(decoded) == len(placed_from) == 1
    assert placed_from[0] is decoded[0]


def test_pipeline_stage_error_is_tagged(bundle, monkeypatch):
    import courtpose.synth as S

    def boom(*a, **k):
        raise ValueError("forced failure")

    monkeypatch.setattr(S, "solve_pnp_planar", boom)
    with pytest.raises(StageError) as exc:
        run_pipeline(bundle)
    assert exc.value.stage == "calibrate"


def test_stage_error_pickles_with_its_stage_and_cause():
    # a --jobs worker hands its failure to the parent as a pickle
    back = pickle.loads(pickle.dumps(StageError("calibrate", ValidationError("empty mask"))))
    assert back.stage == "calibrate"
    assert type(back.cause) is ValidationError
    assert str(back) == "[calibrate] empty mask"


def test_observation_holds_only_the_six_inputs():
    assert [f.name for f in dataclasses.fields(Observation)] == [
        "image_size", "line_mask", "correspondences", "crop_origin", "crop_scale", "maps"]


def test_place_reads_the_decoded_pose(bundle, monkeypatch):
    obs = observe(bundle)
    offset = reconstruct(obs).offset

    def shifted(heat):
        pose = decode_heatmaps(heat)
        return Pose2D(pose.pixels + [1.0, 0.0], pose.visibility)

    monkeypatch.setattr(synth, "decode_heatmaps", shifted)
    recon = reconstruct(obs)
    assert np.array_equal(recon.stages["place"]["offset"], recon.offset)
    assert np.abs(recon.offset - offset).max() > 1e-3


def test_reconstruct_reads_no_bundle(bundle, monkeypatch):
    obs = observe(bundle)

    def no_truth(self, name):
        raise AssertionError(f"reconstruct read SceneBundle.{name}")

    monkeypatch.setattr(SceneBundle, "__getattribute__", no_truth)
    recon = reconstruct(obs)
    monkeypatch.undo()
    assert list(recon.stages) == ["calibrate", "codec", "place", "skin", "compose"]
    report = evaluate(recon, bundle)
    want = run_pipeline(bundle)
    for r in (report, want):
        for fields in r["stages"].values():
            del fields["seconds"]
    assert json.dumps(report) == json.dumps(want)


@pytest.mark.parametrize("fn, stage", [("court_landmark_reprojection", "calibrate"),
                                       ("codec_errors", "codec"), ("mpvpe", "eval")])
def test_evaluate_error_keeps_its_stage_tag(bundle, monkeypatch, fn, stage):
    recon = reconstruct(observe(bundle))

    def boom(*a, **k):
        raise ValueError("forced failure")

    monkeypatch.setattr(synth, fn, boom)
    with pytest.raises(StageError) as exc:
        evaluate(recon, bundle)
    assert exc.value.stage == stage
