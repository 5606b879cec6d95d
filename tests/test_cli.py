import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import courtpose
from courtpose.calibrate import LineMask, save_pgm
from courtpose.camera import camera_to_json, project
from courtpose.cli import main
from courtpose.mesh import BodyMesh, load_obj, save_obj
from courtpose.model import pose2d_to_json, pose3d_to_json, transforms_to_json
from courtpose.posemaps import jump_to_json
from courtpose.synth import SceneConfig, load_scene, run_pipeline, synth_scene
from helpers import icosphere, weights_to_json


@pytest.fixture(scope="module")
def bundle():
    return synth_scene(21)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def test_synth_and_pipeline_cli(tmp_path, capsys):
    out = tmp_path / "scene"
    assert main(["synth", "--seed", "5", "--out", str(out)]) == 0
    # a scene is its draws: the line mask is a view of its camera
    assert sorted(p.name for p in out.iterdir()) == ["scene.json"]
    report = tmp_path / "report.json"
    assert main(["pipeline", "--scene-dir", str(out), "--out", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert set(rep["stages"]) == {"calibrate", "codec", "place", "skin",
                                  "compose", "eval"}


def test_calibrate_cli(tmp_path, bundle):
    pts = [{"pixel": list(px), "court": list(w)} for px, w in bundle.correspondences]
    write_json(tmp_path / "pts.json", pts)
    save_pgm(tmp_path / "mask.pgm", bundle.line_mask)
    out = tmp_path / "camera.json"
    code = main(["calibrate", "--image-size", "1280x720",
                 "--points", str(tmp_path / "pts.json"),
                 "--mask", str(tmp_path / "mask.pgm"),
                 "--out", str(out)])
    assert code == 0
    got = json.loads(out.read_text())
    assert got["pnp_rms_px"] < 1e-3
    assert got["final_cost"] <= got["initial_cost"]
    # exact correspondences put PnP inside the hinged basin: no step taken
    assert (got["iterations"], got["stop"]) == (1, "done")
    assert got["camera"]["f"] == pytest.approx(bundle.camera.f, rel=1e-3)


def test_calibrate_cli_rejects_mask_of_wrong_size(tmp_path, bundle):
    pts = [{"pixel": list(px), "court": list(w)} for px, w in bundle.correspondences]
    write_json(tmp_path / "pts.json", pts)
    # the top-left 640x360 crop of the 1280x720 mask
    save_pgm(tmp_path / "mask.pgm", LineMask(bundle.line_mask.pixels[:360, :640]))
    out = tmp_path / "camera.json"
    code = main(["calibrate", "--image-size", "1280x720",
                 "--points", str(tmp_path / "pts.json"),
                 "--mask", str(tmp_path / "mask.pgm"),
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("size", ["0x720", "1280x0", "1280x-5", "-1280x720"])
def test_calibrate_cli_rejects_an_image_size_that_is_not_positive(tmp_path, capsys, bundle,
                                                                   size):
    pts = [{"pixel": list(px), "court": list(w)} for px, w in bundle.correspondences]
    write_json(tmp_path / "pts.json", pts)
    out = tmp_path / "camera.json"
    code = main(["calibrate", f"--image-size={size}", "--points", str(tmp_path / "pts.json"),
                 "--out", str(out)])
    assert code == 2
    assert f"bad --image-size {size!r}" in capsys.readouterr().err
    assert not out.exists()


def test_place_cli(tmp_path, bundle):
    crop_cam = bundle.crop_camera
    write_json(tmp_path / "cam.json", camera_to_json(crop_cam))
    write_json(tmp_path / "p2.json", pose2d_to_json(bundle.pose2d))
    write_json(tmp_path / "p3.json", pose3d_to_json(bundle.pose_root))
    write_json(tmp_path / "jump.json", jump_to_json(bundle.jump))
    out = tmp_path / "world.json"
    code = main(["place", "--camera", str(tmp_path / "cam.json"),
                 "--pose2d", str(tmp_path / "p2.json"),
                 "--pose3d", str(tmp_path / "p3.json"),
                 "--jump", str(tmp_path / "jump.json"),
                 "--out", str(out)])
    assert code == 0
    placed = np.asarray(json.loads(out.read_text())["pose_world"]["positions"])
    assert np.abs(placed - bundle.pose_world.positions).max() < 1e-6


def test_codec_cli(tmp_path, bundle):
    write_json(tmp_path / "p2.json", pose2d_to_json(bundle.pose2d))
    write_json(tmp_path / "p3.json", pose3d_to_json(bundle.pose_root))
    code = main(["codec", "--pose2d", str(tmp_path / "p2.json"),
                 "--pose3d", str(tmp_path / "p3.json"),
                 "--out-dir", str(tmp_path / "maps")])
    assert code == 0
    rep = json.loads((tmp_path / "maps" / "codec_report.json").read_text())
    assert rep["max_2d_err_px"] < 1e-5  # through the float32 stack files
    assert rep["max_3d_err_m"] <= 1e-6
    assert (tmp_path / "maps" / "heatmaps.bin").exists()


def test_skin_cli(tmp_path, bundle):
    from courtpose.synth import canonical_body
    skeleton, rest, weights = canonical_body(bundle.config.voxel_res)
    save_obj(tmp_path / "rest.obj", rest)
    write_json(tmp_path / "w.json", weights_to_json(weights))
    write_json(tmp_path / "t.json", transforms_to_json(bundle.transforms))
    out = tmp_path / "posed.obj"
    code = main(["skin", "--rest", str(tmp_path / "rest.obj"),
                 "--weights", str(tmp_path / "w.json"),
                 "--pose", str(tmp_path / "t.json"), "--out", str(out)])
    assert code == 0
    from courtpose.mesh import load_obj
    posed = load_obj(out)
    root_relative = bundle.posed_body.merged()[0] - (
        bundle.pose_world.positions[0] - bundle.pose_root.positions[0])
    assert np.abs(posed.merged()[0] - root_relative).max() < 1e-5


def test_compose_cli(tmp_path):
    from courtpose.primitives import capsule, tube
    body = capsule((0, 0, 0), (0, 0.3, 0), 0.055, n_seg=12, cap_rings=3,
                   shaft_rings=6, part="arms")
    garment = tube((0, 0.05, 0), (0, 0.25, 0), 0.05, n_seg=16, n_rings=6,
                   part="shirt")
    parts = tmp_path / "parts"
    os.makedirs(parts)
    save_obj(parts / "arms.obj", body)
    save_obj(parts / "shirt.obj", garment)
    out = tmp_path / "body.obj"
    rep_path = tmp_path / "rep.json"
    code = main(["compose", "--parts", str(parts), "--out", str(out),
                 "--report", str(rep_path)])
    assert code == 0
    rep = json.loads(rep_path.read_text())
    assert rep["residual_collisions"] == 0


def test_eval_cli(tmp_path, bundle):
    a = icosphere(1.0, 2, part="head")
    b = icosphere(1.0, 2, part="head")
    save_obj(tmp_path / "a.obj", a)
    save_obj(tmp_path / "b.obj", b)
    out = tmp_path / "metrics.json"
    code = main(["eval", "--pred", str(tmp_path / "a.obj"),
                 "--gt", str(tmp_path / "b.obj"),
                 "--metrics", "cd,emd,mpvpe", "--icp", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["cd"] < 1e-9
    assert rep["emd"] < 1e-9
    assert rep["mpvpe_mm"] < 1e-6


@pytest.mark.parametrize("metrics", [",", "", " , "])
def test_eval_no_metric_exit_code_2(tmp_path, capsys, metrics):
    save_obj(tmp_path / "a.obj", icosphere(1.0, 1, part="head"))
    out = tmp_path / "m.json"
    code = main(["eval", "--pred", str(tmp_path / "a.obj"), "--gt", str(tmp_path / "a.obj"),
                 "--metrics", metrics, "--out", str(out)])
    assert code == 2
    assert "names no metric (expected cd, emd, mpvpe)" in capsys.readouterr().err
    assert not out.exists()


def test_eval_non_finite_vertex_exit_code_2(tmp_path):
    save_obj(tmp_path / "gt.obj", icosphere(1.0, 1, part="head"))
    (tmp_path / "nan.obj").write_text("v nan 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    code = main(["eval", "--pred", str(tmp_path / "nan.obj"),
                 "--gt", str(tmp_path / "gt.obj"), "--out", str(tmp_path / "m.json")])
    assert code == 2


def test_train_and_infer_cli(tmp_path):
    params = tmp_path / "params.bin"
    code = main(["train-toy", "--seed", "0", "--count", "6", "--steps", "8",
                 "--epochs", "4", "--out", str(params)])
    assert code == 0
    assert params.exists()

    from courtpose.toydata import toy_part_dataset
    dataset, ops, cfg = toy_part_dataset(seed=0, count=1)
    pose, rest, _ = dataset[0]
    write_json(tmp_path / "pose.json", pose3d_to_json(pose))
    save_obj(tmp_path / "rest.obj", rest)
    out = tmp_path / "part.obj"
    code = main(["infer-part", "--params", str(params),
                 "--pose", str(tmp_path / "pose.json"),
                 "--rest", str(tmp_path / "rest.obj"), "--out", str(out)])
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("flag", ["--count", "--epochs", "--steps"])
def test_train_toy_settings_that_cannot_train_exit_code_2(tmp_path, capsys, flag):
    argv = ["train-toy", "--count", "4", "--epochs", "1", "--steps", "1",
            "--out", str(tmp_path / "params.bin")]
    argv[argv.index(flag) + 1] = "0"
    assert main(argv) == 2
    assert "got 0" in capsys.readouterr().err
    assert not (tmp_path / "params.bin").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--seed", "-1"], ["pipeline", "--seed", "-3"],
    ["pipeline", "--seed", "-3", "--scenes", "2", "--jobs", "2"],
    ["train-toy", "--seed", "-1", "--count", "2", "--steps", "1"]])
def test_negative_seed_exit_code_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"must be >= 0, got {argv[2]}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exit_code_2(tmp_path):
    code = main(["place", "--camera", str(tmp_path / "nope.json"),
                 "--pose2d", str(tmp_path / "nope.json"),
                 "--pose3d", str(tmp_path / "nope.json"),
                 "--jump", str(tmp_path / "nope.json")])
    assert code == 2


def test_synth_image_size(tmp_path):
    out = tmp_path / "scene"
    code = main(["synth", "--seed", "1", "--image-size", "640x360", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "scene.json").read_text())
    assert meta["image_size"] == [640, 360]
    assert load_scene(out).line_mask.size == (640, 360)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_pipeline_image_size(tmp_path, jobs):
    report = tmp_path / "r.json"
    code = main(["pipeline", "--seed", "3023", "--scenes", "2", "--jobs", jobs,
                 "--image-size", "640x360", "--out", str(report)])
    assert code == 0
    got = json.loads(report.read_text())
    want = [run_pipeline(synth_scene(seed, SceneConfig((640, 360))))
            for seed in (3023, 3024)]
    for r in got + want:
        for stage in r["stages"].values():
            del stage["seconds"]
    assert got == json.loads(json.dumps(want))


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("size", ["-640x720", "0x0", "640", "fine"])
def test_bad_image_size_exit_code_2(tmp_path, capsys, command, size):
    # a negative width would read as an option after a separate --image-size
    out = tmp_path / "out"
    code = main([command, "--seed", "1", f"--image-size={size}", "--out", str(out)])
    assert code == 2
    assert f"bad --image-size {size!r}" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_image_size_with_a_scene_dir_exit_code_2(tmp_path, capsys):
    # a saved scene carries its own frame size
    code = main(["pipeline", "--scene-dir", str(tmp_path), "--image-size", "640x360"])
    assert code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "3"], ["--scenes", "2"], ["--jobs", "2"],
                                   ["--seed", "0", "--jobs", "1"]])
def test_pipeline_scene_counts_with_a_scene_dir_exit_code_2(tmp_path, capsys, flags):
    # a saved scene is the one scene run: these flags used to be ignored
    out = tmp_path / "r.json"
    code = main(["pipeline", "--scene-dir", str(tmp_path)] + flags + ["--out", str(out)])
    assert code == 2
    named = ", ".join(flags[::2])
    assert f"{named} cannot go with --scene-dir" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_cli_parallel_scenes(tmp_path):
    def run(jobs):
        report = tmp_path / f"jobs{jobs}.json"
        code = main(["pipeline", "--seed", "40", "--scenes", "2", "--jobs", str(jobs),
                     "--out", str(report)])
        assert code == 0
        reports = json.loads(report.read_text())
        for r in reports:
            for stage in r["stages"].values():
                del stage["seconds"]
        return reports

    reports = run(2)
    assert len(reports) == 2
    assert reports == run(1)


def test_pipeline_jobs_with_a_failing_scene_exit_code_2():
    # a StageError that did not pickle killed the pool's result thread, and
    # the run hung; a subprocess with a timeout fails on a hang instead
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(courtpose.__file__))}
    out = subprocess.run([sys.executable, "-m", "courtpose.cli", "pipeline", "--scenes", "2",
                          "--jobs", "2", "--image-size", "8x8"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 2
    assert "[calibrate] planar PnP needs at least 4 correspondences" in out.stderr


@pytest.mark.parametrize("argv", [
    ["--scenes", "0"], ["--jobs", "0"], ["--jobs", "-2"],
    ["--scenes", "2", "--jobs", "0"]])
def test_pipeline_scene_and_job_counts_below_one_exit_code_2(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main(["pipeline", "--seed", "40"] + argv + ["--out", str(out)]) == 2
    assert f"{argv[-2]} must be at least 1, got {argv[-1]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, why", [
    ("# part: hat\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "unknown part 'hat'"),
    ("# part: head\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
     "# part: head\nv 0 0 1\nv 1 0 1\nv 0 1 1\nf 4 5 6\n", "duplicate part names"),
], ids=["unknown", "repeated"])
def test_eval_obj_with_a_bad_part_tag_names_the_file_exit_code_2(tmp_path, capsys, text, why):
    save_obj(tmp_path / "gt.obj", icosphere(1.0, 1, part="head"))
    (tmp_path / "pred.obj").write_text(text)
    code = main(["eval", "--pred", str(tmp_path / "pred.obj"),
                 "--gt", str(tmp_path / "gt.obj"), "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"OBJ file {tmp_path / 'pred.obj'}: " in err and why in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("focal", ["nan", "inf", "0", "-1400"])
def test_calibrate_focal_that_is_not_finite_and_positive_exit_code_2(tmp_path, capsys, bundle,
                                                                     focal):
    # --focal nan used to exit 1 on numpy's "SVD did not converge"
    pts = [{"pixel": list(px), "court": list(w)} for px, w in bundle.correspondences]
    write_json(tmp_path / "pts.json", pts)
    out = tmp_path / "camera.json"
    code = main(["calibrate", "--image-size", "1280x720", "--points", str(tmp_path / "pts.json"),
                 f"--focal={focal}", "--out", str(out)])
    assert code == 2
    assert f"focal length must be finite and > 0, got {float(focal)!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, k", [("pixel", 0), ("pixel", 1), ("court", 2)])
def test_calibrate_non_finite_correspondence_exit_code_2(tmp_path, capsys, bundle, field, k):
    # Python's json reads NaN, and a NaN pixel used to exit 1 on numpy's
    # "SVD did not converge"
    pts = [{"pixel": list(px), "court": list(w)} for px, w in bundle.correspondences]
    pts[2][field][k] = float("nan")
    write_json(tmp_path / "pts.json", pts)
    out = tmp_path / "camera.json"
    code = main(["calibrate", "--image-size", "1280x720", "--points", str(tmp_path / "pts.json"),
                 "--out", str(out)])
    assert code == 2
    assert "planar PnP needs finite correspondences" in capsys.readouterr().err
    assert not out.exists()


def test_degenerate_calibration_exit_code(tmp_path):
    pts = [{"pixel": [10.0 * i, 5.0], "court": [float(i), 0.0]} for i in range(4)]
    write_json(tmp_path / "pts.json", pts)
    code = main(["calibrate", "--image-size", "640x360",
                 "--points", str(tmp_path / "pts.json")])
    assert code == 3  # numerical failure (degenerate geometry)


# ---------------------------------------------------------------------------
# malformed input files exit 2, naming the file
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "v 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",    # a vertex with two coordinates
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n",  # a non-numeric face index
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n",  # a face index past the vertices
], ids=["short_vertex", "non_numeric_face", "face_out_of_range"])
def test_eval_malformed_obj_exit_code_2(tmp_path, capsys, text):
    save_obj(tmp_path / "gt.obj", icosphere(1.0, 1, part="head"))
    bad = tmp_path / "bad.obj"
    bad.write_text(text)
    code = main(["eval", "--pred", str(bad), "--gt", str(tmp_path / "gt.obj"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def _pgm_16bit(mask):
    h, w = mask.pixels.shape
    data = np.where(mask.pixels, 65535, 0).astype(">u2")
    return f"P5\n{w} {h}\n65535\n".encode() + data.tobytes()


@pytest.mark.parametrize("make", [
    lambda mask: b"P5\n1280 seven-twenty\n255\n" + bytes(1280 * 720),
    _pgm_16bit,
], ids=["non_numeric_header", "maxval_65535"])
def test_calibrate_malformed_pgm_exit_code_2(tmp_path, capsys, bundle, make):
    pts = [{"pixel": list(px), "court": list(w)} for px, w in bundle.correspondences]
    write_json(tmp_path / "pts.json", pts)
    bad = tmp_path / "mask.pgm"
    bad.write_bytes(make(bundle.line_mask))
    out = tmp_path / "camera.json"
    code = main(["calibrate", "--image-size", "1280x720",
                 "--points", str(tmp_path / "pts.json"), "--mask", str(bad),
                 "--out", str(out)])
    assert code == 2
    assert str(bad) in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory, bundle):
    """A directory of valid inputs for every command that reads JSON."""
    from courtpose.meshnet import init_params, save_params
    from courtpose.model import skeleton_to_json
    from courtpose.synth import canonical_body
    from courtpose.toydata import toy_part_dataset

    d = tmp_path_factory.mktemp("json_inputs")
    write_json(d / "pts.json", [{"pixel": list(px), "court": list(w)}
                                for px, w in bundle.correspondences])
    write_json(d / "cam.json", camera_to_json(bundle.crop_camera))
    write_json(d / "p2.json", pose2d_to_json(bundle.pose2d))
    write_json(d / "p3.json", pose3d_to_json(bundle.pose_root))
    write_json(d / "jump.json", jump_to_json(bundle.jump))
    skeleton, rest, weights = canonical_body(bundle.config.voxel_res)
    save_obj(d / "rest.obj", rest)
    write_json(d / "w.json", weights_to_json(weights))
    write_json(d / "t.json", transforms_to_json(bundle.transforms))
    write_json(d / "sk.json", skeleton_to_json(skeleton))
    dataset, ops, config = toy_part_dataset(seed=0, count=1)
    pose, part, _ = dataset[0]
    params = init_params(config, ops, pose.num_joints, np.random.default_rng(0))
    save_params(d / "params.bin", params)
    save_obj(d / "part.obj", part)
    write_json(d / "pose.json", pose3d_to_json(pose))
    return d


_JSON_COMMANDS = {
    "calibrate": ["--image-size", "1280x720", "--points", "{inputs}/pts.json"],
    "place": ["--camera", "{inputs}/cam.json", "--pose2d", "{inputs}/p2.json",
              "--pose3d", "{inputs}/p3.json", "--jump", "{inputs}/jump.json"],
    "codec": ["--pose2d", "{inputs}/p2.json", "--pose3d", "{inputs}/p3.json",
              "--out-dir", "{tmp}/maps"],
    "skin": ["--rest", "{inputs}/rest.obj", "--weights", "{inputs}/w.json",
             "--pose", "{inputs}/t.json", "--skeleton", "{inputs}/sk.json",
             "--out", "{tmp}/posed.obj"],
    "infer-part": ["--params", "{inputs}/params.bin", "--pose", "{inputs}/pose.json",
                   "--rest", "{inputs}/part.obj", "--out", "{tmp}/out.obj"],
}


@pytest.mark.parametrize("command,flag,record", [
    ("calibrate", "--points", [{"pixel": [1.0, 2.0]}]),
    ("place", "--camera", {"f": 1000}),
    ("place", "--pose2d", {"pixels": [[0.0, 0.0]]}),
    ("place", "--pose3d", {"positions": [[0.0, 0.0, 0.0]], "frame": "sideways"}),
    ("place", "--jump", {"airborne": True}),
    ("codec", "--pose2d", {"pixels": [[0.0, 0.0]]}),
    ("codec", "--pose3d", [1, 2]),
    ("skin", "--weights", {"shape": [2, 2], "rows": [5], "cols": [0], "values": [1.0]}),
    ("skin", "--pose", {"rotations": [[1.0, 0.0, 0.0]], "translations": []}),
    ("skin", "--skeleton", {"joints": [{"name": "root"}]}),
    ("infer-part", "--pose", {"positions": "none"}),
])
def test_malformed_json_record_exit_code_2(tmp_path, capsys, json_inputs, command,
                                           flag, record):
    argv = [command] + [arg.format(inputs=json_inputs, tmp=tmp_path)
                        for arg in _JSON_COMMANDS[command]]
    bad = tmp_path / "bad.json"
    write_json(bad, record)
    argv[argv.index(flag) + 1] = str(bad)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "not a valid record" in err


def place_with(tmp_path, capsys, json_inputs, flag, record):
    """Run place with ``record`` as the file of ``flag``; it must exit 2 and
    write nothing. Returns stderr."""
    argv = ["place"] + [arg.format(inputs=json_inputs, tmp=tmp_path)
                        for arg in _JSON_COMMANDS["place"]]
    bad = tmp_path / "bad.json"
    write_json(bad, record)
    argv[argv.index(flag) + 1] = str(bad)
    out = tmp_path / "world.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("field, index", [("T", 1), ("R", 4)])
def test_place_camera_that_is_not_finite_names_the_file_exit_code_2(tmp_path, json_inputs,
                                                                    field, index):
    # a NaN T used to fail at placement, naming no file, and a NaN R passed
    # the rotation check and, under PYTHONWARNINGS=error, exited 1 on the
    # determinant's RuntimeWarning
    camera = json.loads((json_inputs / "cam.json").read_text())
    camera[field][index] = float("nan")
    bad = tmp_path / "cam.json"
    write_json(bad, camera)
    argv = [arg.format(inputs=json_inputs, tmp=tmp_path) for arg in _JSON_COMMANDS["place"]]
    argv[argv.index("--camera") + 1] = str(bad)
    env = {**os.environ, "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.path.dirname(os.path.dirname(courtpose.__file__))}
    out = subprocess.run([sys.executable, "-m", "courtpose.cli", "place", *argv,
                          "--out", str(tmp_path / "world.json")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 2, out.stderr
    assert f"{bad} is not a valid record: camera {field} must be finite" in out.stderr
    assert not (tmp_path / "world.json").exists()


_NOT_A_BOOLEAN = {"--jump": "jump airborne must be JSON true or false",
                  "--pose2d": "pose2d visibility must be a list of JSON booleans"}


@pytest.mark.parametrize("flag,record", [
    ("--jump", {"airborne": "false", "height": 0.5}),
    ("--jump", {"airborne": 0, "height": 0.0}),
    ("--jump", {"airborne": None, "height": 0.0}),
    ("--pose2d", {"pixels": [[0.0, 0.0], [1.0, 1.0]], "visibility": ["true", "false"]}),
    ("--pose2d", {"pixels": [[0.0, 0.0], [1.0, 1.0]], "visibility": [1, 0]}),
    ("--pose2d", {"pixels": [[0.0, 0.0]], "visibility": True}),
])
def test_place_json_boolean_that_is_not_a_boolean_exit_code_2(tmp_path, capsys, json_inputs,
                                                              flag, record):
    err = place_with(tmp_path, capsys, json_inputs, flag, record)
    assert f"{tmp_path / 'bad.json'} is not a valid record: {_NOT_A_BOOLEAN[flag]}" in err


@pytest.mark.parametrize("flag,record,message", [
    ("--jump", {"airborne": True, "height": True}, "jump height must be a JSON number, got True"),
    ("--jump", {"airborne": True, "height": "0.5"}, "jump height must be a JSON number, got '0.5'"),
    ("--pose2d", {"pixels": [[True, "3"]], "visibility": [True]},
     "pose2d pixels must be a JSON number"),
])
def test_place_json_number_that_is_not_a_number_exit_code_2(tmp_path, capsys, json_inputs,
                                                            flag, record, message):
    # float() and numpy read true as 1 and "0.5" as 0.5
    err = place_with(tmp_path, capsys, json_inputs, flag, record)
    assert f"{tmp_path / 'bad.json'} is not a valid record: {message}" in err


@pytest.mark.parametrize("bad", [True, "1"])
@pytest.mark.parametrize("command,flag,path,kind", [
    ("calibrate", "--points", (0, "pixel", 1), "number"),
    ("calibrate", "--points", (2, "court", 0), "number"),
    ("place", "--camera", ("f",), "number"),
    ("place", "--camera", ("py",), "number"),
    ("place", "--camera", ("R", 4), "number"),
    ("place", "--camera", ("T", 2), "number"),
    ("place", "--pose3d", ("positions", 3, 1), "number"),
    ("skin", "--weights", ("values", 0), "number"),
    ("skin", "--weights", ("rows", 0), "integer"),
    ("skin", "--weights", ("shape", 1), "integer"),
    ("skin", "--pose", ("rotations", 1, 0), "number"),
    ("skin", "--pose", ("translations", 0, 2), "number"),
    ("skin", "--skeleton", ("joints", 1, "offset", 1), "number"),
    ("skin", "--skeleton", ("joints", 1, "parent"), "integer"),
])
def test_json_number_that_is_not_a_number_exit_code_2(tmp_path, capsys, json_inputs, command,
                                                      flag, path, kind, bad):
    argv = [command] + [arg.format(inputs=json_inputs, tmp=tmp_path)
                        for arg in _JSON_COMMANDS[command]]
    good = argv[argv.index(flag) + 1]
    with open(good) as fh:
        record = json.load(fh)
    leaf = record
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = bad
    bad_file = tmp_path / "bad.json"
    write_json(bad_file, record)
    argv[argv.index(flag) + 1] = str(bad_file)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad_file} is not a valid record: " in err
    assert f"must be a JSON {kind}, got {bad!r}" in err


def test_pipeline_malformed_scene_json_exit_code_2(tmp_path, capsys):
    out = tmp_path / "scene"
    assert main(["synth", "--seed", "5", "--out", str(out)]) == 0
    scene = json.loads((out / "scene.json").read_text())
    del scene["camera"]["px"]
    write_json(out / "scene.json", scene)
    code = main(["pipeline", "--scene-dir", str(out), "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert str(out / "scene.json") in capsys.readouterr().err


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("saved") / "scene"
    assert main(["synth", "--seed", "5", "--out", str(out)]) == 0
    return out


def test_pipeline_scene_dir_without_an_offset_exit_code_2(tmp_path, capsys, scene_dir):
    # a scene saved before the offset was stored holds its poses instead
    out = tmp_path / "scene"
    shutil.copytree(scene_dir, out)
    scene = json.loads((out / "scene.json").read_text())
    del scene["offset"]
    write_json(out / "scene.json", scene)
    report = tmp_path / "r.json"
    assert main(["pipeline", "--scene-dir", str(out), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'scene.json'} is not a valid record: KeyError('offset')" in err
    assert not report.exists()


def test_pipeline_scene_dir_with_transforms_of_ten_joints_exit_code_2(tmp_path, capsys,
                                                                     scene_dir):
    out = tmp_path / "scene"
    shutil.copytree(scene_dir, out)
    scene = json.loads((out / "scene.json").read_text())
    for key in ("rotations", "translations"):
        scene["transforms"][key] = scene["transforms"][key][:10]
    write_json(out / "scene.json", scene)
    report = tmp_path / "r.json"
    assert main(["pipeline", "--scene-dir", str(out), "--out", str(report)]) == 2
    assert (f"scene {out}: transform count 10 does not match joint count 35"
            in capsys.readouterr().err)
    assert not report.exists()


@pytest.mark.parametrize("field, bad, message", [
    ("seed", True, "scene seed must be a JSON integer, got True"),
    ("seed", 5.0, "scene seed must be a JSON integer, got 5.0"),
    ("seed", -1, "scene seed must be >= 0, got -1"),
    ("image_size", [True, 720], "scene image_size must be a JSON integer, got True"),
    ("image_size", [1280.0, 720], "scene image_size must be a JSON integer, got 1280.0"),
], ids=["seed_true", "seed_float", "seed_negative", "image_size_true", "image_size_float"])
def test_pipeline_scene_dir_field_that_is_not_a_number_exit_code_2(
        tmp_path, capsys, scene_dir, field, bad, message):
    # "image_size": [true, 720] used to load as a (True, 720) frame
    out = tmp_path / "scene"
    shutil.copytree(scene_dir, out)
    scene = json.loads((out / "scene.json").read_text())
    scene[field] = bad(scene[field]) if callable(bad) else bad
    write_json(out / "scene.json", scene)
    report = tmp_path / "r.json"
    assert main(["pipeline", "--scene-dir", str(out), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'scene.json'} is not a valid record: " in err
    assert message in err
    assert not report.exists()


def _nan_at(k):
    def edit(values):
        values[k] = float("nan")
        return values
    return edit


@pytest.mark.parametrize("field, bad", [
    ("offset", _nan_at(2)),
], ids=["offset"])
def test_pipeline_scene_dir_field_that_is_not_finite_exit_code_2(
        tmp_path, capsys, scene_dir, field, bad):
    # JSON NaN is a JSON number: it used to fail only in validate, as
    # "pose positions must be finite", naming neither the file nor the field
    out = tmp_path / "scene"
    shutil.copytree(scene_dir, out)
    scene = json.loads((out / "scene.json").read_text())
    scene[field] = bad(scene[field])
    write_json(out / "scene.json", scene)
    report = tmp_path / "r.json"
    assert main(["pipeline", "--scene-dir", str(out), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'scene.json'} is not a valid record: " in err
    assert f"scene {field} must be finite, got " in err
    assert not report.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key", ["rotations", "translations"])
def test_pipeline_scene_dir_transform_that_is_not_finite_exit_code_2(
        tmp_path, capsys, scene_dir, key):
    # a NaN rotation made the defect's determinant warn (exit 1 when warnings
    # are errors), and a NaN translation failed as "pose positions must be
    # finite"; neither named the file or the field
    out = tmp_path / "scene"
    shutil.copytree(scene_dir, out)
    scene = json.loads((out / "scene.json").read_text())
    scene["transforms"][key][3][1] = float("nan")
    write_json(out / "scene.json", scene)
    report = tmp_path / "r.json"
    assert main(["pipeline", "--scene-dir", str(out), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"{out / 'scene.json'} is not a valid record: transform {key} must be finite" in err
    assert not report.exists()


@pytest.mark.parametrize("where", ["header", "name", "payload"])
def test_infer_part_truncated_params_exit_code_2(tmp_path, capsys, json_inputs, where):
    data = (json_inputs / "params.bin").read_bytes()
    # magic (8 bytes) and tensor count (4), then the first name's length (2)
    # and the name, "dec.lin.W"
    cut = {"header": 10, "name": 8 + 4 + 2 + 3, "payload": len(data) - 4}[where]
    bad = tmp_path / "params.bin"
    bad.write_bytes(data[:cut])
    argv = [arg.format(inputs=json_inputs, tmp=tmp_path)
            for arg in _JSON_COMMANDS["infer-part"]]
    argv[argv.index("--params") + 1] = str(bad)
    assert main(["infer-part"] + argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "truncated" in err


def test_infer_part_takes_the_head_of_a_body_in_any_part_order(tmp_path, capsys,
                                                               json_inputs):
    # the first group used to be taken, so a body whose head is not first
    # exited 2 with "rest part does not match the operator pyramid"
    argv = [arg.format(inputs=json_inputs, tmp=tmp_path)
            for arg in _JSON_COMMANDS["infer-part"]]
    assert main(["infer-part"] + argv) == 0
    body = load_obj(json_inputs / "rest.obj")
    assert body.parts[0].part == "head"
    save_obj(tmp_path / "reversed.obj", BodyMesh(body.parts[::-1]))
    argv[argv.index("--rest") + 1] = str(tmp_path / "reversed.obj")
    argv[argv.index("--out") + 1] = str(tmp_path / "from_body.obj")
    assert main(["infer-part"] + argv) == 0
    assert (tmp_path / "from_body.obj").read_text() == (tmp_path / "out.obj").read_text()

    save_obj(tmp_path / "shirt.obj", body.part("shirt"))
    argv[argv.index("--rest") + 1] = str(tmp_path / "shirt.obj")
    assert main(["infer-part"] + argv) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "shirt.obj") in err and "'shirt'" in err


def test_infer_part_params_that_do_not_fit_exit_code_2(tmp_path, capsys, json_inputs):
    from courtpose.meshnet import autograd as ag
    from courtpose.meshnet import load_params, save_params

    argv = ["infer-part"] + [arg.format(inputs=json_inputs, tmp=tmp_path)
                             for arg in _JSON_COMMANDS["infer-part"]]
    pose = json.loads((json_inputs / "pose.json").read_text())
    pose["positions"] = pose["positions"][:10]
    write_json(tmp_path / "pose10.json", pose)
    short_pose = list(argv)
    short_pose[short_pose.index("--pose") + 1] = str(tmp_path / "pose10.json")

    params = load_params(json_inputs / "params.bin")
    params["pose.lin_in.W"] = ag.Var(np.zeros((60, params["pose.lin_in.W"].shape[1])))
    save_params(tmp_path / "params20.bin", params)
    joints20 = list(argv)
    joints20[joints20.index("--params") + 1] = str(tmp_path / "params20.bin")

    for bad_argv in (short_pose, joints20):
        assert main(bad_argv) == 2
        assert "pose.lin_in.W" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_infer_part_non_finite_params_exit_code_2(tmp_path, capsys, json_inputs, value):
    # a NaN used to flow through tl_forward into an OBJ of nan vertices, exit 0
    from courtpose.meshnet import load_params, save_params

    params = load_params(json_inputs / "params.bin")
    params["enc_rest.sc1.W"].value[2, 5] = value
    save_params(tmp_path / "bad.bin", params)
    argv = [arg.format(inputs=json_inputs, tmp=tmp_path)
            for arg in _JSON_COMMANDS["infer-part"]]
    argv[argv.index("--params") + 1] = str(tmp_path / "bad.bin")
    assert main(["infer-part"] + argv) == 2
    assert "enc_rest.sc1.W has non-finite entries" in capsys.readouterr().err
    assert not (tmp_path / "out.obj").exists()
