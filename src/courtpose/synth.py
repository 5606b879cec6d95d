"""Deterministic synthetic scenes: a broadcast-style camera over a court and
a randomly posed capsule-bodied player (bone transforms, world offset, jump
state). The true poses and posed body, the person crop, and the frame's line
mask and landmark correspondences (every court landmark the frame shows,
with its exact pixel) derive from these draws.

``run_pipeline`` is ``evaluate(reconstruct(observe(bundle)), bundle)``:
``reconstruct`` reads only the ``Observation``, places the player on the 2D
pose it decodes from the maps, and poses one player model,
``canonical_body``, for every player; ``evaluate`` compares the result with
the truth in the world frame.

All randomness flows through one seeded 64-bit generator; the same seed
yields a bit-identical bundle.
"""
from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .calibrate import (LineMask, rasterize_court_lines, refine_camera_lines,
                        solve_pnp_planar)
from .camera import (Camera, camera_from_json, camera_to_json, project,
                     project_with_depth)
from .composer import resolve_interpenetration
from .court import CourtModel, make_court_model
from .errors import StageError, ValidationError
from .mesh import BodyMesh, PartMesh, stack_meshes
from .metrics import chamfer, emd, mpvpe, rotation_error_deg
from .model import (BoneTransforms, Frame, Pose2D, Pose3D, Skeleton, forward_kinematics,
                    json_number, json_numbers, load_json_record, pose2d_to_json,
                    pose3d_to_json, rest_pose, transforms_from_json, transforms_to_json)
from .placement import place_player
from .posemaps import (JumpInfo, PoseMapTargets, codec_errors, decode_heatmaps,
                       decode_location_maps, encode_heatmaps, encode_location_maps,
                       jump_from_json, jump_to_json)
from .primitives import capsule, tube
from .skinning import fit_pose_to_keypoints, heat_diffusion_weights, lbs
from .transforms import axis_angle_to_matrix, look_at_rotation

EMD_SUBSAMPLE = 256  # points per side of the eval stage's EMD

# the fixed scene distribution
FOCAL_RANGE = (800.0, 3000.0)
JUMP_RANGE = (0.0, 1.2)       # meters, lowest joint above the floor
ELEVATION_RANGE = (5.0, 15.0)
STANDOFF_RANGE = (8.0, 20.0)  # camera distance beyond the sideline
POSE_ANGLE_STD = 0.12         # radians, per-joint randomization
CROP_MARGIN = 1.4             # crop side over the pose's projected extent


@dataclass(frozen=True)
class SceneConfig:
    image_size: tuple = (1280, 720)
    voxel_res: ClassVar[int] = 22  # the canonical body's voxel grid resolution

    def __post_init__(self):
        def positive_int(v):
            return isinstance(v, (int, np.integer)) and v >= 1

        if len(self.image_size) != 2 or not all(map(positive_int, self.image_size)):
            raise ValidationError("scene config 'image_size' must be a positive integer "
                                  f"width and height, got {self.image_size!r}")


@dataclass(frozen=True)
class SceneBundle:
    """A scene's draws, all that ``synth_scene`` samples. Its poses, posed
    body, person crop, line mask and correspondences are views derived from
    them once, on first read; its skeleton and court are the player model's
    and the one court."""
    seed: int
    config: SceneConfig
    camera: Camera                 # full-frame broadcast camera
    transforms: BoneTransforms     # on canonical_body's skeleton
    offset: np.ndarray             # (3,) world translation of pose_root
    jump: JumpInfo

    @property
    def skeleton(self) -> Skeleton:
        return canonical_body(self.config.voxel_res)[0]

    @property
    def court(self) -> CourtModel:
        return make_court_model()

    @property
    def crop_camera(self) -> Camera:
        return self.camera.cropped(self.crop_origin, self.crop_scale)

    @cached_property
    def pose_root(self) -> Pose3D:
        return forward_kinematics(self.skeleton, self.transforms)

    @cached_property
    def pose_world(self) -> Pose3D:
        return self.pose_root.translated(self.offset)

    @cached_property
    def _crop(self) -> tuple:
        """(origin, scale) of the person crop: a square CROP_MARGIN times the
        side of the pose's projected extent, centred on it."""
        uv_full = project(self.camera, self.pose_world.positions)
        lo, hi = uv_full.min(axis=0), uv_full.max(axis=0)
        side = float(max(hi[0] - lo[0], hi[1] - lo[1], 8.0)) * CROP_MARGIN
        center = (lo + hi) / 2.0
        origin = (float(center[0] - side / 2.0), float(center[1] - side / 2.0))
        return origin, Pose2D.CROP_SIZE / side

    crop_origin = property(lambda self: self._crop[0])  # crop window corner in the frame
    crop_scale = property(lambda self: self._crop[1])   # crop pixels per frame pixel

    @cached_property
    def line_mask(self) -> LineMask:
        return rasterize_court_lines(self.camera, self.court, self.config.image_size)

    @cached_property
    def correspondences(self) -> tuple:
        """((pixel xy), (world xyz)) pairs of every court landmark in the
        frame; calibration's PnP reads them all."""
        return _visible_landmarks(self.camera, self.court, self.config.image_size)

    @cached_property
    def pose2d(self) -> Pose2D:
        """Crop coordinates, every joint visible."""
        return Pose2D(project(self.crop_camera, self.pose_world.positions),
                      np.ones(self.skeleton.num_joints, dtype=bool))

    @cached_property
    def posed_body(self) -> BodyMesh:
        """The player model posed by LBS, in the world frame."""
        _, rest_body, weights = canonical_body(self.config.voxel_res)
        posed_root = lbs(rest_body, weights, self.transforms, self.skeleton)
        return posed_root.with_parts(
            [p.with_vertices(p.vertices + self.offset) for p in posed_root.parts])

    def validate(self) -> None:
        """The invariants that the draws do not fix, checked on a loaded scene."""
        self.pose_root  # forward kinematics refuses another joint count
        if self.jump.airborne != (self.jump.height > JumpInfo.JUMP_THRESHOLD):
            raise ValidationError("bundle jump class does not match the 0.1 m rule")


# the player model depends only on the voxel resolution
_BODY_CACHE: dict = {}


def build_rest_body(skeleton: Skeleton) -> BodyMesh:
    """Six-part capsule body around the canonical rest skeleton."""
    pose = rest_pose(skeleton, Frame.WORLD).positions

    def seg(a, b):
        return pose[skeleton.index(a)], pose[skeleton.index(b)]

    def caps(pairs, radius, part):
        return PartMesh(*stack_meshes([capsule(p0, p1, radius, part=part)
                                       for p0, p1 in pairs]), part)

    neck, head = seg("neck", "head")
    up = head - neck
    pelvis = pose[skeleton.index("pelvis")]

    def sleeve(shoulder_name, elbow_name):
        s, e = seg(shoulder_name, elbow_name)
        u = (e - s) / np.linalg.norm(e - s)
        return tube(s - 0.04 * u, s + 0.62 * (e - s), 0.065, n_seg=8,
                    n_rings=4, part="shirt")

    shirt = [capsule(pelvis, neck + 1.4 * up, 0.20, part="shirt"),
             sleeve("shoulder_l", "elbow_l"), sleeve("shoulder_r", "elbow_r")]
    parts = [
        caps([(neck + 0.4 * up, head + 0.6 * up)], 0.10, "head"),
        caps([seg("shoulder_l", "elbow_l"), seg("elbow_l", "wrist_l"),
              seg("shoulder_r", "elbow_r"), seg("elbow_r", "wrist_r")], 0.042, "arms"),
        PartMesh(*stack_meshes(shirt), "shirt"),
        caps([seg("hip_l", "knee_l"), seg("hip_r", "knee_r")], 0.085, "pants"),
        caps([seg("hip_l", "knee_l"), seg("knee_l", "ankle_l"),
              seg("hip_r", "knee_r"), seg("knee_r", "ankle_r")], 0.055, "legs"),
        caps([seg("ankle_l", "toe_l"), seg("ankle_r", "toe_r")], 0.058, "shoes"),
    ]
    return BodyMesh(tuple(parts))


def canonical_body(voxel_res: int):
    """(skeleton, rest body, heat-diffusion weights), cached per resolution."""
    if voxel_res not in _BODY_CACHE:
        skeleton = Skeleton.canonical()
        rest_body = build_rest_body(skeleton)
        weights = heat_diffusion_weights(rest_body, skeleton,
                                         rest_pose(skeleton, Frame.WORLD),
                                         voxel_res=voxel_res)
        _BODY_CACHE[voxel_res] = (skeleton, rest_body, weights)
    return _BODY_CACHE[voxel_res]


def random_pose_transforms(skeleton: Skeleton, rng: np.random.Generator) -> BoneTransforms:
    J = skeleton.num_joints
    yaw = rng.uniform(-np.pi, np.pi)
    aa = np.vstack([[0.0, yaw, 0.0], rng.normal(0.0, POSE_ANGLE_STD, size=(J - 1, 3))])
    return BoneTransforms(axis_angle_to_matrix(aa), np.zeros((J, 3)))


def synth_scene(seed: int, config: SceneConfig = SceneConfig()) -> SceneBundle:
    if seed < 0:
        raise ValidationError(f"a scene seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    court = make_court_model()
    skeleton = canonical_body(config.voxel_res)[0]

    transforms = random_pose_transforms(skeleton, rng)
    pose_root = forward_kinematics(skeleton, transforms)

    # heights in (0, threshold] are not representable as consistent scenes
    # (the class gates them to ground), so grounded players sit exactly at 0
    height = float(rng.uniform(*JUMP_RANGE))
    if height <= JumpInfo.JUMP_THRESHOLD:
        height = 0.0
    jump = JumpInfo.from_height(height)
    px = float(rng.uniform(-court.length * 0.35, court.length * 0.35))
    pz = float(rng.uniform(-court.width * 0.33, court.width * 0.33))
    min_y = pose_root.positions[:, 1].min()
    offset = np.array([px, height - min_y, pz])

    eye = np.array([
        px + rng.uniform(-8.0, 8.0),
        rng.uniform(*ELEVATION_RANGE),
        court.width / 2.0 + rng.uniform(*STANDOFF_RANGE),
    ])
    target = np.array([px, 1.0, pz * 0.5])
    R = look_at_rotation(eye, target)
    cam = Camera(float(rng.uniform(*FOCAL_RANGE)),
                 config.image_size[0] / 2.0, config.image_size[1] / 2.0,
                 R, -R @ eye)

    return SceneBundle(seed, config, cam, transforms, offset, jump)


def _in_frame(camera: Camera, pts: np.ndarray, image_size):
    """(pixels, mask) of world points: the mask marks points more than 0.1 m
    in front of the camera that project inside the frame."""
    W, H = image_size
    uv, z = project_with_depth(camera, pts)
    ok = (z > 0.1) & (uv[:, 0] >= 0) & (uv[:, 0] < W) & (uv[:, 1] >= 0) & (uv[:, 1] < H)
    return uv, ok


def _visible_landmarks(camera: Camera, court: CourtModel, image_size) -> tuple:
    """((pixel xy), (world xyz)) of every court landmark in the frame, with
    its exact pixel: what a court detector reports."""
    pts = court.landmarks3d
    uv, ok = _in_frame(camera, pts, image_size)
    return tuple((tuple(uv[i]), tuple(pts[i])) for i in np.nonzero(ok)[0])


def court_landmark_reprojection(cam_est: Camera, cam_gt: Camera,
                                court: CourtModel, image_size) -> float:
    """Mean pixel error of estimated vs true projections of in-frame landmarks."""
    pts = court.landmarks3d
    uv_gt, ok = _in_frame(cam_gt, pts, image_size)
    if not ok.any():
        raise ValidationError("no court landmarks visible in frame")
    uv_est, _ = project_with_depth(cam_est, pts)
    return float(np.mean(np.linalg.norm(uv_est[ok] - uv_gt[ok], axis=1)))


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observation:
    """What the chain reads of a scene: the frame's inputs, the person crop,
    and the maps and jump class of a perfect pose network."""
    image_size: tuple
    line_mask: LineMask
    correspondences: tuple
    crop_origin: tuple
    crop_scale: float
    maps: PoseMapTargets


@dataclass(frozen=True)
class Reconstruction:
    camera: Camera              # refined full-frame camera
    pose2d: Pose2D              # decoded, crop coordinates
    pose3d: Pose3D              # decoded, root-relative
    placed: Pose3D              # world frame
    offset: np.ndarray          # the placement's world translation
    transforms: BoneTransforms  # fitted to the decoded pose
    body: BodyMesh              # composed, root frame
    stages: dict                # stage -> the report fields measured without truth


@contextmanager
def _stage(stages: dict, name: str):
    """Fields of stage ``name`` that the with block fills, after those it
    has. The block's time adds to the stage's ``seconds``, its last field;
    its error is a StageError tagged ``name``."""
    fields, t0 = {}, time.perf_counter()
    try:
        yield fields
    except Exception as e:
        raise StageError(name, e) from e
    fields = stages[name] = {**stages.get(name, {}), **fields}
    fields["seconds"] = round(fields.pop("seconds", 0.0) + time.perf_counter() - t0, 4)


def observe(bundle: SceneBundle) -> Observation:
    """The input of ``reconstruct``; its pose maps encode the true poses."""
    heat = encode_heatmaps(bundle.pose2d)
    maps = PoseMapTargets(heat, encode_location_maps(bundle.pose_root, heat), bundle.jump)
    return Observation(bundle.config.image_size, bundle.line_mask, bundle.correspondences,
                       bundle.crop_origin, bundle.crop_scale, maps)


def reconstruct(obs: Observation) -> Reconstruction:
    """calibrate -> codec (decode) -> place -> skin -> compose on ``obs``
    alone; skin fits and poses ``canonical_body``'s skeleton, rest body and
    weights. Raises StageError with the failing stage's tag."""
    stages = {}
    skeleton, rest_body, weights = canonical_body(SceneConfig.voxel_res)
    with _stage(stages, "calibrate") as fields:
        cam0, pnp_rms = solve_pnp_planar(obs.correspondences, obs.image_size)
        ref = refine_camera_lines(cam0, obs.line_mask, make_court_model())
        fields.update(pnp_rms_px=pnp_rms, initial_cost=ref.initial_cost,
                      final_cost=ref.final_cost, refine_iterations=ref.iterations,
                      refine_stop=ref.stop, camera=camera_to_json(ref.camera))
    with _stage(stages, "codec") as fields:
        pose2d = decode_heatmaps(obs.maps.heatmaps)
        pose3d = decode_location_maps(obs.maps.location_maps, obs.maps.heatmaps)
        fields.update(pose2d=pose2d_to_json(pose2d), pose3d=pose3d_to_json(pose3d))
    with _stage(stages, "place") as fields:
        crop_cam = ref.camera.cropped(obs.crop_origin, obs.crop_scale)
        placed, offset = place_player(crop_cam, pose2d, pose3d, obs.maps.jump)
        fields.update(offset=offset.tolist(), pose_world=pose3d_to_json(placed))
    with _stage(stages, "skin") as fields:
        fitted, info = fit_pose_to_keypoints(skeleton, pose3d)
        posed = lbs(rest_body, weights, fitted, skeleton)
        fields.update(fit_joint_residual_m=float(np.mean(info["joint_residuals"])),
                      final_cost=info["final_cost"],
                      fit_iterations=len(info["cost_history"]) - 1, fit_stop=info["stop"])
    with _stage(stages, "compose") as fields:
        body, rep = resolve_interpenetration(posed)
        fields.update(residual_collisions=rep["residual_collisions"],
                      outer_iterations=len(rep["iterations"]))
    return Reconstruction(ref.camera, pose2d, pose3d, placed, offset, fitted, body, stages)


def evaluate(recon: Reconstruction, bundle: SceneBundle) -> dict:
    """The report of ``recon``: its stage fields with the comparisons
    against the bundle's truth, and the eval stage's mesh metrics."""
    stages = dict(recon.stages)
    with _stage(stages, "calibrate") as fields:
        fields["landmark_reproj_px"] = court_landmark_reprojection(
            recon.camera, bundle.camera, bundle.court, bundle.config.image_size)
    with _stage(stages, "codec") as fields:
        fields.update(codec_errors(bundle.pose2d, bundle.pose_root, recon.pose2d, recon.pose3d))
    with _stage(stages, "place") as fields:
        j = int(np.argmin(bundle.pose_root.positions[:, 1]))
        fields["lowest_joint_err_m"] = float(np.linalg.norm(
            recon.placed.positions[j] - bundle.pose_world.positions[j]))
    with _stage(stages, "eval") as fields:
        pred = recon.body.merged()[0] + recon.offset  # to the world frame
        gt, _ = bundle.posed_body.merged()
        fields.update(mpvpe_mm=mpvpe(pred, gt),
                      mpvpe_pa_mm=mpvpe(pred, gt, procrustes=True),
                      chamfer=chamfer(pred, gt),
                      emd=emd(pred, gt, subsample=EMD_SUBSAMPLE),
                      # joint positions carry no twist about a bone and no leaf
                      # rotation: this error is a floor the fit cannot remove
                      rot_err_deg_mean=float(np.mean(rotation_error_deg(
                          recon.transforms.rotations, bundle.transforms.rotations))))
    return {"seed": bundle.seed, "stages": stages}


def run_pipeline(bundle: SceneBundle) -> dict:
    """calibrate -> codec -> place -> skin -> compose -> eval on ``bundle``.
    Raises StageError with the failing stage's tag."""
    return evaluate(reconstruct(observe(bundle)), bundle)


# ---------------------------------------------------------------------------
# Scene directory I/O (used by the CLI)
# ---------------------------------------------------------------------------

def save_scene(bundle: SceneBundle, outdir) -> None:
    """Write the scene's draws to ``outdir/scene.json``."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "scene.json"), "w") as fh:
        json.dump({
            "seed": bundle.seed,
            "image_size": list(bundle.config.image_size),
            "camera": camera_to_json(bundle.camera),
            "transforms": transforms_to_json(bundle.transforms),
            "offset": bundle.offset.tolist(),
            "jump": jump_to_json(bundle.jump),
        }, fh, indent=1)


def load_scene(scenedir) -> SceneBundle:
    """The scene that ``save_scene`` wrote to ``scenedir``; any other file or
    key there, such as an older scene's mask.pgm, rest.obj or posed.obj, or
    its crop and correspondences, is not read. A missing field of
    scene.json, or one that is not a JSON number of the right kind (the
    seed, an integer >= 0, and the frame size are integers), shape or
    finiteness, is a ValidationError naming the file and the field; a scene
    that breaks a SceneBundle invariant, such as transforms of another joint
    count than the player model's, is one naming the directory."""
    def from_json(d):
        seed = json_number(d["seed"], "scene seed", int)
        if seed < 0:
            raise ValidationError(f"scene seed must be >= 0, got {seed}")
        # JSON numbers include NaN, which would fail only later, unnamed
        offset = json_numbers(d["offset"], "scene offset").reshape(3)
        if not np.all(np.isfinite(offset)):
            raise ValidationError(f"scene offset must be finite, got {offset}")
        return SceneBundle(
            seed=seed,
            config=SceneConfig(tuple(json_numbers(d["image_size"], "scene image_size",
                                                  int).tolist())),
            camera=camera_from_json(d["camera"]),
            transforms=transforms_from_json(d["transforms"]),
            offset=offset,
            jump=jump_from_json(d["jump"]),
        )

    bundle = load_json_record(os.path.join(scenedir, "scene.json"), from_json)
    try:
        bundle.validate()
    except ValidationError as e:
        raise ValidationError(f"scene {scenedir}: {e}") from e
    return bundle
