"""Articulated body model: skeleton, poses, per-bone transforms, forward kinematics.

Conventions
-----------
* 35 joints; the canonical naming lives in ``data/skeleton_v1.json``.
* Rest offsets are stored in the parent joint's frame, meters, y up.
* A per-joint local transform (R, t) maps child coordinates into the parent
  frame as ``x_parent = R @ x_child + offset + t``; forward kinematics
  composes these down the tree, one depth level at a time. ``Skeleton``
  groups its joints by depth when it checks the tree, and the same loop
  serves ``fk_global`` and the keypoint fit in ``skinning``.
* Root-relative poses have the pelvis at the origin.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ValidationError
from .transforms import rotation_defect

NUM_JOINTS = 35


class Frame(enum.Enum):
    ROOT_RELATIVE = "root_relative"
    WORLD = "world"


@dataclass(frozen=True)
class Skeleton:
    """Joint tree with rest offsets (one 3-vector per joint, parent frame).

    The root (pelvis) must sit at index 0. The full-body rig has NUM_JOINTS
    joints (see ``Skeleton.canonical``); smaller rigs are allowed for toy
    bodies and focused tests.
    """

    joint_names: tuple
    parent: np.ndarray        # (J,) int, -1 for the root
    rest_offsets: np.ndarray  # (J, 3) float, meters

    def __post_init__(self):
        object.__setattr__(self, "joint_names", tuple(self.joint_names))
        object.__setattr__(self, "parent", np.asarray(self.parent, dtype=int))
        object.__setattr__(self, "rest_offsets", np.asarray(self.rest_offsets, dtype=float))
        J = len(self.joint_names)
        if J < 1:
            raise ValidationError("skeleton needs at least one joint")
        if self.parent.shape != (J,) or self.rest_offsets.shape != (J, 3):
            raise ValidationError("parent/rest_offsets shapes do not match joint count")
        if not np.all(np.isfinite(self.rest_offsets)):
            raise ValidationError("rest offsets must be finite")
        if np.count_nonzero(self.parent < 0) != 1 or self.parent[0] != -1:
            raise ValidationError("skeleton must have exactly one root, at index 0")
        # tree check: every joint must reach the root in fewer than J steps;
        # the step count is the joint's depth
        depth = np.zeros(J, dtype=int)
        for j in range(J):
            k = j
            while self.parent[k] >= 0:
                k = int(self.parent[k])
                if not 0 <= k < J:
                    raise ValidationError("parent index out of range")
                depth[j] += 1
                if depth[j] >= J:
                    raise ValidationError("parent graph has a cycle")
        # joints below the root, grouped by depth: FK composes one group at a time
        object.__setattr__(self, "_levels", tuple(
            np.nonzero(depth == d)[0] for d in range(1, depth.max() + 1)))
        # world-frame joints of the rest pose (identity rotations), shared by
        # rest_pose, the rest body, its skinning weights and lbs
        _, rest = _fk_levels(self, np.broadcast_to(np.eye(3), (J, 3, 3)), self.rest_offsets)
        rest.flags.writeable = False
        object.__setattr__(self, "_rest_world", rest)

    root = 0

    @property
    def num_joints(self) -> int:
        return len(self.joint_names)

    def index(self, name: str) -> int:
        try:
            return self.joint_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown joint name {name!r}") from None

    def bone_edges(self) -> list:
        """(parent, child) pairs, one per non-root joint, child order."""
        return [(int(self.parent[j]), j) for j in range(self.num_joints) if self.parent[j] >= 0]

    def children(self, j: int) -> list:
        return [int(c) for c in np.nonzero(self.parent == j)[0]]

    @staticmethod
    def canonical() -> "Skeleton":
        raw = json.loads(resources.files("courtpose.data").joinpath("skeleton_v1.json").read_text())
        skel = skeleton_from_json(raw)
        assert skel.num_joints == NUM_JOINTS
        return skel


def lsp14_indices(skeleton: Skeleton) -> np.ndarray:
    """Indices of the 14 LSP evaluation joints (versioned mapping file)."""
    raw = json.loads(resources.files("courtpose.data").joinpath("lsp14_v1.json").read_text())
    return np.array([skeleton.index(name) for name in raw["joints"]], dtype=int)


@dataclass(frozen=True)
class BoneTransforms:
    """Per-joint rigid transforms (rotation + translation, meters)."""

    rotations: np.ndarray     # (J, 3, 3)
    translations: np.ndarray  # (J, 3)

    def __post_init__(self):
        object.__setattr__(self, "rotations", np.asarray(self.rotations, dtype=float))
        object.__setattr__(self, "translations", np.asarray(self.translations, dtype=float))
        if self.rotations.ndim != 3 or self.rotations.shape[1:] != (3, 3):
            raise ValidationError("rotations must be (J, 3, 3)")
        if self.translations.shape != (self.rotations.shape[0], 3):
            raise ValidationError("translations must be (J, 3)")
        d = rotation_defect(self.rotations)
        bad = np.flatnonzero(~np.isfinite(d) | (d > 1e-9))
        if bad.size:
            raise ValidationError(
                f"rotation {bad[0]} not orthonormal within 1e-9 (defect {d[bad[0]]:.3g})")

    @property
    def num_joints(self) -> int:
        return self.rotations.shape[0]

    @staticmethod
    def identity(num_joints: int = NUM_JOINTS) -> "BoneTransforms":
        return BoneTransforms(
            rotations=np.broadcast_to(np.eye(3), (num_joints, 3, 3)).copy(),
            translations=np.zeros((num_joints, 3)),
        )


@dataclass(frozen=True)
class Pose3D:
    positions: np.ndarray  # (J, 3), meters
    frame: Frame = Frame.ROOT_RELATIVE

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        if isinstance(self.frame, str):
            object.__setattr__(self, "frame", Frame(self.frame))
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValidationError("positions must be (J, 3)")
        if not np.all(np.isfinite(self.positions)):
            raise ValidationError("pose positions must be finite")
        if self.frame is Frame.ROOT_RELATIVE and np.abs(self.positions[0]).max() > 1e-9:
            raise ValidationError("root-relative pose must have the pelvis at the origin")

    @property
    def num_joints(self) -> int:
        return self.positions.shape[0]

    def translated(self, offset) -> "Pose3D":
        return Pose3D(self.positions + np.asarray(offset, dtype=float), frame=Frame.WORLD)


@dataclass(frozen=True)
class Pose2D:
    """Joint pixels in a 256x256 person crop; invisible joints carry no pixel."""

    pixels: np.ndarray      # (J, 2), crop pixels
    visibility: np.ndarray  # (J,) bool

    CROP_SIZE = 256

    def __post_init__(self):
        object.__setattr__(self, "pixels", np.asarray(self.pixels, dtype=float))
        object.__setattr__(self, "visibility", np.asarray(self.visibility, dtype=bool))
        if self.pixels.ndim != 2 or self.pixels.shape[1] != 2:
            raise ValidationError("pixels must be (J, 2)")
        if self.visibility.shape != (self.pixels.shape[0],):
            raise ValidationError("visibility must be (J,)")

    @property
    def num_joints(self) -> int:
        return self.pixels.shape[0]

    def in_crop(self) -> np.ndarray:
        ok = (self.pixels >= 0.0).all(axis=1) & (self.pixels < self.CROP_SIZE).all(axis=1)
        return ok | ~self.visibility


def fk_global(skeleton: Skeleton, transforms: BoneTransforms):
    """Global joint rotations and world positions from local bone transforms.

    Returns (R_glob (J,3,3), pos_world (J,3)). The world position of a joint is
    the composition of all ancestor transforms applied to its rest offset.
    """
    J = skeleton.num_joints
    if transforms.num_joints != J:
        raise ValidationError(
            f"transform count {transforms.num_joints} does not match joint count {J}")
    bad = np.flatnonzero(rotation_defect(transforms.rotations) > 1e-6)
    if bad.size:
        raise ValidationError(f"rotation {bad[0]} not orthonormal within 1e-6")
    return _fk_levels(skeleton, transforms.rotations,
                      skeleton.rest_offsets + transforms.translations)


def _fk_levels(skeleton: Skeleton, rotations: np.ndarray, offsets: np.ndarray):
    """Forward kinematics without validation: global rotations (J, 3, 3) and
    positions (J, 3) from local rotations and parent-frame offsets (J, 3),
    composed one depth level at a time."""
    R_glob = np.empty_like(rotations)
    pos = np.empty_like(offsets)
    R_glob[0] = rotations[0]
    pos[0] = offsets[0]
    for idx in skeleton._levels:
        par = skeleton.parent[idx]
        R_glob[idx] = R_glob[par] @ rotations[idx]
        pos[idx] = (R_glob[par] @ offsets[idx, :, None])[:, :, 0] + pos[par]
    return R_glob, pos


def forward_kinematics(skeleton: Skeleton, transforms: BoneTransforms,
                       frame: Frame = Frame.ROOT_RELATIVE) -> Pose3D:
    """Joint positions from per-bone transforms, in the requested frame."""
    _, pos = fk_global(skeleton, transforms)
    if frame is Frame.ROOT_RELATIVE:
        return Pose3D(pos - pos[skeleton.root], frame=Frame.ROOT_RELATIVE)
    return Pose3D(pos, frame=Frame.WORLD)


def rest_pose(skeleton: Skeleton, frame: Frame = Frame.ROOT_RELATIVE) -> Pose3D:
    """Joint positions under identity bone transforms, in the requested frame."""
    pos = skeleton._rest_world
    if frame is Frame.ROOT_RELATIVE:
        return Pose3D(pos - pos[skeleton.root], frame=Frame.ROOT_RELATIVE)
    return Pose3D(pos, frame=Frame.WORLD)


def bone_lengths(pose: Pose3D, edges) -> np.ndarray:
    """Euclidean length of each (i, j) joint pair, order preserving."""
    edges = np.asarray(edges, dtype=int)
    if edges.size == 0:
        return np.zeros(0)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError("edges must be a list of joint index pairs")
    J = pose.num_joints
    if edges.size and (edges.min() < 0 or edges.max() >= J):
        raise ValidationError("edge index out of range")
    diff = pose.positions[edges[:, 0]] - pose.positions[edges[:, 1]]
    return np.linalg.norm(diff, axis=1)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def load_json_record(path, from_json):
    """Read the JSON record in ``path`` and decode it with ``from_json``. An
    unreadable file, invalid JSON, or a record with missing keys, bad shapes
    or values that ``from_json`` rejects is a ValidationError naming the
    file."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path} is not valid JSON: {e}") from e
    try:
        return from_json(record)
    except ValidationError as e:
        raise ValidationError(f"{path} is not a valid record: {e}") from e
    except (LookupError, TypeError, ValueError) as e:
        raise ValidationError(f"{path} is not a valid record: {e!r}") from e


def json_number(value, what: str, kind=float):
    """``value`` as a ``kind``, float or int, when it is a JSON number (an
    integer for int). Anything else is a ValidationError naming ``what``:
    ``float`` and numpy would read the JSON true as 1 and "3" as 3."""
    integer = kind is int
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValidationError(f"{what} must be a JSON {'integer' if integer else 'number'}, "
                              f"got {value!r}")
    return kind(value)


def json_numbers(values, what: str, kind=float) -> np.ndarray:
    """A ``kind`` array of ``values``, JSON numbers in lists nested to any
    depth, each of them checked by ``json_number``."""
    def check(v):
        if isinstance(v, list):
            for x in v:
                check(x)
        else:
            json_number(v, what, kind)

    check(values)
    return np.asarray(values, dtype=kind)


def skeleton_to_json(s: Skeleton) -> dict:
    return {
        "version": 1,
        "joints": [
            {"name": n, "parent": int(p), "offset": o.tolist()}
            for n, p, o in zip(s.joint_names, s.parent, s.rest_offsets)
        ],
    }


def skeleton_from_json(d: dict) -> Skeleton:
    joints = d["joints"]
    return Skeleton(
        joint_names=[j["name"] for j in joints],
        parent=json_numbers([j["parent"] for j in joints], "skeleton parent", int),
        rest_offsets=json_numbers([j["offset"] for j in joints], "skeleton offset"),
    )


def pose3d_to_json(p: Pose3D) -> dict:
    return {"frame": p.frame.value, "positions": p.positions.tolist()}


def pose3d_from_json(d: dict) -> Pose3D:
    return Pose3D(json_numbers(d["positions"], "pose3d positions"), frame=Frame(d["frame"]))


def pose2d_to_json(p: Pose2D) -> dict:
    return {"pixels": p.pixels.tolist(), "visibility": p.visibility.tolist()}


def pose2d_from_json(d: dict) -> Pose2D:
    vis = d["visibility"]
    if not (isinstance(vis, list) and all(isinstance(v, bool) for v in vis)):
        raise ValidationError(f"pose2d visibility must be a list of JSON booleans, got {vis!r}")
    return Pose2D(json_numbers(d["pixels"], "pose2d pixels"), np.asarray(vis, dtype=bool))


def transforms_to_json(t: BoneTransforms) -> dict:
    return {
        "rotations": [R.reshape(9).tolist() for R in t.rotations],
        "translations": t.translations.tolist(),
    }


def transforms_from_json(d: dict) -> BoneTransforms:
    R = json_numbers(d["rotations"], "transform rotations").reshape(-1, 3, 3)
    return BoneTransforms(R, json_numbers(d["translations"], "transform translations"))
