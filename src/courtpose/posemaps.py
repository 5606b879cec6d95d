"""Heatmap / XYZ-location-map codecs: the targets a pose network regresses.

Encoding follows the training-target recipe: crop pixels divide by 4 onto a
64x64 grid, where a Gaussian of width ``SIGMA`` cells is sampled around the
joint's sub-cell centre ``p / 4 - 0.5`` (clipped to the grid's outer edges),
one factor per axis, and the location map carries the joint's root-relative
XYZ on the support of the heatmap stack it is given. Decoding takes the
per-map argmax cell (row-major first on ties), which both decoders share;
the heatmap decoder then refines it per axis as DARK does (Zhang et al.,
CVPR 2020): the log of a Gaussian of known width is a parabola of known
curvature, so two log-values fix its vertex, which is clipped into the
argmax cell. An encoded pixel decodes to itself up to rounding.

Gaussian values below 1e-8 are truncated to zero so "support" is a finite,
well-defined cell set.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import Frame, Pose2D, Pose3D, json_number

MAP_RES = 64
CELL = Pose2D.CROP_SIZE // MAP_RES  # 4 px per heatmap cell
SUPPORT_EPS = 1e-8
SIGMA = 1.0  # the Gaussian's standard deviation, in cells


@dataclass(frozen=True)
class HeatmapStack:
    values: np.ndarray              # (J, RES, RES), in [0, 1]
    clamped: np.ndarray | None = None  # joints whose pixel was clamped into the crop

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        v = self.values
        if v.ndim != 3 or v.shape[1] != v.shape[2] or v.shape[1] < 3:
            raise ValidationError("heatmaps must be (J, R, R) with R >= 3")
        if not np.all(np.isfinite(v)) or v.min() < 0 or v.max() > 1.0 + 1e-12:
            raise ValidationError("heatmap values must be finite and in [0, 1]")

    @property
    def num_joints(self) -> int:
        return self.values.shape[0]

    @property
    def resolution(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LocationMapStack:
    values: np.ndarray  # (J, 3, RES, RES), meters, root-relative XYZ

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        v = self.values
        if v.ndim != 4 or v.shape[1] != 3 or v.shape[2] != v.shape[3]:
            raise ValidationError("location maps must be (J, 3, R, R)")
        if not np.all(np.isfinite(v)):
            raise ValidationError("location map values must be finite")

    @property
    def num_joints(self) -> int:
        return self.values.shape[0]

    @property
    def resolution(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class JumpInfo:
    """Binary airborne class and jump height."""

    airborne: bool
    height: float

    JUMP_THRESHOLD = 0.1  # meters; strictly greater counts as airborne

    def __post_init__(self):
        if not np.isfinite(self.height) or self.height < 0:
            raise ValidationError("jump height must be finite and >= 0")

    @staticmethod
    def from_height(height: float) -> "JumpInfo":
        return JumpInfo(airborne=bool(height > JumpInfo.JUMP_THRESHOLD), height=float(height))


@dataclass(frozen=True)
class PoseMapTargets:
    """The triplet the pose network is supervised with."""

    heatmaps: HeatmapStack
    location_maps: LocationMapStack
    jump: JumpInfo


def encode_heatmaps(pose: Pose2D) -> HeatmapStack:
    """Per-joint 64x64 Gaussians; invisible joints map to all-zero maps.

    Visible joints outside the crop are clamped to the crop's edge and
    flagged in the returned stack's ``clamped`` array. A visible joint needs
    a finite pixel; an invisible one may carry none (NaN).
    """
    vis = pose.visibility
    bad = np.flatnonzero(vis & ~np.isfinite(pose.pixels).all(axis=1))
    if bad.size:
        j = int(bad[0])
        raise ValidationError(f"joint {j} is visible but its pixel "
                              f"{tuple(pose.pixels[j].tolist())} is not finite")
    # all joints at once; an invisible one gets a zero Gaussian per axis
    centres = np.clip(np.where(vis[:, None], pose.pixels, 0.0) / CELL - 0.5, -0.5, MAP_RES - 0.5)
    g = np.exp(-(np.arange(MAP_RES) - centres[..., None]) ** 2 / (2.0 * SIGMA * SIGMA))
    g *= vis[:, None, None]
    maps = g[:, 1, :, None] * g[:, 0, None, :]
    maps[maps < SUPPORT_EPS] = 0.0
    return HeatmapStack(maps, clamped=~pose.in_crop())


def _peak_cells(heat: HeatmapStack):
    """(rows, cols, found): each map's argmax cell, row-major first on ties,
    and whether the map has any support."""
    flat = heat.values.reshape(heat.num_joints, -1)
    peak = np.argmax(flat, axis=1)
    found = flat[np.arange(len(peak)), peak] > 0.0
    rows, cols = np.divmod(peak, heat.resolution)
    return rows, cols, found


def _vertex(lines: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per line, the vertex of the parabola through the logs of cells
    ``lo`` and ``lo + 2`` around the argmax cell ``k``, clipped into cell
    ``k``; a non-finite vertex (a zero sample) falls back to ``k``."""
    lo = np.clip(k - 1, 0, lines.shape[1] - 3)
    j = np.arange(len(k))
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = lo + 1 + SIGMA * SIGMA * (np.log(lines[j, lo + 2]) - np.log(lines[j, lo])) / 2
    return np.clip(np.where(np.isfinite(mu), mu, k), k - 0.5, k + 0.5)


def decode_heatmaps(maps: HeatmapStack) -> Pose2D:
    """Each map's sub-cell Gaussian centre in crop pixels; all-zero -> invisible."""
    rows, cols, found = _peak_cells(maps)
    j = np.arange(maps.num_joints)
    x = _vertex(maps.values[j, rows, :], cols)
    y = _vertex(maps.values[j, :, cols], rows)
    pixels = CELL * (np.stack([x, y], axis=1) + 0.5)
    return Pose2D(np.where(found[:, None], pixels, 0), found)


def encode_location_maps(pose3d: Pose3D, heat: HeatmapStack) -> LocationMapStack:
    """Write each joint's root-relative XYZ on the support of its map in
    ``heat``, the stack ``decode_location_maps`` reads it back with."""
    if pose3d.frame is not Frame.ROOT_RELATIVE:
        raise ValidationError("location maps encode root-relative poses")
    if pose3d.num_joints != heat.num_joints:
        raise ValidationError("heatmap and pose joint counts differ")
    # zeros, then the support cells alone (about 3% of them): one flat
    # scan finds them, and a 3-D np.nonzero would cost more than it saves
    J, cells = heat.num_joints, heat.resolution ** 2
    values = np.zeros((J, 3, cells))
    j, cell = np.divmod(np.flatnonzero(heat.values > 0.0), cells)
    values[j, :, cell] = pose3d.positions[j]
    return LocationMapStack(values.reshape(J, 3, heat.resolution, heat.resolution))


def decode_location_maps(loc: LocationMapStack, heat: HeatmapStack) -> Pose3D:
    """Read XYZ at each heatmap argmax; zero-support joints decode to the origin."""
    if loc.num_joints != heat.num_joints or loc.resolution != heat.resolution:
        raise ValidationError("heatmap and location stacks are not aligned")
    rows, cols, found = _peak_cells(heat)
    xyz = loc.values[np.arange(heat.num_joints), :, rows, cols]
    return Pose3D(np.where(found[:, None], xyz, 0.0), frame=Frame.ROOT_RELATIVE)


def codec_errors(pose2d: Pose2D, pose3d: Pose3D, decoded2d: Pose2D, decoded3d: Pose3D) -> dict:
    """Largest round-trip error: pixels over visible joints (0 if none), meters over all."""
    vis = pose2d.visibility
    return {"max_2d_err_px": float(np.abs(decoded2d.pixels[vis]
                                          - pose2d.pixels[vis]).max(initial=0.0)),
            "max_3d_err_m": float(np.abs(decoded3d.positions - pose3d.positions).max())}


# ---------------------------------------------------------------------------
# Binary stack format: 8-byte header (uint32 joint count, uint32 resolution)
# followed by little-endian float32 data.
# ---------------------------------------------------------------------------

def save_heatmaps(path, stack: HeatmapStack) -> None:
    _save_stack(path, stack.values, stack.num_joints, stack.resolution)


def load_heatmaps(path) -> HeatmapStack:
    data, J, R = _load_stack(path)
    if data.size != J * R * R:
        raise ValidationError("heatmap payload size does not match header")
    return HeatmapStack(data.reshape(J, R, R))


def save_location_maps(path, stack: LocationMapStack) -> None:
    _save_stack(path, stack.values, stack.num_joints, stack.resolution)


def load_location_maps(path) -> LocationMapStack:
    data, J, R = _load_stack(path)
    if data.size != J * 3 * R * R:
        raise ValidationError("location map payload size does not match header")
    return LocationMapStack(data.reshape(J, 3, R, R))


def _save_stack(path, values, joints, res) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", joints, res))
        fh.write(np.asarray(values, dtype="<f4").tobytes())


def _load_stack(path):
    try:
        with open(path, "rb") as fh:
            header = fh.read(8)
            if len(header) != 8:
                raise ValidationError(f"{path}: truncated stack header")
            J, R = struct.unpack("<II", header)
            data = np.frombuffer(fh.read(), dtype="<f4").astype(float)
    except OSError as e:
        raise ValidationError(f"cannot read stack file {path}: {e}") from e
    return data, J, R


def jump_to_json(j: JumpInfo) -> dict:
    return {"airborne": bool(j.airborne), "height": float(j.height)}


def jump_from_json(d: dict) -> JumpInfo:
    if not isinstance(d["airborne"], bool):
        raise ValidationError(f"jump airborne must be JSON true or false, got {d['airborne']!r}")
    return JumpInfo(d["airborne"], json_number(d["height"], "jump height"))
