"""courtpose: geometry, optimization and evaluation toolkit for
court-calibrated single-image basketball player reconstruction."""

from .errors import (BehindCameraError, CourtposeError, DegenerateGeometryError,
                     NumericalError, StageError, ValidationError)
from .model import (BoneTransforms, Frame, Pose2D, Pose3D, Skeleton,
                    bone_lengths, forward_kinematics, fk_global, lsp14_indices,
                    rest_pose)
from .mesh import (BodyMesh, PART_NAMES, PartMesh, load_obj, mesh_edges,
                   save_obj, uniform_laplacian, vertex_normals)
from .camera import Camera, pixel_ray, project
from .court import CourtModel, make_court_model
from .calibrate import (LineMask, load_pgm, rasterize_court_lines,
                        refine_camera_lines, save_pgm, solve_pnp_planar)
from .posemaps import (HeatmapStack, JumpInfo, LocationMapStack,
                       PoseMapTargets, decode_heatmaps, decode_location_maps,
                       encode_heatmaps, encode_location_maps)
from .placement import lowest_joint, place_player, solve_depth_for_height
from .skinning import (SkinningWeights, fit_pose_to_keypoints,
                       heat_diffusion_weights, lbs, swing_ik)
from .collision import CollisionReport, FaceTable, detect_collisions
from .composer import penetration_loss, resolve_interpenetration
from .metrics import (ICPResult, ProcrustesResult, chamfer, emd, icp, mpjpe,
                      mpvpe, procrustes_align, rotation_error_deg)
from .synth import SceneBundle, SceneConfig, run_pipeline, synth_scene

__version__ = "0.1.0"

__all__ = [
    "BehindCameraError", "CourtposeError", "DegenerateGeometryError",
    "NumericalError", "StageError", "ValidationError",
    "BoneTransforms", "Frame", "Pose2D", "Pose3D", "Skeleton",
    "bone_lengths", "forward_kinematics", "fk_global", "lsp14_indices", "rest_pose",
    "BodyMesh", "PART_NAMES", "PartMesh", "load_obj", "mesh_edges", "save_obj",
    "uniform_laplacian", "vertex_normals",
    "Camera", "pixel_ray", "project",
    "CourtModel", "make_court_model",
    "LineMask", "load_pgm", "rasterize_court_lines", "refine_camera_lines",
    "save_pgm", "solve_pnp_planar",
    "HeatmapStack", "JumpInfo", "LocationMapStack", "PoseMapTargets",
    "decode_heatmaps", "decode_location_maps", "encode_heatmaps",
    "encode_location_maps",
    "lowest_joint", "place_player", "solve_depth_for_height",
    "SkinningWeights", "fit_pose_to_keypoints",
    "heat_diffusion_weights", "lbs", "swing_ik",
    "CollisionReport", "FaceTable", "detect_collisions",
    "penetration_loss", "resolve_interpenetration",
    "ICPResult", "ProcrustesResult", "chamfer", "emd", "icp", "mpjpe", "mpvpe",
    "procrustes_align", "rotation_error_deg",
    "SceneBundle", "SceneConfig", "run_pipeline", "synth_scene",
]
