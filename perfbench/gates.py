"""Correctness gates applied to every operation the benchmark times.

Scene gates mirror acceptance criterion 9 (tests/test_acceptance.py) plus
zero residual collisions after composition. An operation that raises or
misses any gate counts as failed.
"""
from __future__ import annotations

import math

STAGES = {"calibrate", "codec", "place", "skin", "compose", "eval"}
LANDMARK_PX = 0.5
CODEC_2D_PX = 2.0
CODEC_3D_M = 1e-9
PLACE_M = 1e-3


def scene_failures(report) -> list:
    """Names of the gates a ``run_pipeline`` report misses (empty: passed)."""
    try:
        st = report["stages"]
        if set(st) != STAGES:
            return [f"stages {sorted(st)}"]
        checks = {
            "calibration cost rose":
                st["calibrate"]["final_cost"] <= st["calibrate"]["initial_cost"],
            "landmark reprojection":
                st["calibrate"]["landmark_reproj_px"] < LANDMARK_PX,
            "codec 2d": st["codec"]["max_2d_err_px"] <= CODEC_2D_PX,
            "codec 3d": st["codec"]["max_3d_err_m"] <= CODEC_3D_M,
            "placement": st["place"]["lowest_joint_err_m"] < PLACE_M,
            "residual collisions": st["compose"]["residual_collisions"] == 0,
            "mpvpe finite": math.isfinite(st["eval"]["mpvpe_mm"]),
        }
    except (KeyError, TypeError) as e:
        return [f"malformed report: {e!r}"]
    return [name for name, ok in checks.items() if not ok]


def frame_failures(landmark_reproj_px: float, final_cost: float,
                   initial_cost: float) -> list:
    """Gates for one calibrate_noisy frame."""
    out = []
    if not landmark_reproj_px < LANDMARK_PX:
        out.append("landmark reprojection")
    if not final_cost <= initial_cost:
        out.append("calibration cost rose")
    return out


def step_failures(losses) -> list:
    """Gates for one train_toy call: every recorded loss is finite."""
    if not losses or not all(math.isfinite(x) for x in losses):
        return ["non-finite or missing training loss"]
    return []
