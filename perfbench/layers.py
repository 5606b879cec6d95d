"""Which library functions the traced run wraps, and the per-layer metrics
it reduces the spans to.

Span names are ``<module>.<function>`` with the module that defines the
function, so self time groups by layer. Each function is wrapped at every
module attribute its callers look up.
"""
from __future__ import annotations

import numpy as np

# run_pipeline stage -> the module that does the work
STAGE_MODULES = {"calibrate": "calibrate", "codec": "posemaps",
                 "place": "placement", "skin": "skinning",
                 "compose": "composer", "eval": "metrics"}
SELF_MODULES = ("synth", "calibrate", "posemaps", "placement", "skinning",
                "collision", "composer", "metrics", "meshnet")


def _record(key, fn):
    def on_return(tracer, args, kwargs, out):
        if tracer.op is not None:
            for k, v in zip(key, fn(args, out)):
                tracer.values[k].append(v)
    return on_return


def _fit_info(args, out):
    info = out[1]
    return len(info["cost_history"]), 1000.0 * float(np.mean(info["joint_residuals"]))


def _collision_info(args, out):
    body, garment = args[0], args[1]
    return body.num_vertices * garment.num_faces, out.count, body.num_vertices


def _compose_info(args, out):
    rep = out[1]
    return len(rep["iterations"]), rep["residual_collisions"]


def instrument(tracer) -> None:
    from courtpose import calibrate, composer, skinning, synth, toydata
    from courtpose.meshnet import autograd, network, training
    from courtpose.meshnet.network import PartOps

    refine = _record(("calibrate.refine_iterations",), lambda a, out: (out.iterations,))
    fit = _record(("skinning.fit_iterations", "skinning.fit_residual_mm"), _fit_info)
    spans = [
        (synth, "synth_scene", "synth.synth_scene", None),
        (synth, "run_pipeline", "synth.run_pipeline", None),
        (synth, "canonical_body", "synth.canonical_body", None),
        (toydata, "canonical_body", "synth.canonical_body", None),
        (synth, "heat_diffusion_weights", "skinning.heat_diffusion_weights", None),
        (synth, "solve_pnp_planar", "calibrate.solve_pnp_planar", None),
        (calibrate, "solve_pnp_planar", "calibrate.solve_pnp_planar", None),
        (synth, "refine_camera_lines", "calibrate.refine_camera_lines", refine),
        (calibrate, "refine_camera_lines", "calibrate.refine_camera_lines", refine),
        (synth, "encode_heatmaps", "posemaps.encode_heatmaps", None),
        (synth, "encode_location_maps", "posemaps.encode_location_maps", None),
        (synth, "decode_heatmaps", "posemaps.decode_heatmaps", None),
        (synth, "decode_location_maps", "posemaps.decode_location_maps", None),
        (synth, "place_player", "placement.place_player", None),
        (synth, "fit_pose_to_keypoints", "skinning.fit_pose_to_keypoints", fit),
        (synth, "lbs", "skinning.lbs", None),
        (toydata, "lbs", "skinning.lbs", None),
        (synth, "resolve_interpenetration", "composer.resolve_interpenetration",
         _record(("composer.outer_iterations", "composer.residual_collisions"),
                 _compose_info)),
        (composer, "detect_collisions", "collision.detect_collisions",
         _record(("collision.point_face_pairs", "collision.hits",
                  "collision.vertices"), _collision_info)),
        (composer, "minimize_lbfgs", "composer.minimize_lbfgs", None),
        (composer, "penetration_loss", "composer.penetration_loss", None),
        (synth, "mpvpe", "metrics.mpvpe", None),
        (synth, "chamfer", "metrics.chamfer", None),
        (synth, "emd", "metrics.emd", None),
        (PartOps, "build", "meshnet.partops_build", None),
        (network, "build_sampling", "meshnet.build_sampling", None),
        (network, "build_spirals", "meshnet.build_spirals", None),
        (training, "train_toy", "meshnet.train_toy", None),
        (training, "tl_training_forward", "meshnet.forward", None),
        (training, "eval_mesh_term", "meshnet.eval_mesh_term", None),
        (autograd, "backward", "meshnet.backward", None),
    ]
    for owner, attr, name, on_return in spans:
        tracer.span(owner, attr, name, on_return)
    for owner in (skinning, calibrate):
        tracer.count(owner, "axis_angle_to_matrix", "transforms.axis_angle_to_matrix")


# Per-layer metrics: name -> unit. Seconds are inclusive and per unit of
# work (scene, frame or training step) unless the function runs only in
# set-up or checks (SETUP_TOTALS), where they are the run's total.
PER_LAYER = {
    "synth.synth_scene_s": "s",
    "synth.canonical_body_s": "s",
    "calibrate.solve_pnp_planar_s": "s",
    "calibrate.refine_camera_lines_s": "s",
    "calibrate.refine_iterations": "count",
    "posemaps.encode_s": "s",
    "posemaps.decode_s": "s",
    "placement.place_player_s": "s",
    "skinning.fit_pose_to_keypoints_s": "s",
    "skinning.fit_iterations": "count",
    "skinning.fit_residual_mm_mean": "mm",
    "skinning.lbs_s": "s",
    "skinning.heat_diffusion_weights_s": "s",
    "transforms.axis_angle_to_matrix_calls": "count",
    "collision.detect_collisions_s": "s",
    "collision.detect_calls": "count",
    "collision.point_face_pairs": "count",
    "collision.hit_frac": "frac",
    "composer.resolve_interpenetration_s": "s",
    "composer.outer_iterations": "count",
    "composer.minimize_lbfgs_s": "s",
    "composer.penetration_loss_evals": "count",
    "composer.penetration_loss_s": "s",
    "composer.residual_collisions": "count",
    "metrics.mpvpe_s": "s",
    "metrics.chamfer_s": "s",
    "metrics.emd_s": "s",
    "meshnet.partops_build_s": "s",
    "meshnet.build_sampling_s": "s",
    "meshnet.build_spirals_s": "s",
    "meshnet.forward_s": "s",
    "meshnet.backward_s": "s",
    "meshnet.eval_mesh_term_s": "s",
    "cli.worker_busy_frac": "frac",
    "mpvpe_mm_mean": "mm",
    "landmark_reproj_px_mean": "px",
    "mesh_term_final": "1",
    "process.peak_rss_mb": "MB",
    "trace.overhead_frac": "frac",
    "trace.spans_per_unit": "count",
    **{f"{m}.self_s": "s" for m in SELF_MODULES},
    **{f"{m}.stage_s": "s" for m in STAGE_MODULES.values()},
}

# metric -> span names whose inclusive seconds it sums
SPAN_SECONDS = {
    "synth.synth_scene_s": ["synth.synth_scene"],
    "synth.canonical_body_s": ["synth.canonical_body"],
    "calibrate.solve_pnp_planar_s": ["calibrate.solve_pnp_planar"],
    "calibrate.refine_camera_lines_s": ["calibrate.refine_camera_lines"],
    "posemaps.encode_s": ["posemaps.encode_heatmaps", "posemaps.encode_location_maps"],
    "posemaps.decode_s": ["posemaps.decode_heatmaps", "posemaps.decode_location_maps"],
    "placement.place_player_s": ["placement.place_player"],
    "skinning.fit_pose_to_keypoints_s": ["skinning.fit_pose_to_keypoints"],
    "skinning.lbs_s": ["skinning.lbs"],
    "skinning.heat_diffusion_weights_s": ["skinning.heat_diffusion_weights"],
    "collision.detect_collisions_s": ["collision.detect_collisions"],
    "composer.resolve_interpenetration_s": ["composer.resolve_interpenetration"],
    "composer.minimize_lbfgs_s": ["composer.minimize_lbfgs"],
    "composer.penetration_loss_s": ["composer.penetration_loss"],
    "metrics.mpvpe_s": ["metrics.mpvpe"],
    "metrics.chamfer_s": ["metrics.chamfer"],
    "metrics.emd_s": ["metrics.emd"],
    "meshnet.partops_build_s": ["meshnet.partops_build"],
    "meshnet.build_sampling_s": ["meshnet.build_sampling"],
    "meshnet.build_spirals_s": ["meshnet.build_spirals"],
    "meshnet.forward_s": ["meshnet.forward"],
    "meshnet.backward_s": ["meshnet.backward"],
    "meshnet.eval_mesh_term_s": ["meshnet.eval_mesh_term"],
}
SETUP_TOTALS = {"synth.canonical_body_s", "skinning.heat_diffusion_weights_s",
                "meshnet.partops_build_s", "meshnet.build_sampling_s",
                "meshnet.build_spirals_s", "meshnet.eval_mesh_term_s"}


def _mean(xs):
    return float(np.mean(xs)) if xs else 0.0


def traced_metrics(tracer, units: int) -> dict:
    """Per-layer metrics from a traced pass that did ``units`` of work."""
    out = {name: 0.0 for name in PER_LAYER}
    for name, span_names in SPAN_SECONDS.items():
        out[name] = tracer.inclusive(span_names, None if name in SETUP_TOTALS else units)
    for module, secs in tracer.self_by_module(units).items():
        if f"{module}.self_s" in out:
            out[f"{module}.self_s"] = secs
    v = tracer.values
    out["calibrate.refine_iterations"] = _mean(v["calibrate.refine_iterations"])
    out["skinning.fit_iterations"] = _mean(v["skinning.fit_iterations"])
    out["skinning.fit_residual_mm_mean"] = _mean(v["skinning.fit_residual_mm"])
    out["transforms.axis_angle_to_matrix_calls"] = (
        tracer.counts["transforms.axis_angle_to_matrix"] / units)
    out["collision.detect_calls"] = len(v["collision.vertices"]) / units
    out["collision.point_face_pairs"] = sum(v["collision.point_face_pairs"]) / units
    if v["collision.vertices"]:
        out["collision.hit_frac"] = sum(v["collision.hits"]) / sum(v["collision.vertices"])
    out["composer.outer_iterations"] = _mean(v["composer.outer_iterations"])
    out["composer.residual_collisions"] = _mean(v["composer.residual_collisions"])
    out["composer.penetration_loss_evals"] = sum(
        1 for s in tracer.spans
        if s[0] == "composer.penetration_loss" and s[4] is not None) / units
    out["trace.spans_per_unit"] = sum(1 for s in tracer.spans if s[4] is not None) / units
    return out


def stage_metrics(ops) -> dict:
    """Mean run_pipeline stage seconds per scene, by module."""
    staged = [o.stages for o in ops if o.stages]
    return {f"{STAGE_MODULES[k]}.stage_s": _mean([s.get(k, 0.0) for s in staged])
            for k in STAGE_MODULES}
