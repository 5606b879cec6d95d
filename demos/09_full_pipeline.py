"""End to end on one synthetic scene.

Scene generation gives ground truth for every stage: the camera is recovered
from the court lines, poses round-trip through the map codec, the player is
placed on (or above) the floor from the decoded 2D pose, bone transforms are
fitted to the decoded keypoints, the capsule body is skinned and composed,
and the result is scored against the ground-truth mesh in the world frame.
"""
import json

from courtpose.synth import run_pipeline, synth_scene

bundle = synth_scene(42)
print(f"scene 42: f={bundle.camera.f:.0f} px, jump {bundle.jump.height:.2f} m "
      f"(airborne={bundle.jump.airborne}), "
      f"{bundle.posed_body.total_vertices} body vertices")

report = run_pipeline(bundle)
for name, stage in report["stages"].items():
    summary = {k: round(v, 6) if isinstance(v, float) else v
               for k, v in stage.items() if isinstance(v, (int, float))}
    print(f"  {name:10s} {json.dumps(summary)}")
