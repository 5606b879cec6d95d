"""Every accuracy field of ``run_pipeline`` on scenes 5000-5007 is pinned.

``data/pipeline_reports_5000_5007.json`` holds each scene's report with the
stage ``seconds`` removed, one scene per line. A speed-up must leave these
fields unchanged: ints, bools and strings must match exactly, floats to
1e-9 relative. Values at rounding level (a 3e-13 px landmark reprojection,
a 1e-16 rotation entry) carry an absolute floor of 1e-12, because their
last digits belong to the BLAS build, not to the algorithm.

Regenerate it only with a change that means to move accuracy, and say so:

    PYTHONPATH=src python tests/test_accuracy_pin.py
"""
import json
import math
from pathlib import Path

import pytest

from courtpose.synth import run_pipeline, synth_scene

PINNED = Path(__file__).resolve().parent / "data" / "pipeline_reports_5000_5007.json"
SEEDS = range(5000, 5008)
REL = 1e-9
ABS_FLOOR = 1e-12


def accuracy_fields(report: dict) -> dict:
    """The report without the stages' ``seconds``, as plain JSON values."""
    report = json.loads(json.dumps(report))
    for fields in report["stages"].values():
        del fields["seconds"]
    return report


def mismatches(got, want, path="report"):
    """Paths where ``got`` differs from ``want`` beyond the pinned tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if isinstance(got, float) and math.isclose(got, want, rel_tol=REL,
                                                   abs_tol=ABS_FLOOR):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    # ints, bools, strings and None: exact, type included
    if type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pinned_file_covers_the_bench_scenes(pinned):
    assert sorted(pinned) == [str(s) for s in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_accuracy_fields_match_pinned(pinned, seed):
    got = accuracy_fields(run_pipeline(synth_scene(seed)))
    assert mismatches(got, pinned[str(seed)]) == []


def test_comparison_catches_small_changes(pinned):
    want = pinned["5000"]
    skin = want["stages"]["skin"]
    assert mismatches(want, want) == []
    moved = json.loads(json.dumps(want))
    moved["stages"]["eval"]["mpvpe_mm"] *= 1 + 1e-8
    moved["stages"]["skin"]["fit_iterations"] = skin["fit_iterations"] + 1
    moved["stages"]["skin"]["fit_stop"] = "max_iters"
    moved["stages"]["calibrate"]["refine_iterations"] = 1.0  # int -> float
    assert [m.split(":")[0] for m in mismatches(moved, want)] == [
        "report.stages.calibrate.refine_iterations",
        "report.stages.eval.mpvpe_mm",
        "report.stages.skin.fit_iterations",
        "report.stages.skin.fit_stop",
    ]


if __name__ == "__main__":
    reports = {str(s): accuracy_fields(run_pipeline(synth_scene(s))) for s in SEEDS}
    PINNED.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in reports.items())
        + "\n}\n")
