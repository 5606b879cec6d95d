"""Self-test of the benchmark's correctness accounting and host-speed scaling.

A report that misses a gate, or is corrupted, must be counted as a failed
operation; reference samples taken during an operation must not count as its
time. Runs without the library:

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gates  # noqa: E402
from run import summarize  # noqa: E402
from workloads import REF_NOMINAL_S, SPEED, Measured, Op, _scene_op  # noqa: E402


def good_report() -> dict:
    return {"seed": 5000, "stages": {
        "calibrate": {"initial_cost": 2.0, "final_cost": 1.0,
                      "landmark_reproj_px": 0.05, "seconds": 0.1},
        "codec": {"max_2d_err_px": 0.5, "max_3d_err_m": 1e-12, "seconds": 0.01},
        "place": {"lowest_joint_err_m": 1e-14, "seconds": 0.001},
        "skin": {"fit_joint_residual_m": 0.001, "seconds": 2.0},
        "compose": {"residual_collisions": 0, "outer_iterations": 1, "seconds": 2.0},
        "eval": {"mpvpe_mm": 4.8, "seconds": 0.04},
    }}


def corruptions():
    """(label, corrupted report) pairs, each missing at least one gate."""
    def edit(path, value):
        rep = copy.deepcopy(good_report())
        node = rep
        for key in path[:-1]:
            node = node[key]
        if value is KeyError:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return rep
    yield "calibration cost rose", edit(("stages", "calibrate", "final_cost"), 3.0)
    yield "landmark reprojection", edit(("stages", "calibrate", "landmark_reproj_px"), 0.7)
    yield "codec 2d", edit(("stages", "codec", "max_2d_err_px"), 2.5)
    yield "codec 3d", edit(("stages", "codec", "max_3d_err_m"), 1e-6)
    yield "placement", edit(("stages", "place", "lowest_joint_err_m"), 0.01)
    yield "residual collisions", edit(("stages", "compose", "residual_collisions"), 3)
    yield "mpvpe nan", edit(("stages", "eval", "mpvpe_mm"), float("nan"))
    yield "stage missing", edit(("stages", "eval"), KeyError)
    yield "field missing", edit(("stages", "codec", "max_3d_err_m"), KeyError)
    yield "wrong type", edit(("stages", "place", "lowest_joint_err_m"), "0")
    yield "no stages", edit(("stages",), KeyError)
    yield "not a dict", ["stages"]
    yield "null", None


def test_good_report_passes():
    assert gates.scene_failures(good_report()) == []
    op = _scene_op(1.0, good_report())
    assert not op.failures and op.accuracy == 4.8


def test_corrupted_reports_count_as_failures():
    for label, rep in corruptions():
        assert gates.scene_failures(rep), label
        ops = [_scene_op(1.0, good_report()), _scene_op(1.0, rep)]
        sm = summarize(Measured(ops, 2.0, 0.0))
        assert (sm["attempted"], sm["failed"]) == (2, 1), label


def test_frame_and_step_gates():
    assert gates.frame_failures(0.1, 1.0, 2.0) == []
    assert gates.frame_failures(0.6, 1.0, 2.0)
    assert gates.frame_failures(float("nan"), 1.0, 2.0)
    assert gates.frame_failures(0.1, 3.0, 2.0)
    assert gates.step_failures([1.0, 0.5]) == []
    assert gates.step_failures([1.0, float("inf")])
    assert gates.step_failures([])
    op = Op(1.0, units=8, failures=gates.step_failures([float("nan")]))
    sm = summarize(Measured([op], 1.0, 0.0))
    assert (sm["attempted"], sm["failed"]) == (8, 8)


def test_host_speed_samples_are_not_op_time():
    def busy():
        t0 = perf_counter()
        while perf_counter() - t0 < 0.6:
            pass
        return "done"
    out, dt, ref = SPEED.timed(busy)
    assert out == "done" and ref is None and dt >= 0.6
    with SPEED.sampling():
        out, dt, ref = SPEED.timed(busy)
    # the loop ends 0.6 s after it starts, samples included; about four
    # samples fall inside it and are taken out
    assert out == "done" and ref > 0
    assert 0.6 - 8 * ref < dt < 0.6, (dt, ref)
    op = Op(dt, units=2, ref=ref)
    assert op.norm_seconds == dt * REF_NOMINAL_S / ref
    assert Op(dt).norm_seconds == dt


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
    print(f"{len(tests)} self-tests passed")
