import numpy as np
import pytest

from courtpose import calibrate, lsq, skinning
from courtpose.calibrate import rasterize_court_lines, refine_camera_lines
from courtpose.camera import Camera
from courtpose.court import make_court_model
from courtpose.errors import NumericalError
from courtpose.model import BoneTransforms, Skeleton, forward_kinematics
from courtpose.skinning import KeypointObjective, fit_pose_to_keypoints
from courtpose.transforms import axis_angle_to_matrix, look_at_rotation
from helpers import random_rotation

A = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 3.0],
              [0.5, -1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, -1.0]])
B = np.array([1.0, -2.0, 0.5, 3.0, 0.0, 1.0])
P0 = np.array([5.0, -3.0, 2.0])
SOLVER = dict(lam=1e-4, lam_min=1e-12, tries=4, max_iters=50)


@pytest.fixture
def three_rejects(monkeypatch):
    """The SOLVER runs stall after 3 empty sweeps in a row."""
    monkeypatch.setattr(lsq, "MAX_REJECTS", 3)


def linear(p):
    return A @ p - B, A


def linear_cost(p):
    r = A @ p - B
    return float(r @ r)


def uphill(residual_jacobian):
    def flipped(p):
        r, J = residual_jacobian(p)
        return r, -J
    return flipped


@pytest.mark.usefixtures("three_rejects")
def test_linear_problem_converges():
    p, rec = lsq.lm_solve(linear, linear_cost, P0, tol=1e-12, **SOLVER)
    assert rec.stop == "converged"
    assert np.abs(p - np.linalg.lstsq(A, B, rcond=None)[0]).max() < 1e-9
    assert rec.iterations == rec.accepted + rec.rejected == len(rec.cost_history) - 1
    hist = rec.cost_history
    assert hist[0] == linear_cost(P0) and hist[-1] == linear_cost(p)
    assert all(b <= a for a, b in zip(hist, hist[1:]))


@pytest.mark.usefixtures("three_rejects")
def test_uphill_jacobian_stalls_and_keeps_the_start():
    p, rec = lsq.lm_solve(uphill(linear), linear_cost, P0, **SOLVER)
    assert rec.stop == "stalled"
    assert np.array_equal(p, P0)
    assert (rec.iterations, rec.accepted, rec.rejected) == (3, 0, 3)
    assert rec.cost_history == [linear_cost(P0)] * 4


@pytest.mark.usefixtures("three_rejects")
def test_non_finite_trial_cost_raises():
    def cost(p):
        return linear_cost(p) if np.array_equal(p, P0) else np.nan

    with pytest.raises(NumericalError, match="non-finite"):
        lsq.lm_solve(linear, cost, P0, **SOLVER)


def flip_jacobians(monkeypatch, module):
    solve = lsq.lm_solve
    monkeypatch.setattr(module, "lm_solve",
                        lambda residual_jacobian, *a, **kw:
                        solve(uphill(residual_jacobian), *a, **kw))


def chain(n, step=0.25):
    return Skeleton([f"j{i}" for i in range(n)], [-1] + list(range(n - 1)),
                    [[0, 0, 0]] + [[0, step, 0]] * (n - 1))


def perturbed_chain_target(seed=1):
    sk = chain(5)
    rng = np.random.default_rng(seed)
    rots = np.stack([random_rotation(rng, 0.25) for _ in range(5)])
    target = forward_kinematics(sk, BoneTransforms(rots, np.zeros((5, 3))))
    init = BoneTransforms(np.stack([
        axis_angle_to_matrix(rng.normal(scale=0.05, size=3)) @ R for R in rots]),
        np.zeros((5, 3)))
    return sk, target, init


def test_fit_raises_when_the_solve_stalls(monkeypatch):
    sk, target, init = perturbed_chain_target()
    flip_jacobians(monkeypatch, skinning)
    with pytest.raises(NumericalError, match="diverged"):
        fit_pose_to_keypoints(sk, target, init=init)


def court_scene():
    eye = np.array([4.0, 9.0, 7.62 + 13.0])
    R = look_at_rotation(eye, np.array([2.0, 1.0, 0.0]))
    cam = Camera(1500.0, 640.0, 360.0, R, -R @ eye)
    court = make_court_model()
    return cam, court, rasterize_court_lines(cam, court, (1280, 720))


def test_refinement_raises_when_the_solve_stalls(monkeypatch):
    cam, court, mask = court_scene()
    pert = Camera(cam.f, cam.px, cam.py,
                  axis_angle_to_matrix(np.array([0.01, -0.02, 0.005])) @ cam.R,
                  cam.T + np.array([0.1, -0.08, 0.1]))
    flip_jacobians(monkeypatch, calibrate)
    # the default tolerance ends an uphill solve on a plateau after a sweep
    assert refine_camera_lines(pert, mask, court).stop == "plateau"
    monkeypatch.setattr(calibrate, "REFINE_TOL", -np.inf)
    with pytest.raises(NumericalError, match="diverged"):
        refine_camera_lines(pert, mask, court)


# -- the fields that the benchmark's traced run and the demos read ----------

def test_fit_info_contract(monkeypatch):
    sk, target, init = perturbed_chain_target(seed=3)
    linearized = []
    residuals = KeypointObjective.residuals

    def spy(self, params, jacobian=False):
        linearized.append(jacobian)
        return residuals(self, params, jacobian)

    monkeypatch.setattr(KeypointObjective, "residuals", spy)
    fitted, info = fit_pose_to_keypoints(sk, target, init=init)
    # one linearization per completed iteration
    assert len(info["cost_history"]) == sum(linearized) + 1
    assert info["final_cost"] == info["cost_history"][-1]
    assert info["stop"] == "converged"
    expected = np.linalg.norm(forward_kinematics(sk, fitted, frame=target.frame).positions
                              - target.positions, axis=1)
    assert info["joint_residuals"].shape == (5,)
    assert np.array_equal(info["joint_residuals"], expected)


def test_refine_iterations_at_ground_truth_fixed_point():
    cam, court, mask = court_scene()
    ref = refine_camera_lines(cam, mask, court)
    assert ref.camera is cam
    assert ref.iterations == 1
    assert ref.stop == "done"
    assert ref.final_cost == ref.initial_cost == 0.0
