"""The four benchmark workloads.

Each is a closed loop with one client: the next operation starts only after
the previous one has finished. Every input is generated here from the run's
``--seed`` and seed set; the library receives only those inputs. Library
functions are always called through their module (``synth.run_pipeline``,
not a name bound at import), so the traced run's wrappers see the calls.

Why the inputs look the way they do:

* The two pipeline workloads run a fixed list of eight scenes. One scene takes
  2-7 s and scenes differ by 3x, so a run-sized random sample of scenes
  would move the median by more than any bound; a fixed list makes every
  run do the same work. ``--seed`` sets the order of the serial pass.
* ``train_toy`` restarts from the same seeded initialisation in every
  operation, so each operation does identical work and the accuracy figure
  does not depend on how many operations fit in the run.
* ``calibrate_noisy`` draws a new scene and new pixel noise for every frame
  from the seed; a frame is cheap, so a run holds enough frames for a
  steady median. Its accuracy figure averages the first ``MIN_FRAMES``
  frames, which every run completes.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import gates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pipeline_serial", "pipeline_jobs2", "train_toy", "calibrate_noisy")
SEED_SETS = ("default", "holdout")

# Disjoint from the test suite's scene seeds (0-21, 100, 1000-1019).
SCENE_LISTS = {"default": tuple(range(5000, 5008)),
               "holdout": tuple(range(6000, 6008))}
DERIVED_SEED_BASE = 20_000   # seeds drawn from the run's generator start here

JOBS = 2
CLI_TIMEOUT_S = 120
NOISE_PX = 1.0               # sigma of the correspondence pixel noise
MIN_FRAMES = 24
TRAIN_STEPS = 8              # steps per train_toy call
MIN_TRAIN_CALLS = 3
TOY_COUNT = 50
TOY_LR = 3e-3
NUM_JOINTS = 35


@dataclass
class Op:
    """One timed operation: a scene, a frame, a train_toy call or a CLI run.

    The per-scene entries of a CLI run carry summed stage seconds instead."""
    seconds: float
    units: int = 1                      # scenes, frames or training steps
    failures: list = field(default_factory=list)
    accuracy: float | None = None
    stages: dict | None = None          # run_pipeline stage seconds
    ref: float | None = None            # median reference sample (HostSpeed)

    @property
    def norm_seconds(self) -> float:
        """``seconds`` at the host speed at which the reference kernel takes
        ``REF_NOMINAL_S``; unscaled where the op was not sampled."""
        return self.seconds if self.ref is None else self.seconds * REF_NOMINAL_S / self.ref


@dataclass
class Measured:
    ops: list
    wall: float            # seconds the throughput is taken over
    accuracy: float        # the workload's accuracy figure
    scenes: list | None = None   # per-scene ops when an op is a batch


def workload_rng(workload: str, seed: int, seed_set: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload),
                                  SEED_SETS.index(seed_set)])


# -- host speed reference -----------------------------------------------------
#
# A shared host runs the same deterministic operation at speeds up to 1.5x
# apart, in phases of a second to minutes: shorter than a pipeline scene. So
# while an in-process operation runs, a timer signal runs a fixed reference
# kernel every REF_PERIOD_S, in the measuring thread itself, and the
# operation's time (its samples' time taken out) is scaled by REF_NOMINAL_S
# over the median sample: seconds at the host speed at which the kernel takes
# REF_NOMINAL_S. The kernel mixes what the library does: interpreted Python,
# elementwise numpy and small matrix products, on one thread, so BLAS thread
# settings of the program do not change it.

REF_NOMINAL_S = 0.005        # reference seconds at the nominal host speed
REF_PERIOD_S = 0.125         # sampling period while an operation runs
_REF_X = np.linspace(0.0, 1.0, 4096)
_REF_M = np.eye(24) + np.linspace(-1e-3, 1e-3, 24 * 24).reshape(24, 24)


def _ref_kernel() -> float:
    acc = 0.0
    for i in range(26_000):
        acc += (i % 7) * 0.5
    x = _REF_X
    for _ in range(160):
        x = np.sqrt(x * x + 1e-3) - 1e-4
    m = _REF_M
    for _ in range(1150):
        m = m @ _REF_M
    return acc + float(x[0]) + float(m[0, 0])


class HostSpeed:
    """Times the reference kernel during operations, while ``sampling``."""

    def __init__(self):
        self.active = False
        self._samples = []     # seconds of each kernel run in the current op
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        _ref_kernel()
        self._samples.append(perf_counter() - t0)
        self._busy = False

    @contextmanager
    def sampling(self):
        """Sample during ``timed`` operations inside this block."""
        old = signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    def timed(self, fn):
        """Run ``fn()``: its result, its seconds without the samples taken
        in it, and the median sample (None when not sampling)."""
        if not self.active:
            t0 = perf_counter()
            out = fn()
            return out, perf_counter() - t0, None
        self._samples = []
        self._sample()                       # every op gets one before it
        before = self._samples[0]
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            dt = perf_counter() - t0 - (sum(self._samples) - before)
        self._sample()                       # and one after it
        return out, dt, float(np.median(self._samples))


SPEED = HostSpeed()


def derived_seed(rng: np.random.Generator) -> int:
    return DERIVED_SEED_BASE + int(rng.integers(10**9))


def setup(workload: str, seed: int, seed_set: str):
    """Cold work a fresh process does before its first operation."""
    from courtpose import synth
    if workload != "train_toy":
        synth.canonical_body(synth.SceneConfig().voxel_res)
        return None
    from courtpose import toydata
    rng = workload_rng(workload, seed, seed_set)
    dataset, ops, config = toydata.toy_part_dataset(seed=derived_seed(rng),
                                                    count=TOY_COUNT)
    return {"dataset": dataset, "ops": ops, "config": config,
            "init_seed": derived_seed(rng), "train_seed": derived_seed(rng)}


def _guarded(fn):
    """Run one operation; an exception is recorded as its failure."""
    try:
        return fn(), []
    except Exception as e:  # noqa: BLE001 - the loop must keep running
        return None, [f"raised {type(e).__name__}: {e}"]


def _more(ops, start, seconds, min_ops=1, max_ops=None) -> bool:
    """Start another operation? At least ``min_ops``; after that only one
    the last operation's duration says will end within ``seconds``, so a
    run never exceeds its time except to finish its minimum. ``max_ops``
    (the traced run's untraced comparison) overrides both."""
    if max_ops is not None:
        return len(ops) < max_ops
    if len(ops) < min_ops:
        return True
    return perf_counter() - start + ops[-1].seconds <= seconds


def _tracer_op(tracer, op_id):
    if tracer is not None:
        tracer.op = op_id


# -- pipeline_serial ----------------------------------------------------------

def measure_pipeline_serial(state, seconds, seed, seed_set, tracer=None, max_ops=None):
    from courtpose import synth
    order = workload_rng("pipeline_serial", seed, seed_set).permutation(
        SCENE_LISTS[seed_set])
    ops, passes = [], []
    start = perf_counter()
    while _more(passes, start, seconds, max_ops=1 if max_ops else None):
        t_pass = perf_counter()
        for scene_seed in order[:max_ops]:      # whole passes only
            _tracer_op(tracer, len(ops))
            (rep, fails), dt, ref = SPEED.timed(lambda: _guarded(
                lambda: synth.run_pipeline(synth.synth_scene(int(scene_seed)))))
            _tracer_op(tracer, None)
            op = _scene_op(dt, rep) if rep is not None else Op(dt, failures=fails)
            op.ref = ref
            ops.append(op)
        passes.append(Op(perf_counter() - t_pass))
    return Measured(ops, sum(o.seconds for o in ops), _mean_accuracy(ops))


def _scene_op(seconds, rep):
    """Gate one run_pipeline report; a report that passes is well formed."""
    fails = gates.scene_failures(rep)
    if fails:
        return Op(seconds, failures=fails)
    st = rep["stages"]
    return Op(seconds, accuracy=st["eval"]["mpvpe_mm"],
              stages={k: v.get("seconds", 0.0) for k, v in st.items()})


def _mean_accuracy(ops):
    vals = [o.accuracy for o in ops if o.accuracy is not None]
    return float(np.mean(vals)) if vals else float("nan")


# -- pipeline_jobs2 -----------------------------------------------------------

def cli_command(seed_set):
    scenes = SCENE_LISTS[seed_set]
    return [sys.executable, "-m", "courtpose.cli", "pipeline",
            "--jobs", str(JOBS), "--seed", str(scenes[0]),
            "--scenes", str(len(scenes))]


def measure_pipeline_jobs2(state, seconds, seed, seed_set, tracer=None, max_ops=None):
    """Fresh ``courtpose pipeline --jobs 2`` processes over the scene list.

    One operation is one CLI run of the whole list; its time is the run's
    wall time, start-up included, spread over its scenes. Scenes that miss a
    gate fail the run. Per-scene stage seconds are kept for the report.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    scenes = SCENE_LISTS[seed_set]
    ops, per_scene, wall = [], [], 0.0
    start = perf_counter()
    while _more(ops, start, seconds):
        t0 = perf_counter()
        # own session, so a hung run is killed with its pool workers
        proc = subprocess.Popen(cli_command(seed_set), env=env, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        dt = perf_counter() - t0
        wall += dt
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {err[-500:]}")
            reports = json.loads(out)
            if not isinstance(reports, list) or len(reports) != len(scenes):
                raise ValueError("expected one report per scene")
        except ValueError as e:
            ops.append(Op(dt, units=len(scenes), failures=[str(e)]))
            continue
        run = [_scene_op(0.0, rep) for rep in reports]
        for op in run:
            op.seconds = sum(op.stages.values()) if op.stages else 0.0
        per_scene.extend(run)
        ops.append(Op(dt, units=len(scenes),
                      failures=[f for op in run for f in op.failures]))
    return Measured(ops, wall, _mean_accuracy(per_scene), per_scene)


# -- train_toy ----------------------------------------------------------------

def measure_train_toy(state, seconds, seed, seed_set, tracer=None, max_ops=None):
    from courtpose.meshnet import network, training
    ds, part_ops, cfg = state["dataset"], state["ops"], state["config"]
    tc = training.TrainConfig(lr=TOY_LR, max_steps=TRAIN_STEPS,
                              seed=state["train_seed"])
    ops, accuracy = [], float("nan")
    start = perf_counter()
    while _more(ops, start, seconds, MIN_TRAIN_CALLS, max_ops):
        params = network.init_params(cfg, part_ops, NUM_JOINTS,
                                     np.random.default_rng(state["init_seed"]))
        _tracer_op(tracer, len(ops))
        (out, fails), dt, ref = SPEED.timed(lambda: _guarded(
            lambda: training.train_toy(ds, params, part_ops, cfg, tc)))
        _tracer_op(tracer, None)
        if out is not None:
            trained, curve = out
            fails = gates.step_failures([c["total"] for c in curve])
            if len(curve) != TRAIN_STEPS:
                fails.append(f"{len(curve)} steps")
            if not ops:
                accuracy = float(training.eval_mesh_term(ds, trained, part_ops, cfg))
        ops.append(Op(dt, units=TRAIN_STEPS, failures=fails, ref=ref))
    if not np.isfinite(accuracy):
        ops[0].failures.append("non-finite mesh term")
    return Measured(ops, sum(o.seconds for o in ops), accuracy)


# -- calibrate_noisy ----------------------------------------------------------

def measure_calibrate_noisy(state, seconds, seed, seed_set, tracer=None, max_ops=None):
    from courtpose import calibrate, synth
    rng = workload_rng("calibrate_noisy", seed, seed_set)
    ops = []
    start = perf_counter()
    while _more(ops, start, seconds, MIN_FRAMES, max_ops):
        bundle = synth.synth_scene(derived_seed(rng))
        size = bundle.config.image_size
        noisy = tuple((tuple(np.asarray(px) + rng.normal(0.0, NOISE_PX, 2)), w)
                      for px, w in bundle.correspondences)
        _tracer_op(tracer, len(ops))
        (res, fails), dt, ref = SPEED.timed(lambda: _guarded(
            lambda: calibrate.refine_camera_lines(
                calibrate.solve_pnp_planar(noisy, size)[0],
                bundle.line_mask, bundle.court)))
        _tracer_op(tracer, None)
        if res is None:
            ops.append(Op(dt, failures=fails, ref=ref))
            continue
        reproj = synth.court_landmark_reprojection(res.camera, bundle.camera,
                                                   bundle.court, size)
        ops.append(Op(dt, accuracy=reproj, ref=ref, failures=gates.frame_failures(
            reproj, res.final_cost, res.initial_cost)))
    first = [o.accuracy for o in ops[:MIN_FRAMES] if o.accuracy is not None]
    accuracy = float(np.mean(first)) if first else float("nan")
    return Measured(ops, sum(o.seconds for o in ops), accuracy)


MEASURE = {
    "pipeline_serial": measure_pipeline_serial,
    "pipeline_jobs2": measure_pipeline_jobs2,
    "train_toy": measure_train_toy,
    "calibrate_noisy": measure_calibrate_noisy,
}
