"""courtpose benchmark.

    python3 perfbench/run.py --workload pipeline_serial --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 20      # every workload

Run from the root of a checkout; the library is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the first
operations untraced, then the workload traced, and prints the per-layer
metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Full results and span dumps go to ``.perfbench-out/``. Workloads, metrics
and seeds are described in ``perfbench/NOTES.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
OVERHEAD_OPS = 3    # operations timed both untraced and traced in a traced run

# Names the human-readable report gives the end-to-end metrics per workload.
OP_NAME = {"pipeline_serial": "scene", "pipeline_jobs2": "scene",
           "train_toy": "step", "calibrate_noisy": "frame"}
SAMPLE = {"pipeline_serial": "scenes", "pipeline_jobs2": "CLI runs",
          "train_toy": "train_toy calls", "calibrate_noisy": "frames"}
ACCURACY = {"pipeline_serial": ("mpvpe_mm_mean", "mm"),
            "pipeline_jobs2": ("mpvpe_mm_mean", "mm"),
            "train_toy": ("mesh_term_final", "1"),
            "calibrate_noisy": ("landmark_reproj_px_mean", "px")}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-set", choices=("default", "holdout"), default="default",
                    help="holdout: the second input set later claims must also hold on")
    ap.add_argument("--setup-only", action="store_true",
                    help="internal: do the workload's set-up, print 'ready', exit")
    return ap.parse_args(argv)


# -- provenance ---------------------------------------------------------------

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def host_info() -> dict:
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    commit = None   # an exported checkout has no .git; src_sha256 identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# -- measurement --------------------------------------------------------------

def probe_setup(args, wl) -> tuple[float, float]:
    """Seconds from launching a fresh process until its set-up is done, and
    the same scaled to the nominal host speed by the reference samples the
    process took during its set-up (their own time taken out of both)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seed-set", args.seed_set]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    word, *vals = line.split() or [""]
    if rc != 0 or word != "ready" or len(vals) != 2:
        raise RuntimeError(f"set-up probe failed (exit {rc})")
    ref, sampled = map(float, vals)
    dt -= sampled
    return dt, dt * wl.REF_NOMINAL_S / ref


def summarize(measured) -> dict:
    """Counts and timings of a run; ``*_norm`` are reference-normalised."""
    ok = [o for o in measured.ops if not o.failures]
    ok_units = sum(o.units for o in ok)
    per_unit = [o.seconds / o.units for o in ok]
    per_unit_norm = [o.norm_seconds / o.units for o in ok]
    norm_wall = sum(o.norm_seconds for o in measured.ops)
    nan = float("nan")
    return {
        "per_unit": per_unit,
        "per_unit_norm": per_unit_norm,
        "attempted": sum(o.units for o in measured.ops),
        "failed": sum(o.units for o in measured.ops if o.failures),
        "p50": statistics.median(per_unit) if per_unit else nan,
        "rate": ok_units / measured.wall if measured.wall > 0 else nan,
        "p50_norm": statistics.median(per_unit_norm) if per_unit_norm else nan,
        "rate_norm": ok_units / norm_wall if norm_wall > 0 else nan,
        "ref_s": [o.ref for o in measured.ops if o.ref is not None],
    }


def tail_line(op, per_unit):
    """Highest percentile with at least ten samples beyond it, if any."""
    for q in (99, 95, 90):
        if len(per_unit) * (100 - q) / 100 >= 10:
            value = statistics.quantiles(per_unit, n=100)[q - 1]
            return f"{op}_s_p{q}", value
    return None


def scene_ops(measured):
    """Per-scene operations: the batch's scenes for pipeline_jobs2."""
    return measured.scenes if measured.scenes is not None else measured.ops


def peak_rss_mb(args) -> float:
    """Peak RSS of the measuring process (pipeline_jobs2: its largest child)."""
    who = resource.RUSAGE_CHILDREN if args.workload == "pipeline_jobs2" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(args, wl):
    # pipeline_jobs2 does its work in fresh child processes
    state = (None if args.workload == "pipeline_jobs2"
             else wl.setup(args.workload, args.seed, args.seed_set))
    with wl.SPEED.sampling():
        measured = wl.MEASURE[args.workload](state, args.seconds, args.seed, args.seed_set)
    peak_mb = peak_rss_mb(args)   # before the set-up probes add children
    setups_wall, setups = zip(*(probe_setup(args, wl) for _ in range(SETUP_PROBES)))
    sm = summarize(measured)
    per_unit, attempted, failed = sm["per_unit"], sm["attempted"], sm["failed"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50_refnorm": (sm["p50_norm"], "s"),
        "ops_per_s_refnorm": (sm["rate_norm"], "1/s"),
    }
    op = OP_NAME[args.workload]
    acc_name, acc_unit = ACCURACY[args.workload]
    n = f"n={len(per_unit)} {SAMPLE[args.workload]}"
    refs = sm["ref_s"]
    scaled = (f"scaled to a {wl.REF_NOMINAL_S * 1e3:g} ms reference" if refs else
              "not scaled: the work runs in child processes")
    lines = [
        f"{op}_s_p50_refnorm {sm['p50_norm']:.4f} s ({n}; {scaled})",
        f"{op}s_per_s_refnorm {sm['rate_norm']:.4f} 1/s ({n}; {scaled})",
        f"{op}_s_p50 {sm['p50']:.4f} s ({n}; wall clock, not gated)",
        f"{op}s_per_s {sm['rate']:.4f} 1/s ({n}, over {measured.wall:.2f} s; not gated)",
    ]
    if refs:
        lines.append(f"ref_s_p50 {statistics.median(refs) * 1e3:.3f} ms (median of the "
                     f"ops' median samples; range {min(refs) * 1e3:.3f}-"
                     f"{max(refs) * 1e3:.3f} ms)")
    lines += [
        f"{acc_name} {measured.accuracy:.6g} {acc_unit}",
        f"fail_frac {failed / max(attempted, 1):.4f} ({failed}/{attempted} {op}s)",
        f"setup_s {metrics['setup_s'][0]:.4f} s (n={len(setups)} fresh processes, scaled "
        f"to the reference: {', '.join(f'{s:.3f}' for s in setups)})",
        f"setup_s_wall {statistics.median(setups_wall):.4f} s (n={len(setups)} fresh "
        f"processes: {', '.join(f'{s:.3f}' for s in setups_wall)}; not gated)",
        f"peak_rss_mb {peak_mb:.1f} MB (not gated: see NOTES.md)",
    ]
    tail = tail_line(op, per_unit)
    if tail:
        lines.insert(1, f"{tail[0]} {tail[1]:.4f} s ({n})")
    if measured.scenes is not None:
        staged = [o.seconds for o in measured.scenes if not o.failures]
        if staged:
            lines.insert(1, f"scene_stage_s_p50 {statistics.median(staged):.4f} s "
                            f"(n={len(staged)} scenes, summed stage seconds)")
    extra = {"samples_s": per_unit, "samples_refnorm_s": sm["per_unit_norm"],
             "ref_s": refs, "setup_samples_s": setups,
             "setup_samples_wall_s": setups_wall,
             "stage_seconds": [o.stages for o in scene_ops(measured) if o.stages],
             "accuracy": measured.accuracy,
             "failures": [f for o in measured.ops for f in o.failures]}
    return metrics, attempted, failed, lines, extra


def run_traced(args, wl):
    from layers import PER_LAYER, instrument, stage_metrics, traced_metrics
    from tracer import Tracer

    tracer = Tracer()
    in_process = args.workload != "pipeline_jobs2"   # jobs2 works in child processes
    if in_process:
        instrument(tracer)
    try:
        state = wl.setup(args.workload, args.seed, args.seed_set)
    finally:
        tracer.restore()
    measure = wl.MEASURE[args.workload]
    values = {name: 0.0 for name in PER_LAYER}
    if in_process:
        # untraced first: its cold first operation warms the process, and
        # the next OVERHEAD_OPS operations are compared with their traced twins
        k = OVERHEAD_OPS + 1
        base = measure(state, args.seconds, args.seed, args.seed_set, max_ops=k)
        instrument(tracer)
        try:
            traced = measure(state, args.seconds, args.seed, args.seed_set, tracer)
        finally:
            tracer.restore()
        values.update(traced_metrics(tracer, sum(o.units for o in traced.ops)))
        values["trace.overhead_frac"] = (sum(o.seconds for o in traced.ops[1:k])
                                         / sum(o.seconds for o in base.ops[1:k]) - 1.0)
    else:
        traced = base = measure(state, args.seconds, args.seed, args.seed_set)
    scenes = scene_ops(traced)
    if args.workload.startswith("pipeline"):
        values.update(stage_metrics(scenes))
    if args.workload == "pipeline_jobs2":
        busy = sum(sum(o.stages.values()) for o in scenes if o.stages)
        values["cli.worker_busy_frac"] = busy / (wl.JOBS * traced.wall)
    values[ACCURACY[args.workload][0]] = traced.accuracy
    values["process.peak_rss_mb"] = peak_rss_mb(args)
    if in_process:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")

    ops = base.ops if traced is base else base.ops + traced.ops
    attempted = sum(o.units for o in ops)
    failed = sum(o.units for o in ops if o.failures)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    if args.workload.startswith("pipeline"):
        ok = [o for o in scenes if o.stages]
        share = (sum(o.stages["skin"] + o.stages["compose"] for o in ok)
                 / sum(sum(o.stages.values()) for o in ok)) if ok else float("nan")
        lines.append(f"skin+compose share of stage time {share:.3f} (n={len(ok)} scenes)")
    extra = {"untraced_samples_s": [o.seconds / o.units for o in base.ops],
             "traced_samples_s": [o.seconds / o.units for o in traced.ops],
             "stage_seconds": [o.stages for o in scenes if o.stages],
             "failures": [f for o in ops for f in o.failures]}
    return metrics, attempted, failed, lines, extra


def run_one(args) -> int:
    import workloads as wl
    host = host_info()
    print("host " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seed_set {args.seed_set} "
          f"seconds {args.seconds:g} trace {args.trace}")
    run = run_traced if args.trace else run_untraced
    metrics, attempted, failed, lines, extra = run(args, wl)
    for line in lines:
        print("  " + line)
    for f in extra["failures"][:10]:
        print("  FAILED " + f)
    correct = (failed == 0 and attempted > 0
               and all(math.isfinite(v) for v, _ in metrics.values()))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "host": host, "result": result, **extra}, fh,
                  indent=1)
    print(json.dumps(result, allow_nan=False))
    return 0


def run_all(args) -> int:
    import workloads as wl
    worst = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--seed-set", args.seed_set]
        worst = max(worst, subprocess.run(cmd, timeout=600).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "courtpose" / "__init__.py").is_file():
        print(f"no courtpose sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args)
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"--workload must be one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        t0 = perf_counter()
        with wl.SPEED.sampling():
            _, dt, ref = wl.SPEED.timed(lambda: wl.setup(args.workload, args.seed,
                                                         args.seed_set))
        print(f"ready {ref!r} {perf_counter() - t0 - dt!r}", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
