#!/usr/bin/env python3
"""sphereflow benchmark: end-to-end timings and per-layer traced costs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ground_1d --seed 0 --seconds 20 --trace 0

The seed generates the workload's initial state; the program sees only the
generated config and MSHF file.  Every timing comes from fresh worker
interpreters that import sphereflow from ./src and call the public CLI
entry sphereflow.cli.main one call at a time (a closed loop with one
caller).  Each call's written outputs are gated; a failed call is counted,
never dropped.  With --trace 0 the run reports the end-to-end metrics,
with --trace 1 the per-layer metrics.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
is nonzero if any call failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_RUNS = 5           # fresh interpreters per untraced run; set-up is their median
SETUP_TIMEOUT_S = 60
RUN_LIMIT_S = 170        # a whole run, workers included, ends within this

# Set-up reference: a fresh interpreter that imports numpy, started before
# each set-up worker.  Process start and import costs drift with the host
# independently of CPU speed; set-up times are reported at the speed at
# which this reference takes SPAWN_REF_NOMINAL_S.
SPAWN_REF = ("-c", "import numpy")
SPAWN_REF_NOMINAL_S = 0.15

TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10         # samples a reported percentile must have beyond it

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "spectral.transform_calls": "count", "spectral.transform_self_s": "s",
    "spectral.transform_us": "us", "spectral.flops_computed": "flop",
    "spectral.bytes_computed": "B",
    "model.F_calls": "count", "model.F_self_s": "s",
    "energy.report_calls": "count", "energy.report_self_s": "s",
    "integrators.steps": "count", "integrators.self_s": "s",
    "integrators.sim_t_to_gap": "sim_time",
    "mild.picard_iterations": "count", "mild.phi_map_calls": "count",
    "mild.phi_map_self_s": "s", "mild.convolve_self_s": "s", "mild.picard_self_s": "s",
    "cli.self_s": "s", "cli.io_self_s": "s", "cli.bytes_written": "B",
    "trace.solve_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "kernel.transform_us": "us", "kernel.power_term_us": "us", "kernel.F_us": "us",
    "kernel.report_us": "us", "kernel.step_us": "us",
}


class WorkerError(RuntimeError):
    pass


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as fh:
                head = fh.read().strip()
    except OSError:
        return None
    return head


def run_worker(job: dict, env: dict, deadline: float):
    """Start a worker, time it to its ``ready`` line, wait for it to end;
    kill it at ``deadline`` (a ``time.monotonic`` value).

    Returns (setup seconds, result dict or None for set-up-only jobs).
    """
    job_path = os.path.join(job["work_dir"], f"job-{job['mode']}.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    try:
        wait_s = min(SETUP_TIMEOUT_S, deadline - time.monotonic())
        ready, _, _ = select.select([proc.stdout], [], [], max(wait_s, 0.0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"{job['mode']} worker did not get ready (exit {proc.poll()})")
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        if rc != 0:
            raise WorkerError(f"{job['mode']} worker exited with {rc}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if job["mode"] == "setup":
        return setup_s, None
    with open(job["result_path"]) as fh:
        return setup_s, json.load(fh)


def spawn_reference(env: dict, deadline: float) -> float:
    """Time one fresh interpreter that imports numpy, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *SPAWN_REF], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=max(deadline - time.monotonic(), 0.0))
    return time.perf_counter() - t0


def tail(samples):
    """(label, value): the highest listed percentile with at least ten
    samples beyond it, by nearest rank; the maximum when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)  # ceil
        if n - rank >= TAIL_BEYOND:
            return f"p{p}", ordered[rank - 1]
    return "max", ordered[-1]


def end_to_end(workload, setups, setup_refs, result):
    """End-to-end metrics, with every time rescaled to the reference speed.

    Set-up times are scaled by the fresh-interpreter references started
    before each set-up worker, call times by the reference units the worker
    timed between calls (call times of workloads not marked ``scaled`` stay
    wall times).
    """
    setup_scale = SPAWN_REF_NOMINAL_S / statistics.median(setup_refs)
    scale = workloads.machine_scale(result["refs"]) if result["refs"] else 1.0
    wall = [sum(p) / 2.0 for p in result["pairs"]]
    pairs = [t * scale for t in wall]
    if workloads.is_run(workload):
        steps = workloads.steps_per_call(workload)
    else:
        # one Picard iteration (one application of Phi) is the picard step
        steps = statistics.median(c.get("picard_iterations", 0) for c in result["calls"])
    metrics = {
        "setup_s": statistics.median(setups) * setup_scale,
        "solve_s": statistics.median(pairs),
        "steps_per_s": statistics.median(steps / t for t in pairs),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    label, value = tail(pairs)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; wall "
                   f"{statistics.median(setups):.6g} s at machine scale {setup_scale:.4f}",
        "solve_s": f"median of {len(pairs)} samples, each the mean of a (u0, -u0) "
                   f"pair of calls; {label} {value:.6g} s; "
                   + (f"wall {statistics.median(wall):.6g} s at machine scale {scale:.4f}"
                      if result["refs"] else "wall time, not scaled"),
        "steps_per_s": f"{steps:g} "
                       f"{'integrator steps' if workloads.is_run(workload) else 'Picard iterations'}"
                       " per call",
        "peak_rss_mb": "worker peak RSS",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sphereflow", "__init__.py")):
        print(f"error: no sphereflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = {k: str(nproc) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "SPHEREFLOW_THREADS")}
    env = dict(os.environ, **threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + RUN_LIMIT_S
    work_dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(work_dir)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    try:
        job = {
            "root": ROOT, "work_dir": work_dir, "workload": args.workload,
            "command": workloads.WORKLOADS[args.workload]["command"],
            "configs": workloads.make_inputs(args.workload, args.seed, work_dir),
            "out_dirs": [os.path.join(work_dir, "out_plus"), os.path.join(work_dir, "out_minus")],
            "seconds": args.seconds,
            "result_path": os.path.join(work_dir, "result.json"),
            "spans_path": os.path.join(WORK, "results", f"{args.workload}-spans.csv.gz"),
        }
        setups, setup_refs = [], []
        if args.trace == 0:
            for _ in range(SETUP_RUNS - 1):
                setup_refs.append(spawn_reference(env, deadline))
                setups.append(run_worker(dict(job, mode="setup"), env, deadline)[0])
            setup_refs.append(spawn_reference(env, deadline))
        setup_s, result = run_worker(dict(job, mode="measure" if args.trace == 0 else "trace"),
                                     env, deadline)
        setups.append(setup_s)
    except (WorkerError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    calls = result["calls"]
    failed = sum(1 for c in calls if c["errors"])
    meta = dict(result["meta"], workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, nproc=nproc, commit=_git_commit(),
                src_sha256=_source_digest(), **threads)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    if args.trace == 0:
        values, notes = end_to_end(args.workload, setups, setup_refs, result)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        for k, v in values.items():
            print(f"  {k:<12} {v:12.6g} {END_TO_END_UNITS[k]:<4} {notes[k]}")
    else:
        metrics = {k: {"value": result["layers"][k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        for k, m in metrics.items():
            print(f"  {k:<28} {m['value']:14.6g} {m['unit']}")
    print(f"  {'error_rate':<12} {failed / len(calls):12.6g} fraction ({failed} of {len(calls)} calls failed)")
    report = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as fh:
        json.dump(dict(report, meta=meta, setups_s=setups, calls=calls), fh, indent=1)
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
