"""Worker process: set up one workload, then drive sphereflow.cli.main.

Started by run.py as ``python3 perfbench/worker.py <job.json>``.  It prints
``ready`` on stdout once sphereflow is imported and the workload's grid and
initial state are built (run.py times set-up up to that line), then,
unless the job is set-up only, runs calls one at a time and writes its
result JSON to the path the job names.

Modes:
    setup    stop after ``ready``
    measure  untraced calls for ``seconds``
    trace    alternating untraced and traced call pairs for 80% of
             ``seconds``, then the isolated kernel timings
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import tracer as trace_mod
import workloads

TRACE_SHARE = 0.8       # of --seconds for the call pairs; the kernels take the rest
KERNEL_BATCH_S = 0.01   # one timed batch of kernel calls lasts at least this
KERNEL_BATCHES = 5

REF_SHARE = 0.1         # of the measured time spent on reference units

# exact counts read back from each call's outputs, by per-layer metric name
GATE_COUNTS = {
    "steps": "integrators.steps",
    "picard_iterations": "mild.picard_iterations",
    "sim_t_to_gap": "integrators.sim_t_to_gap",
    "bytes_written": "cli.bytes_written",
}


def _bytes_under(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class Runner:
    """Runs calls of one workload and gates each call's outputs."""

    def __init__(self, job, main, calibrate: bool):
        self.job = job
        self.main = main
        self.calibrate = calibrate  # time reference units before each call
        self.calls = []
        self.refs = []

    def call(self, sign: int) -> dict:
        job = self.job
        out_dir = job["out_dirs"][sign]
        argv = ["--config", job["configs"][sign], "--out", out_dir, *job["command"]]
        if self.calibrate:
            last = self.calls[-1]["time_s"] if self.calls else 0.0
            ref_time = statistics.mean(self.refs) if self.refs else 1.0
            for _ in range(max(1, round(REF_SHARE * last / ref_time))):
                self.refs.append(workloads.reference_unit())
        error = None
        t0 = time.perf_counter()
        try:
            rc = self.main(argv)
        except (Exception, SystemExit) as exc:
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        record = {"sign": sign, "time_s": elapsed, "errors": []}
        if error is not None or rc != 0:
            record["errors"].append(error or f"cli.main returned {rc}")
        else:
            try:
                record.update(workloads.gate(job["workload"], out_dir))
            except (OSError, ValueError, KeyError) as exc:
                record["errors"].append(f"outputs unreadable: {exc}")
            record["bytes_written"] = _bytes_under(out_dir)
        if record["errors"]:
            print(f"perfbench: {job['workload']} call failed: {record['errors']}",
                  file=sys.stderr)
        self.calls.append(record)
        return record

    def pairs(self, seconds: float) -> list:
        """Run (u0, -u0) pairs until ``seconds`` have passed, at least one."""
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            out.append([self.call(0), self.call(1)])
        return out


def pair_time(pair) -> float:
    return (pair[0]["time_s"] + pair[1]["time_s"]) / 2.0


def _median_pair(pairs):
    return sorted(pairs, key=pair_time)[(len(pairs) - 1) // 2]


def dense_work(shape) -> tuple:
    """(flops, bytes) a dense per-axis transform computes on ``shape``:
    per axis an N x N matrix times the P-point array, reading the array and
    the matrix and writing the array once.  Computed, not measured."""
    points = 1
    for n in shape:
        points *= n
    flops = sum(2 * n * points for n in shape)
    nbytes = sum(8 * (2 * points + n * n) for n in shape)
    return flops, nbytes


def layer_metrics(tr, pair) -> dict:
    """Per-layer metrics of the median traced pair, averaged over its two calls."""
    names = {
        "cli": "cli.self_s", "cli.io": "cli.io_self_s",
        "integrators": "integrators.self_s", "model.F": "model.F_self_s",
        "energy.report": "energy.report_self_s",
        "spectral.transform": "spectral.transform_self_s",
        "mild.picard": "mild.picard_self_s", "mild.phi_map": "mild.phi_map_self_s",
        "mild.convolve": "mild.convolve_self_s",
    }
    counts = {
        "spectral.transform": "spectral.transform_calls", "model.F": "model.F_calls",
        "energy.report": "energy.report_calls", "mild.phi_map": "mild.phi_map_calls",
    }
    m = {key: 0.0 for key in list(names.values()) + list(counts.values())}
    m.update({"spectral.flops_computed": 0.0, "spectral.bytes_computed": 0.0,
              "trace.unattributed_s": 0.0, "trace.solve_s": 0.0})
    for call in pair:
        prof = trace_mod.call_profile(tr.spans, *call["spans"])
        for span, key in names.items():
            m[key] += prof["self_s"].get(span, 0.0) / 2.0
        for span, key in counts.items():
            m[key] += prof["calls"].get(span, 0) / 2.0
        for shape in prof["shapes"]:
            flops, nbytes = dense_work(shape)
            m["spectral.flops_computed"] += flops / 2.0
            m["spectral.bytes_computed"] += nbytes / 2.0
        m["trace.unattributed_s"] += (call["time_s"] - prof["root_s"]) / 2.0
        m["trace.solve_s"] += call["time_s"] / 2.0
    calls = m["spectral.transform_calls"]
    m["spectral.transform_us"] = m["spectral.transform_self_s"] / calls * 1e6 if calls else 0.0
    attributed = sum(m[key] for key in names.values()) + m["trace.unattributed_s"]
    if abs(attributed - m["trace.solve_s"]) > 1e-9 * max(1.0, m["trace.solve_s"]):
        raise AssertionError(
            f"layer self times sum to {attributed!r}, traced solve_s is {m['trace.solve_s']!r}"
        )
    return m


def kernel_metrics(workload, grid, u0, params) -> dict:
    """Isolated per-call times of the public kernels on the workload's grid
    and initial state, averaged over u0 and -u0, after a warm-up."""
    import sphereflow as sf

    w = workloads.WORKLOADS[workload]
    states = (u0, sf.Field(grid, -u0.values))
    step = sf.step_rk4 if w["scheme"] == "rk4" else sf.step_etd1
    kernels = {
        "kernel.transform_us": lambda u: sf.transform_forward(u),
        "kernel.power_term_us": lambda u: sf.power_term(u, params.n),
        "kernel.F_us": lambda u: sf.nonlinearity_F(u, params),
        "kernel.report_us": lambda u: sf.make_report(u, params, 0.0, 0.0, 0.0),
        "kernel.step_us": lambda u: step(u, params, w["h"]),
    }
    out = {}
    clock = time.perf_counter
    for name, fn in kernels.items():
        t0 = clock()
        for u in states:
            fn(u)
        reps = max(1, int(KERNEL_BATCH_S / max(clock() - t0, 1e-9)))
        batches = []
        for _ in range(KERNEL_BATCHES):
            t0 = clock()
            for _ in range(reps):
                for u in states:
                    fn(u)
            batches.append((clock() - t0) / (2 * reps))
        out[name] = statistics.median(batches) * 1e6
    return out


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import sphereflow
    from sphereflow import cli

    if not os.path.abspath(sphereflow.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"sphereflow imported from {sphereflow.__file__}, not {src}")
    with open(job["configs"][0]) as fh:
        cfg = cli.parse_config(fh.read())
    grid = cli.build_grid(cfg)
    u0 = cli.build_initial(cfg, grid)
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0
    # run.py reads only the ready line; the CLI's own messages go nowhere
    sys.stdout = open(os.devnull, "w")

    calibrate = job["mode"] == "measure" and workloads.WORKLOADS[job["workload"]]["scaled"]
    runner = Runner(job, cli.main, calibrate=calibrate)
    result = {"meta": {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sphereflow": sphereflow.__version__,
    }}
    if job["mode"] == "measure":
        result["pairs"] = [[c["time_s"] for c in p] for p in runner.pairs(job["seconds"])]
        result["refs"] = runner.refs
    else:
        # untraced and traced pairs alternate, so both see the same machine
        tr = trace_mod.Tracer()
        traced_main = tr.wrap(trace_mod.ROOT, cli.main)
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < TRACE_SHARE * job["seconds"]:
            runner.main = cli.main
            untraced.append([runner.call(0), runner.call(1)])
            runner.main = traced_main
            tr.install()
            try:
                pair = []
                for sign in (0, 1):
                    first = len(tr.spans)
                    pair.append(runner.call(sign))
                    pair[-1]["spans"] = [first, len(tr.spans)]
            finally:
                tr.restore()
            traced.append(pair)
        if tr.missing:
            print(f"perfbench: hooks not found, their time goes to the caller: "
                  f"{', '.join(tr.missing)}", file=sys.stderr)
        median_pair = _median_pair(traced)
        tr.write(job["spans_path"], median_pair[0]["spans"][0], median_pair[1]["spans"][1])
        m = layer_metrics(tr, median_pair)
        m["trace.overhead_s"] = m["trace.solve_s"] - pair_time(_median_pair(untraced))
        for key, name in GATE_COUNTS.items():
            m[name] = sum(c.get(key, 0) for c in median_pair) / 2.0
        m.update(kernel_metrics(job["workload"], grid, u0, cli.build_params(cfg)))
        result["layers"] = m
        result["hooks_missing"] = tr.missing
    result["calls"] = runner.calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
