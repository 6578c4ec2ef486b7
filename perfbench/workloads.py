"""Workload definitions, seeded input generation and output gates.

Shared by the parent (``run.py``) and the worker (``worker.py``).  Only the
standard library and numpy are used here, so the inputs do not depend on
the package under test.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import time

import numpy as np

PI = math.pi

# Each workload stresses a different layer; see README.md for why each
# exists and which layer it bypasses.  ``scaled`` marks the workloads whose
# call times are reported at the reference speed: those made of many small
# numpy calls, whose speed the interpreter-bound reference unit tracks.
# pattern_2d spends its time in whole-array work on 256^2 arrays, which the
# reference does not track, so its call times are plain wall time.
WORKLOADS = {
    "ground_1d": dict(
        command=["run"], dim=1, N=64, n=1, scheme="etd1", h=1e-3,
        t_end=10.0, record_every=100, scaled=True,
    ),
    "pattern_2d": dict(
        command=["run"], dim=2, N=256, n=2, scheme="etd1", h=1e-3,
        t_end=0.2, record_every=20, scaled=False,
    ),
    "stiff_rk4": dict(
        command=["run"], dim=1, N=12, n=2, scheme="rk4", h=1e-5,
        t_end=0.05, record_every=1, scaled=True,
    ),
    "picard_2d": dict(
        command=["picard", "--m", "1e6"], dim=2, N=64, n=2, scheme="etd1",
        h=1e-3, t_end=0.02, record_every=1, scaled=True,
    ),
}

# output gates
SPHERE_TOL = 1e-12      # |l2_norm - 1| on every recorded row
GROUND_Y = 2.5          # final energy of the n = 1 ground state on (0, pi)
GROUND_TOL = 1e-6       # |Y - 2.5| at the final record; also the gap for sim_t_to_gap
PICARD_TOL = 1e-10      # picard_solve's default stopping distance

SPECTRAL_DECAY = 3.0    # |k|^-3 coefficient profile, as init.kind = random uses

# The reference unit: fixed interpreter-bound work (small matrix-vector
# products in a Python loop) that the benchmark times next to the program,
# so that a run can report its timings at a fixed machine speed.
REF_ITERATIONS = 5000
REF_NOMINAL_S = 0.010   # reference-unit time that defines the reference speed
REF_TRIM = 0.1          # share of reference times dropped at each end
_REF_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
_REF_VECTOR = np.random.default_rng(1).standard_normal(64)


def reference_unit() -> float:
    """Time one reference unit, in seconds."""
    a, x = _REF_MATRIX, _REF_VECTOR
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        acc += float((a @ x)[0]) + i
    return time.perf_counter() - t0


def machine_scale(ref_times) -> float:
    """REF_NOMINAL_S over the trimmed mean of reference-unit times.

    The host's speed switches between fast and slow phases, so the mean
    (not the median) of many short samples tracks the share of slow time.
    A time multiplied by this scale is the time at the reference speed.
    """
    ordered = sorted(ref_times)
    cut = int(len(ordered) * REF_TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return REF_NOMINAL_S / (sum(kept) / len(kept))


def is_run(workload: str) -> bool:
    return WORKLOADS[workload]["command"][0] == "run"


def steps_per_call(workload: str) -> int:
    w = WORKLOADS[workload]
    return int(round(w["t_end"] / w["h"]))


def initial_values(workload: str, seed: int) -> np.ndarray:
    """Seeded unit-norm state on the workload's sine grid.

    Coefficients have the fixed magnitudes |k|^-3 and random signs, so every
    seed has the same Sobolev norms (and hence comparable dynamics) while
    the spatial pattern changes with the seed.  Values are synthesized with
    the orthonormal DST-I matrix and scaled so that the quadrature L2 norm
    is one.
    """
    w = WORKLOADS[workload]
    dim, N = w["dim"], w["N"]
    k = np.arange(1, N + 1, dtype=float)
    mag = np.sqrt(sum(m**2 for m in np.meshgrid(*([k] * dim), indexing="ij")))
    rng = np.random.default_rng(seed)
    coeffs = rng.choice((-1.0, 1.0), size=(N,) * dim) * mag ** (-SPECTRAL_DECAY)
    coeffs /= np.sqrt((coeffs**2).sum())
    s = np.sqrt(2.0 / (N + 1)) * np.sin(PI * np.outer(k, k) / (N + 1))
    values = coeffs
    for ax in range(dim):
        values = np.moveaxis(np.tensordot(s, values, axes=(1, ax)), 0, ax)
    weight = (PI / (N + 1)) ** dim
    return values / np.sqrt(weight)


def write_mshf(path: str, values: np.ndarray) -> None:
    """MSHF snapshot: magic, u32 version 1, u8 dim, per axis (u32 N, f64 L),
    then row-major little-endian f64 values."""
    with open(path, "wb") as fh:
        fh.write(b"MSHF")
        fh.write(struct.pack("<IB", 1, values.ndim))
        for n in values.shape:
            fh.write(struct.pack("<Id", n, PI))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def config_text(workload: str, init_path: str) -> str:
    w = WORKLOADS[workload]
    dim = w["dim"]
    lines = [
        f"domain.dim = {dim}",
        "domain.L = " + ",".join([repr(PI)] * dim),
        "domain.N = " + ",".join([str(w["N"])] * dim),
        f"model.n = {w['n']}",
        f"stepper.scheme = {w['scheme']}",
        f"stepper.h = {w['h']!r}",
        f"stepper.t_end = {w['t_end']!r}",
        f"stepper.record_every = {w['record_every']}",
        "init.kind = file",
        f"init.path = {init_path}",
    ]
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int, work_dir: str) -> list:
    """Write the seed's state u0 and its mirror image -u0, with one config
    each; returns the two config paths.

    The flow is odd (F(-u) = -F(u)), so -u0 evolves as the mirror image of
    u0 and does the same work, but a pointwise power costs more on negative
    values than on positive ones.  Running both members of the pair makes
    each sample see every sign pattern once, whatever the seed.
    """
    values = initial_values(workload, seed)
    paths = []
    for tag, v in (("plus", values), ("minus", -values)):
        state = os.path.join(work_dir, f"u0_{tag}.mshf")
        write_mshf(state, v)
        cfg = os.path.join(work_dir, f"{tag}.cfg")
        with open(cfg, "w") as fh:
            fh.write(config_text(workload, state))
        paths.append(cfg)
    return paths


# -- output gates --------------------------------------------------------------


def _read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def gate(workload: str, out_dir: str) -> dict:
    """Read one call's written outputs back and check them.

    Returns a dict with ``errors`` (empty when the gate passes) and the
    exact counts the trace reports: ``steps``, ``picard_iterations`` and
    ``sim_t_to_gap`` (the first record time with |Y - 2.5| <= 1e-6, or -1
    when no record reaches it).
    """
    errors = []
    info = {"steps": 0, "picard_iterations": 0, "sim_t_to_gap": -1.0}
    if not is_run(workload):
        rows = _read_rows(os.path.join(out_dir, "picard.csv"))
        info["picard_iterations"] = len(rows)
        if not rows or not rows[-1]["sup_v_distance"] < PICARD_TOL:
            errors.append("picard did not converge")
        bad = [r["iter"] for r in rows[1:] if not r["factor"] < 1.0]
        if bad:
            errors.append(f"contraction factor >= 1 at iterations {bad[:5]}")
        return {"errors": errors, **info}

    rows = _read_rows(os.path.join(out_dir, "timeseries.csv"))
    info["steps"] = steps_per_call(workload)
    w = WORKLOADS[workload]
    if len(rows) != info["steps"] // w["record_every"] + 1:
        errors.append(f"expected {info['steps'] // w['record_every'] + 1} rows, got {len(rows)}")
    off = [r["t"] for r in rows if not abs(r["l2_norm"] - 1.0) <= SPHERE_TOL]
    if off:
        errors.append(f"l2_norm off the sphere at t = {off[:5]}")
    ys = [r["Y"] for r in rows]
    for r in rows:
        if abs(r["Y"] - GROUND_Y) <= GROUND_TOL:
            info["sim_t_to_gap"] = r["t"]
            break
    if workload == "ground_1d":
        if not abs(ys[-1] - GROUND_Y) <= GROUND_TOL:
            errors.append(f"final Y = {ys[-1]!r} is not within {GROUND_TOL} of {GROUND_Y}")
    else:
        rises = [rows[i + 1]["t"] for i in range(len(ys) - 1) if not ys[i + 1] <= ys[i]]
        if rises:
            errors.append(f"Y increased at t = {rises[:5]}")
    return {"errors": errors, **info}
