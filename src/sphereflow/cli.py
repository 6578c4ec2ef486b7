"""Batch front end: config parsing, runs, probes and the verification table.

Subcommands:

    run     integrate a configured initial state, write timeseries.csv and
            optional MSHF snapshots
    check   run the full invariant suite, print a pass/fail table, write
            check_report.csv; exit code 0 iff everything passes
    picard  run the fixed-point iteration, write per-iteration contraction
            factors as CSV
    probe   quantitative probes: lipschitz | invariance | amu | omega

Configuration is flat ``key = value`` text (arrays comma-separated,
booleans true/false); unknown or duplicate keys are rejected by name.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, energy, mild
from .integrators import SCHEMES, StepperConfig, default_step, divides, integrate
from .model import ModelParams, random_unit_field
from .spectral import (
    DomainSpec,
    Field,
    SpectralGrid,
    basis_mode,
    norm_l2,
    read_snapshot,
    write_snapshot,
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


KNOWN_KEYS = (
    "domain.dim", "domain.L", "domain.N",
    "model.n", "model.a", "model.dealias",
    "stepper.scheme", "stepper.h", "stepper.t_end", "stepper.renormalize",
    "stepper.record_every",
    "init.kind", "init.seed", "init.mode", "init.path",
    "init.off_manifold_eps",
    "output.dir", "output.snapshots",
)

REQUIRED_KEYS = ("domain.dim", "domain.L", "domain.N")

DEFAULT_CONFIG = """\
domain.dim = 1
domain.L = 3.141592653589793
domain.N = 64
model.n = 1
stepper.scheme = etd1
stepper.t_end = 1.0
init.kind = random
init.seed = 0
"""


@dataclass
class RunConfig:
    """Validated run configuration; grid-dependent defaults are resolved
    when the grid is built."""

    dim: int
    lengths: tuple
    resolution: tuple
    n: int
    a: float
    dealias: int | None
    scheme: str
    h: float | None
    t_end: float
    renormalize: bool
    record_every: int
    init_kind: str
    seed: int
    mode: tuple
    path: str | None
    off_manifold_eps: float
    out_dir: str
    snapshots: bool


def _parse_bool(key, raw):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"{key}: expected true or false, got {raw!r}")


def _parse_typed(key, raw, kind):
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse flat key=value text into a validated RunConfig.

    ``overrides`` are extra "key=value" strings applied after the file
    content.  Unknown keys, duplicates and invariant violations raise
    ConfigError naming the key.
    """
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = raw
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        seen[key] = raw
    for key in REQUIRED_KEYS:
        if key not in seen:
            raise ConfigError(f"missing required key {key!r}")

    dim = _parse_typed("domain.dim", seen["domain.dim"], int)
    lengths = tuple(
        _parse_typed("domain.L", part.strip(), float)
        for part in seen["domain.L"].split(",")
    )
    resolution = tuple(
        _parse_typed("domain.N", part.strip(), int)
        for part in seen["domain.N"].split(",")
    )
    try:
        DomainSpec(dim, lengths, resolution)
    except ValueError as err:
        raise ConfigError(f"domain.*: {err}") from None

    n = _parse_typed("model.n", seen.get("model.n", "1"), int)
    a = _parse_typed("model.a", seen.get("model.a", "0"), float)
    raw_dealias = seen.get("model.dealias", "none")
    dealias = None if raw_dealias == "none" else _parse_typed(
        "model.dealias", raw_dealias, int
    )
    try:
        ModelParams(n=n, a=a, dealias=dealias)
    except ValueError as err:
        raise ConfigError(f"model.n/model.dealias: {err}") from None

    scheme = seen.get("stepper.scheme", "etd1")
    if scheme not in SCHEMES:
        raise ConfigError(f"stepper.scheme: unknown scheme {scheme!r}")
    h = _parse_typed("stepper.h", seen["stepper.h"], float) if "stepper.h" in seen else None
    if h is not None and h <= 0:
        raise ConfigError("stepper.h: step size must be positive")
    t_end = _parse_typed("stepper.t_end", seen.get("stepper.t_end", "1.0"), float)
    if t_end < 0:
        raise ConfigError("stepper.t_end: must be nonnegative")
    renorm = _parse_bool("stepper.renormalize", seen.get("stepper.renormalize", "true"))
    record_every = _parse_typed(
        "stepper.record_every", seen.get("stepper.record_every", "1"), int
    )
    if record_every < 1:
        raise ConfigError("stepper.record_every: must be at least 1")

    init_kind = seen.get("init.kind", "mode")
    if init_kind not in ("mode", "random", "file"):
        raise ConfigError(f"init.kind: unknown kind {init_kind!r}")
    seed = _parse_typed("init.seed", seen.get("init.seed", "0"), int)
    if seed < 0:
        raise ConfigError("init.seed: must be nonnegative")
    if "init.mode" in seen:
        mode = tuple(
            _parse_typed("init.mode", part.strip(), int)
            for part in seen["init.mode"].split(",")
        )
        if len(mode) != dim:
            raise ConfigError("init.mode: need one index per axis")
        if any(not 1 <= k <= n for k, n in zip(mode, resolution)):
            raise ConfigError(
                f"init.mode: indices {mode} out of range 1..N for domain.N = {resolution}"
            )
    else:
        mode = tuple([1] * dim)
    path = seen.get("init.path")
    if init_kind == "file" and not path:
        raise ConfigError("init.path: required when init.kind = file")
    eps = _parse_typed(
        "init.off_manifold_eps", seen.get("init.off_manifold_eps", "0"), float
    )
    if eps <= -1:
        raise ConfigError(
            "init.off_manifold_eps: must be greater than -1 (the state is "
            "scaled by sqrt(1 + eps))"
        )
    out_dir = seen.get("output.dir", "out")
    snapshots = _parse_bool("output.snapshots", seen.get("output.snapshots", "false"))

    return RunConfig(
        dim=dim, lengths=lengths, resolution=resolution,
        n=n, a=a, dealias=dealias, scheme=scheme, h=h, t_end=t_end,
        renormalize=renorm, record_every=record_every, init_kind=init_kind,
        seed=seed, mode=mode, path=path, off_manifold_eps=eps,
        out_dir=out_dir, snapshots=snapshots,
    )


def build_grid(cfg: RunConfig) -> SpectralGrid:
    return SpectralGrid(DomainSpec(cfg.dim, cfg.lengths, cfg.resolution))


def build_params(cfg: RunConfig) -> ModelParams:
    return ModelParams(n=cfg.n, a=cfg.a, dealias=cfg.dealias)


def build_stepper(cfg: RunConfig, grid: SpectralGrid,
                  keep_snapshots: bool = True) -> StepperConfig:
    """The stepper; stepper.h must divide t_end.  Without it the step is default_step,
    or the largest t_end / n below it when default_step does not divide t_end."""
    h = cfg.h
    if h is None:
        h = default_step(cfg.scheme, grid)
        if not divides(h, cfg.t_end):
            h = cfg.t_end / math.ceil(cfg.t_end / h)
    try:
        return StepperConfig(
            scheme=cfg.scheme, h=h, t_end=cfg.t_end, renormalize=cfg.renormalize,
            record_every=cfg.record_every, keep_snapshots=keep_snapshots,
        )
    except ValueError as err:
        raise ConfigError(f"stepper.h: {err}") from None


def build_initial(cfg: RunConfig, grid: SpectralGrid) -> Field:
    if cfg.init_kind == "mode":
        u = basis_mode(grid, cfg.mode)
    elif cfg.init_kind == "random":
        u = random_unit_field(grid, np.random.default_rng(cfg.seed))
    else:
        u = read_snapshot(cfg.path, grid)
    r = norm_l2(u)
    if r == 0.0:  # only a file can hold the zero state
        raise ValueError(f"{cfg.path}: the state is zero, so it cannot be normalized")
    u = Field(u.grid, u.values / r)
    if cfg.off_manifold_eps:
        u = Field(u.grid, np.sqrt(1.0 + cfg.off_manifold_eps) * u.values)
    return u


# -- subcommands -------------------------------------------------------------


def cmd_run(cfg: RunConfig) -> int:
    grid = build_grid(cfg)
    params = build_params(cfg)
    stepper = build_stepper(cfg, grid, keep_snapshots=cfg.snapshots)
    u0 = build_initial(cfg, grid)
    traj = integrate(u0, params, stepper)
    os.makedirs(cfg.out_dir, exist_ok=True)
    energy.write_timeseries_csv(traj, os.path.join(cfg.out_dir, "timeseries.csv"))
    if cfg.snapshots:
        snap_dir = os.path.join(cfg.out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        for idx, snap in enumerate(traj.snapshots):
            write_snapshot(os.path.join(snap_dir, f"t_{idx}.mshf"), snap)
    led = traj.ledger
    print(
        f"run: {led.t.size} records to t = {led.t[-1]:g}; "
        f"Y {led.Y[0]:.6g} -> {led.Y[-1]:.6g}; "
        f"max norm drift {led.norm_drift.max():.3e}"
    )
    return 0


def cmd_picard(cfg: RunConfig, m: float = 100.0) -> int:
    if cfg.t_end <= 0:
        raise ConfigError("stepper.t_end: picard needs a positive horizon")
    try:
        theta = mild.TruncationTheta(m)
    except ValueError as err:
        raise ConfigError(f"--m: {err}") from None
    grid = build_grid(cfg)
    params = build_params(cfg)
    u0 = build_initial(cfg, grid)
    res = mild.picard_solve(u0, theta, params, T=cfg.t_end)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "picard.csv")
    with open(path, "w", newline="") as fh:
        fh.write("iter,sup_v_distance,factor\n")
        for j, d in enumerate(res.distances, start=1):
            factor = res.factors[j - 2] if j >= 2 else float("nan")
            fh.write(f"{j},{d:.17g},{factor:.17g}\n")
    print(
        f"picard: {res.iterations} iterations, converged={res.converged}, "
        f"final distance {res.distances[-1]:.3e}"
    )
    return 0


def cmd_probe(cfg: RunConfig, which: str, samples: int = 500) -> int:
    if which == "invariance" and cfg.a != 0.0:
        raise ConfigError("model.a: probe invariance predicts the growth rate "
                          "only for a = 0")
    if which in ("amu", "omega") and cfg.t_end <= 0:
        raise ConfigError(f"stepper.t_end: probe {which} needs a positive horizon")
    if which == "lipschitz" and samples < 1:
        raise ConfigError("probe lipschitz: samples must be at least 1")
    grid = build_grid(cfg)
    params = build_params(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)

    if which == "lipschitz":
        rows = []
        for factor in (1, 2):
            spec = grid.spec
            g = SpectralGrid(
                DomainSpec(spec.dim, spec.lengths,
                           tuple(factor * x for x in spec.resolution))
            )
            rep = analysis.lipschitz_probe(g, params, samples=samples, seed=cfg.seed)
            rows.append(rep)
        path = os.path.join(cfg.out_dir, "probe_lipschitz.csv")
        with open(path, "w", newline="") as fh:
            fh.write("resolution,samples,ball_radius,max_ratio\n")
            for rep in rows:
                fh.write(
                    f"{rep.resolution},{rep.samples},"
                    f"{rep.ball_radius:.17g},{rep.max_ratio:.17g}\n"
                )
        print(f"lipschitz: ratios {[f'{r.max_ratio:.4f}' for r in rows]}")
        return 0

    if which == "invariance":
        u_on = build_initial(cfg, grid)
        u_on = Field(grid, u_on.values / norm_l2(u_on))
        path = os.path.join(cfg.out_dir, "probe_invariance.csv")
        with open(path, "w", newline="") as fh:
            fh.write("eps,measured_rate,predicted_rate,relative_error\n")
            for eps in (1e-3, -1e-3, 1e-2, -1e-2):
                off = Field(grid, np.sqrt(1.0 + eps) * u_on.values)
                rep = analysis.invariance_growth_test(off, params)
                fh.write(
                    f"{eps:.17g},{rep.measured_rate:.17g},"
                    f"{rep.predicted_rate:.17g},{rep.relative_error:.17g}\n"
                )
        print(f"invariance: wrote {path}")
        return 0

    if which == "amu":
        stepper = build_stepper(cfg, grid)
        traj = integrate(build_initial(cfg, grid), params, stepper)
        mus = (0.55, 0.6, 0.75, 0.9)
        rep = analysis.a_mu_boundedness(traj, mus, t_min=min(0.1, cfg.t_end / 2))
        path = os.path.join(cfg.out_dir, "probe_amu.csv")
        with open(path, "w", newline="") as fh:
            fh.write("t," + ",".join(f"mu_{mu}" for mu in mus) + "\n")
            for i, t in enumerate(rep.times):
                fh.write(
                    f"{t:.17g},"
                    + ",".join(f"{rep.norms[mu][i]:.17g}" for mu in mus)
                    + "\n"
                )
        print(f"amu: sups {[f'{rep.sups[mu]:.4f}' for mu in mus]}")
        return 0

    if which == "omega":
        stepper = build_stepper(cfg, grid)
        T = stepper.t_end
        q_list = (T / 4, T / 2, 3 * T / 4)
        rep = analysis.omega_limit_probe(
            build_initial(cfg, grid), params, stepper, q_list
        )
        path = os.path.join(cfg.out_dir, "probe_omega.csv")
        with open(path, "w", newline="") as fh:
            fh.write("q,max_pairwise_v_distance\n")
            for q in rep.q_list:
                fh.write(f"{q:.17g},{rep.per_q_max_distance[q]:.17g}\n")
        print(
            f"omega: converged={rep.converged} stall_ok={rep.stall_ok} "
            f"tail distance {rep.per_q_max_distance[rep.tail_start]:.3e}"
        )
        return 0

    raise ConfigError(f"unknown probe {which!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sphereflow",
        description="Spectral solver for the sphere-constrained modified "
        "Swift-Hohenberg gradient flow.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key",
    )
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    parser.add_argument("--seed", type=int, help="override init.seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="integrate and write the time series")
    sub.add_parser("check", help="run the verification suite")
    picard = sub.add_parser("picard", help="run the fixed-point iteration")
    picard.add_argument("--m", type=float, default=100.0,
                        help="truncation level (default 100)")
    probe = sub.add_parser("probe", help="run a quantitative probe")
    probe.add_argument("which", choices=["lipschitz", "invariance", "amu", "omega"])
    probe.add_argument("--samples", type=int, default=500)

    args = parser.parse_args(argv)
    try:
        text = DEFAULT_CONFIG if args.config is None else Path(args.config).read_text()
        overrides = list(args.set)
        if args.seed is not None:
            overrides.append(f"init.seed={args.seed}")
        if args.out is not None:
            overrides.append(f"output.dir={args.out}")
        cfg = parse_config(text, overrides)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "check":
            from .checks import cmd_check

            return cmd_check(cfg)
        if args.command == "picard":
            return cmd_picard(cfg, m=args.m)
        return cmd_probe(cfg, args.which, samples=args.samples)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - surface module errors with context
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
