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
``KEYS`` maps each key to its RunConfig field, type and default.  Every
numeric CSV is written by ``energy.write_csv`` with "%.17g" cells;
check_report.csv, which has quoted text columns, has its own writer.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from dataclasses import make_dataclass
from pathlib import Path

import numpy as np

from . import analysis, energy, mild
from .integrators import (STEPPER_RULES, StepperConfig, check_stepper_field, default_step,
                          divides, integrate)
from .model import ModelParams, random_unit_field, renormalize
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


_REQUIRED = object()

# key -> (RunConfig field, type, default as config text).  A 1-tuple type is
# a comma-separated array of that type.  A key left at a default of None, or
# set to "none" where that is its default, leaves its field None; an unset
# stepper.h is default_step, an unset init.mode is mode 1 on every axis.  The
# other model.* and stepper.* defaults are ModelParams' and StepperConfig's,
# as config text: str in lower case, so that None is none and True is true.
KEYS = {
    "domain.dim": ("dim", int, _REQUIRED),
    "domain.L": ("lengths", (float,), _REQUIRED),
    "domain.N": ("resolution", (int,), _REQUIRED),
    "model.n": ("n", int, str(ModelParams.n).lower()),
    "model.dealias": ("dealias", int, str(ModelParams.dealias).lower()),
    "stepper.scheme": ("scheme", str, str(StepperConfig.scheme).lower()),
    "stepper.h": ("h", float, None),
    "stepper.t_end": ("t_end", float, str(StepperConfig.t_end).lower()),
    "stepper.renormalize": ("renormalize", bool, str(StepperConfig.renormalize).lower()),
    "stepper.record_every": ("record_every", int, str(StepperConfig.record_every).lower()),
    "init.kind": ("init_kind", str, "mode"),
    "init.seed": ("seed", int, "0"),
    "init.mode": ("mode", (int,), None),
    "init.path": ("path", str, None),
    "output.dir": ("out_dir", str, "out"),
    "output.snapshots": ("snapshots", bool, "false"),
}

DEFAULT_CONFIG = """\
domain.dim = 1
domain.L = 3.141592653589793
domain.N = 64
init.kind = random
"""


# The validated run configuration, one field per key; grid-dependent
# defaults are resolved when the grid is built.
RunConfig = make_dataclass("RunConfig", [field for field, _, _ in KEYS.values()])
RunConfig.__module__ = __name__  # before Python 3.12 it reads "types"


def _parse(key: str, raw: str, kind):
    """raw as a value of kind, a type of KEYS; a ConfigError names key."""
    if isinstance(kind, tuple):
        return tuple(_parse(key, part.strip(), kind[0]) for part in raw.split(","))
    if kind is str:
        return raw
    if kind is bool:
        if raw not in ("true", "false"):
            raise ConfigError(f"{key}: expected true or false, got {raw!r}")
        return raw == "true"
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
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = raw
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
        seen[key] = raw

    fields = {}
    for key, (field, kind, default) in KEYS.items():
        raw = seen.get(key, default)
        if raw is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        unset = raw is None or raw == default == "none"
        fields[field] = None if unset else _parse(key, raw, kind)
    cfg = RunConfig(**fields)

    # each owner's rules; stepper.h must also divide t_end, which build_stepper checks
    rules = [("domain.*", DomainSpec, (cfg.dim, cfg.lengths, cfg.resolution)),
             ("model.n/model.dealias", build_params, (cfg,))]
    rules += [(key, check_stepper_field, (field, getattr(cfg, field)))
              for key, (field, _, _) in KEYS.items()
              if field in STEPPER_RULES and getattr(cfg, field) is not None]
    for key, check, args in rules:
        try:
            check(*args)
        except ValueError as err:
            raise ConfigError(f"{key}: {err}") from None
    if cfg.init_kind not in ("mode", "random", "file"):
        raise ConfigError(f"init.kind: unknown kind {cfg.init_kind!r}")
    if cfg.seed < 0:
        raise ConfigError("init.seed: must be nonnegative")
    if cfg.mode is None:
        cfg.mode = (1,) * cfg.dim
    elif len(cfg.mode) != cfg.dim:
        raise ConfigError("init.mode: need one index per axis")
    elif any(not 1 <= k <= n for k, n in zip(cfg.mode, cfg.resolution)):
        raise ConfigError(
            f"init.mode: indices {cfg.mode} out of range 1..N for domain.N = "
            f"{cfg.resolution}"
        )
    if cfg.init_kind == "file" and not cfg.path:
        raise ConfigError("init.path: required when init.kind = file")
    if not cfg.out_dir:
        raise ConfigError("output.dir: must not be empty")
    return cfg


def build_grid(cfg: RunConfig) -> SpectralGrid:
    return SpectralGrid(DomainSpec(cfg.dim, cfg.lengths, cfg.resolution))


def build_params(cfg: RunConfig) -> ModelParams:
    return ModelParams(n=cfg.n, dealias=cfg.dealias)


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
    """The configured initial state, put on the unit sphere."""
    if cfg.init_kind == "mode":
        u = basis_mode(grid, cfg.mode)
    elif cfg.init_kind == "random":
        u = random_unit_field(grid, np.random.default_rng(cfg.seed))
    else:
        u = read_snapshot(cfg.path, grid)
        if norm_l2(u) == 0.0:  # only a file can hold the zero state
            raise ValueError(f"{cfg.path}: the state is zero, so it cannot be normalized")
    return renormalize(u)


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
        for idx, c in enumerate(traj.coeffs):
            write_snapshot(os.path.join(snap_dir, f"t_{idx}.mshf"),
                           Field._wrap(grid, grid.to_values(c)))
    led = traj.ledger
    print(
        f"run: {led.t.size} records to t = {led.t[-1]:g}; "
        f"Y {led.Y[0]:.6g} -> {led.Y[-1]:.6g}; "
        f"max norm drift {led.norm_drift.max():.3e}"
    )
    return 0


def cmd_picard(cfg: RunConfig, m: float) -> int:
    if cfg.t_end <= 0:
        raise ConfigError("stepper.t_end: picard needs a positive horizon")
    try:
        theta = mild.TruncationTheta(m)
    except ValueError as err:
        raise ConfigError(f"--m: {err}") from None
    grid = build_grid(cfg)
    params = build_params(cfg)
    u0 = build_initial(cfg, grid)
    try:
        res = mild.picard_solve(u0, theta, params, T=cfg.t_end)
    except mild.NonContractionError as err:
        raise mild.NonContractionError(
            f"{err}: set stepper.t_end below {cfg.t_end!r}") from None
    os.makedirs(cfg.out_dir, exist_ok=True)
    # the first iterate has no contraction factor
    energy.write_csv(os.path.join(cfg.out_dir, "picard.csv"),
                     ("iter", "sup_v_distance", "factor"),
                     zip(itertools.count(1), res.distances, [math.nan, *res.factors]))
    print(
        f"picard: {res.iterations} iterations, converged={res.converged}, "
        f"final distance {res.distances[-1]:.3e}"
    )
    return 0


# -- probes: each returns (CSV columns, CSV rows, summary line or None) -------


def _probe_lipschitz(cfg, grid, params, samples):
    # the grid and its refinement with twice the points on every axis
    fine = SpectralGrid(DomainSpec(cfg.dim, cfg.lengths, tuple(2 * n for n in cfg.resolution)))
    reps = [analysis.lipschitz_probe(g, params, samples=samples, seed=cfg.seed)
            for g in (grid, fine)]
    return (("resolution", "samples", "ball_radius", "max_ratio"),
            [(r.resolution, r.samples, r.ball_radius, r.max_ratio) for r in reps],
            f"lipschitz: ratios {[f'{r.max_ratio:.4f}' for r in reps]}")


def _probe_invariance(cfg, grid, params, samples):
    u0 = build_initial(cfg, grid)
    rows = []
    for eps in analysis.INVARIANCE_EPS:
        rep = analysis.invariance_growth_test(u0, params, eps)
        rows.append((eps, rep.measured_rate, rep.predicted_rate, rep.relative_error))
    return ("eps", "measured_rate", "predicted_rate", "relative_error"), rows, None


def _probe_amu(cfg, grid, params, samples):
    stepper = build_stepper(cfg, grid)
    traj = integrate(build_initial(cfg, grid), params, stepper)
    mus = (0.55, 0.6, 0.75, 0.9)
    rep = analysis.a_mu_boundedness(traj, mus, t_min=min(0.1, cfg.t_end / 2))
    return (("t", *(f"mu_{mu}" for mu in mus)),
            zip(rep.times, *(rep.norms[mu] for mu in mus)),
            f"amu: sups {[f'{rep.sups[mu]:.4f}' for mu in mus]}")


def _probe_omega(cfg, grid, params, samples):
    stepper = build_stepper(cfg, grid)
    T = stepper.t_end
    rep = analysis.omega_limit_probe(
        build_initial(cfg, grid), params, stepper, (T / 4, T / 2, 3 * T / 4)
    )
    return (("q", "max_pairwise_v_distance"),
            [(q, rep.per_q_max_distance[q]) for q in rep.q_list],
            f"omega: converged={rep.converged} stall_ok={rep.stall_ok} "
            f"tail distance {rep.per_q_max_distance[rep.tail_start]:.3e}")


PROBES = {"lipschitz": _probe_lipschitz, "invariance": _probe_invariance,
          "amu": _probe_amu, "omega": _probe_omega}


def cmd_probe(cfg: RunConfig, which: str, samples: int) -> int:
    if which not in PROBES:
        raise ConfigError(f"unknown probe {which!r}")
    if which in ("amu", "omega") and cfg.t_end <= 0:
        raise ConfigError(f"stepper.t_end: probe {which} needs a positive horizon")
    if which == "lipschitz" and samples < 1:
        raise ConfigError("probe lipschitz: samples must be at least 1")
    grid = build_grid(cfg)
    columns, rows, summary = PROBES[which](cfg, grid, build_params(cfg), samples)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"probe_{which}.csv")
    energy.write_csv(path, columns, rows)
    print(summary or f"{which}: wrote {path}")
    return 0


# built once: a parser holds reference cycles, so one per call would be
# left as garbage for the cyclic collector
@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    probe.add_argument("which", choices=PROBES)
    probe.add_argument("--samples", type=int, default=500)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = DEFAULT_CONFIG
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as err:
                raise ConfigError(f"--config {args.config}: {err}") from None
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
