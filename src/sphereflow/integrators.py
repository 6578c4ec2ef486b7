"""Time integration of the projected flow with manifold retraction.

ETD1 treats the stiff linear part A exactly through the semigroup and
freezes the nonlinearity over the step:

    u+ = exp(-h A) u + h phi1(h A) F(u).

Projected Euler and classical RK4 discretize the projected vector field
directly and are subject to the explicit stability limit h <~ 2 / mu_max.
A per-step L2 renormalization (the cheapest retraction consistent with the
invariance of the unit sphere under the continuous flow) is applied by
default, and a blow-up guard converts runaway V-norms into errors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import energy
from .model import ModelParams, _F_values, expanded_rhs
from .spectral import Field, norm_l2, phi1

SCHEMES = ("etd1", "projected_euler", "rk4")
DEFAULT_BLOWUP_BOUND = 1e8


class BlowUpError(RuntimeError):
    """The V-norm crossed the blow-up guard; carries the last valid state."""

    def __init__(self, message, t=None, last_state=None):
        super().__init__(message)
        self.t = t
        self.last_state = last_state


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "etd1"
    h: float = 1e-3
    t_end: float = 1.0
    renormalize: bool = True
    record_every: int = 1
    blowup_bound: float = DEFAULT_BLOWUP_BOUND
    keep_snapshots: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.h <= 0:
            raise ValueError("step size must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.blowup_bound <= 0:
            raise ValueError("blowup_bound must be positive")


@dataclass
class TrajectoryRecord:
    """Recorded times, energy reports, norm drift and optional snapshots."""

    times: np.ndarray
    reports: list
    norm_drift: np.ndarray
    snapshots: list | None
    params: ModelParams
    config: StepperConfig
    final_state: Field


def default_step(scheme: str, grid) -> float:
    """Default step size: 1e-3 for ETD1, stability-limited for explicit schemes."""
    if scheme == "etd1":
        return 1e-3
    return min(1e-3, 0.5 / grid.mu_max)


def renormalize(u: Field) -> Field:
    """Retraction onto the unit sphere: u / |u|_L2."""
    r = norm_l2(u)
    if r == 0.0:
        raise ValueError("cannot renormalize the zero field")
    return Field(u.grid, u.values / r)


def _guard_coeffs(grid, out_c: np.ndarray, blowup_bound: float) -> Field:
    vn_sq = float((grid.V_eigs * out_c**2).sum())
    if not np.isfinite(vn_sq) or vn_sq > blowup_bound**2:
        raise BlowUpError(
            f"V-norm {np.sqrt(max(vn_sq, 0.0))!r} exceeded the blow-up bound "
            f"{blowup_bound}"
        )
    return Field._wrap(grid, grid.to_values(out_c))


def _etd1_coeffs(grid, c, values, p, h, decay=None, weight=None):
    """ETD1 update in coefficient space: exp(-hA) c + h phi1(hA) F(u)."""
    fc = grid.to_coeffs(_F_values(grid, values, c, p))
    if decay is None:
        z = h * grid.A_eigs
        decay, weight = np.exp(-z), h * phi1(z)
    return decay * c + weight * fc


def step_etd1(u: Field, p: ModelParams, h: float,
              blowup_bound: float = DEFAULT_BLOWUP_BOUND) -> Field:
    """One exponential Euler step, exact on the linear part."""
    if h <= 0:
        raise ValueError("step size must be positive")
    grid = u.grid
    c = grid.to_coeffs(u.values)
    out_c = _etd1_coeffs(grid, c, u.values, p, h)
    return _guard_coeffs(grid, out_c, blowup_bound)


def step_projected_euler(u: Field, p: ModelParams, h: float,
                         blowup_bound: float = DEFAULT_BLOWUP_BOUND) -> Field:
    if h <= 0:
        raise ValueError("step size must be positive")
    grid = u.grid
    r = expanded_rhs(u, p)
    out_c = grid.to_coeffs(u.values + h * r.values)
    return _guard_coeffs(grid, out_c, blowup_bound)


def step_rk4(u: Field, p: ModelParams, h: float,
             blowup_bound: float = DEFAULT_BLOWUP_BOUND) -> Field:
    if h <= 0:
        raise ValueError("step size must be positive")
    grid = u.grid
    k1 = expanded_rhs(u, p).values
    k2 = expanded_rhs(Field._wrap(grid, u.values + 0.5 * h * k1), p).values
    k3 = expanded_rhs(Field._wrap(grid, u.values + 0.5 * h * k2), p).values
    k4 = expanded_rhs(Field._wrap(grid, u.values + h * k3), p).values
    out = u.values + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _guard_coeffs(grid, grid.to_coeffs(out), blowup_bound)


def integrate(u0: Field, p: ModelParams, cfg: StepperConfig) -> TrajectoryRecord:
    """Advance the projected flow from renormalize(u0) to t_end.

    The state marches in coefficient space (so unexcited high modes decay
    to the dynamical floor instead of being pinned at transform roundoff).
    Records an energy report, the norm drift | |u|_L2^2 - 1 | and
    (optionally) a snapshot every ``record_every`` steps and at the final
    time; the dissipation integral is accumulated by trapezoid at every
    step, with u_t the analytic vector field -A u + F(u).  Raises
    BlowUpError carrying the last valid state and time if the guard trips.
    """
    grid = u0.grid
    if cfg.scheme != "etd1" and cfg.h > 2.0 / grid.mu_max:
        warnings.warn(
            f"step {cfg.h} exceeds the explicit stability limit "
            f"{2.0 / grid.mu_max:.3e} for scheme {cfg.scheme}",
            stacklevel=2,
        )
    h = cfg.h
    n_steps = int(round(cfg.t_end / h))
    mu = grid.A_eigs
    if cfg.scheme == "etd1":
        z = h * mu
        decay, weight = np.exp(-z), h * phi1(z)

    c = grid.to_coeffs(u0.values)
    r = float(np.sqrt((c**2).sum()))
    if r == 0.0:
        raise ValueError("cannot renormalize the zero field")
    c = c / r

    times, reports, drifts, snaps = [], [], [], [] if cfg.keep_snapshots else None
    dissipation = 0.0
    prev_ut_sq = None
    u = None

    def rhs_coeffs(c, values):
        return grid.to_coeffs(_F_values(grid, values, c, p)) - mu * c

    for i in range(n_steps + 1):
        values = grid.to_values(c)
        if cfg.scheme == "etd1":
            fc = grid.to_coeffs(_F_values(grid, values, c, p))
            rc = fc - mu * c
        else:
            rc = rhs_coeffs(c, values)
        ut_sq = float((rc**2).sum())
        if prev_ut_sq is not None:
            dissipation += 0.5 * h * (prev_ut_sq + ut_sq)
        prev_ut_sq = ut_sq
        if i % cfg.record_every == 0 or i == n_steps:
            u = Field._wrap(grid, values)
            times.append(i * h)
            reports.append(energy.make_report(u, p, i * h, ut_sq, dissipation))
            drifts.append(abs(float((c**2).sum()) - 1.0))
            if snaps is not None:
                snaps.append(u)
        if i == n_steps:
            break
        if cfg.scheme == "etd1":
            c_next = decay * c + weight * fc
        elif cfg.scheme == "projected_euler":
            c_next = c + h * rc
        else:
            c2 = c + 0.5 * h * rc
            k2 = rhs_coeffs(c2, grid.to_values(c2))
            c3 = c + 0.5 * h * k2
            k3 = rhs_coeffs(c3, grid.to_values(c3))
            c4 = c + h * k3
            k4 = rhs_coeffs(c4, grid.to_values(c4))
            c_next = c + (h / 6.0) * (rc + 2.0 * k2 + 2.0 * k3 + k4)
        vn_sq = float((grid.V_eigs * c_next**2).sum())
        if not np.isfinite(vn_sq) or vn_sq > cfg.blowup_bound**2:
            raise BlowUpError(
                f"blow-up at t = {(i + 1) * h:.6g}: V-norm "
                f"{np.sqrt(max(vn_sq, 0.0))!r} exceeded {cfg.blowup_bound}",
                t=(i + 1) * h,
                last_state=Field._wrap(grid, grid.to_values(c)),
            )
        c = c_next
        if cfg.renormalize:
            c = c / np.sqrt((c**2).sum())

    return TrajectoryRecord(
        times=np.asarray(times),
        reports=reports,
        norm_drift=np.asarray(drifts),
        snapshots=snaps,
        params=p,
        config=cfg,
        final_state=u,
    )


@dataclass(frozen=True)
class OrderEstimate:
    order: float
    ci: float
    errors: tuple
    h_list: tuple


def convergence_order_probe(u0: Field, p: ModelParams, scheme: str, h_list,
                            t_end: float = 0.05, renormalize_flag: bool = True,
                            ref_factor: int = 16) -> OrderEstimate:
    """Estimate the convergence order of a scheme by Richardson comparison.

    Runs the scheme at each h in ``h_list`` (geometric, at least three
    entries) against an RK4 reference at min(h)/ref_factor and returns the
    least-squares slope of log error versus log h with a 95% confidence
    half-width.
    """
    h_list = sorted(float(h) for h in h_list)
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")
    for h in h_list + [h_list[0] / ref_factor]:
        if abs(round(t_end / h) * h - t_end) > 1e-9 * t_end:
            raise ValueError(f"step {h} does not divide t_end = {t_end}")
    ref_cfg = StepperConfig(
        scheme="rk4", h=h_list[0] / ref_factor, t_end=t_end,
        renormalize=renormalize_flag, record_every=10**9, keep_snapshots=False,
    )
    ref = integrate(u0, p, ref_cfg).final_state
    errors = []
    for h in h_list:
        cfg = StepperConfig(
            scheme=scheme, h=h, t_end=t_end, renormalize=renormalize_flag,
            record_every=10**9, keep_snapshots=False,
        )
        out = integrate(u0, p, cfg).final_state
        errors.append(norm_l2(out - ref))
    x = np.log(np.asarray(h_list))
    y = np.log(np.asarray(errors))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    dof = max(len(x) - 2, 1)
    sigma2 = (res[0] / dof) if res.size else 0.0
    sxx = np.sum((x - x.mean()) ** 2)
    ci = 1.96 * float(np.sqrt(sigma2 / sxx)) if sxx > 0 else float("inf")
    return OrderEstimate(order=float(coef[0]), ci=ci,
                         errors=tuple(errors), h_list=tuple(h_list))
