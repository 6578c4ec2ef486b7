"""Quantitative probes for the estimates behind the constrained flow.

These routines measure, on sampled states and computed trajectories, the
quantities that the well-posedness theory only bounds symbolically: the
local Lipschitz envelope of the nonlinearity, the exponential growth rate
of the squared-norm defect psi = |u|^2 - 1 off the sphere, boundedness of
fractional powers A^mu along orbits, and the Lyapunov-stall criterion that
characterizes gradient systems (an energy plateau occurs only at a fixed
point of the flow).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import v_norm
from .model import (
    ModelParams,
    nonlinearity_F,
    unprojected_rhs,
)
from .spectral import (
    Field,
    SpectralGrid,
    apply_A_power,
    inner_l2,
    norm_l2,
    random_coeff_field,
    sobolev_norms_sq,
)


# -- Lipschitz envelope ------------------------------------------------------


def g_bound(m: float, n_arg: float, n: int, C: float = 1.0, Cn: float = 1.0) -> float:
    """Polynomial envelope G(m, n_arg) controlling |F(u1) - F(u2)| / ||u1 - u2||_V.

    Symmetric and monotone in both arguments; with C = Cn = 1 and
    m = n_arg = 0 only the cube-root term survives and G = 1.
    """
    if m < 0 or n_arg < 0:
        raise ValueError("norm arguments must be nonnegative")
    quad = 2.0 * C * (m**2 + n_arg**2 + m * n_arg)
    power = (
        (2 * n - 1) / 2.0 * (m ** (2 * n - 1) + n_arg ** (2 * n - 1)) * (m + n_arg)
        + (m ** (2 * n) + n_arg ** (2 * n))
        + (1.0 + m**2 + n_arg**2) ** (1.0 / 3.0)
    )
    return quad + Cn * power


def sample_v_field(grid: SpectralGrid, rng: np.random.Generator,
                   target_v: float, decay: float = 3.0) -> Field:
    """Random field with |k|^-decay spectrum rescaled to a target V-norm."""
    u = random_coeff_field(grid, rng, decay)
    vn = v_norm(u)
    if vn == 0.0:
        raise ValueError("degenerate zero sample")
    return Field._wrap(grid, (target_v / vn) * u.values)


@dataclass(frozen=True)
class LipschitzProbeReport:
    samples: int
    max_ratio: float
    fitted_constant: float
    ball_radius: float
    resolution: int


def lipschitz_probe(grid: SpectralGrid, p: ModelParams, ball_radius: float = 2.0,
                    samples: int = 500, seed: int = 0,
                    decay: float = 3.0) -> LipschitzProbeReport:
    """Largest observed |F(u1)-F(u2)|_L2 / (G(|u1|_V, |u2|_V) ||u1-u2||_V)
    over seeded pairs of distinct samples with V-norms drawn from
    [0, ball_radius).

    The envelope is evaluated with unit constants, so the fitted constant
    reports how large a single constant must be for the envelope shape to
    bound the sampled ratios.
    """
    if ball_radius <= 0:
        raise ValueError("ball_radius must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        r1, r2 = rng.uniform(0.0, ball_radius, size=2)
        u1 = sample_v_field(grid, rng, r1, decay)
        u2 = sample_v_field(grid, rng, r2, decay)
        dv = v_norm(u1 - u2)
        if dv == 0.0:
            continue
        num = norm_l2(nonlinearity_F(u1, p) - nonlinearity_F(u2, p))
        worst = max(worst, num / (g_bound(v_norm(u1), v_norm(u2), p.n) * dv))
    return LipschitzProbeReport(
        samples=samples,
        max_ratio=worst,
        fitted_constant=worst,
        ball_radius=ball_radius,
        resolution=int(max(grid.spec.resolution)),
    )


def scalar_power_gap_constant(n: int, bound: float = 2.0, points: int = 400) -> float:
    """Brute-force fit of C0 in the scalar inequality

        | |a|^(2n-2) a - |b|^(2n-2) b | <= C0 (|a|^(2n-2) + |b|^(2n-2)) |a - b|

    over an (a, b) grid in [-bound, bound]^2."""
    a = np.linspace(-bound, bound, points)
    b = a[:, None]
    num = np.abs(np.abs(a) ** (2 * n - 2) * a - np.abs(b) ** (2 * n - 2) * b)
    den = (np.abs(a) ** (2 * n - 2) + np.abs(b) ** (2 * n - 2)) * np.abs(a - b)
    mask = den > 0
    return float((num[mask] / den[mask]).max())


# -- off-manifold growth of psi = |u|^2 - 1 ----------------------------------


def _direct_field_raw(u: Field, p: ModelParams) -> Field:
    # pi_u applied with the raw (possibly off-sphere) base point
    g = unprojected_rhs(u, p)
    return Field._wrap(u.grid, g.values - inner_l2(g, u) * u.values)


def predicted_psi_rate(u: Field, p: ModelParams) -> float:
    """2 (|u|_{H2}^2 + 2 |u|_{H1}^2 + |u|_{L2n}^{2n}) evaluated at u."""
    from .model import l2n_power

    _, h1sq, h2sq = sobolev_norms_sq(u)
    return 2.0 * (h2sq + 2.0 * h1sq + l2n_power(u, p.n, p.dealias, p.signed_power))


@dataclass(frozen=True)
class InvarianceGrowthReport:
    measured_rate: float
    predicted_rate: float
    psi0: float
    relative_error: float


def invariance_growth_test(u0_off: Field, p: ModelParams,
                           h: float = 1e-5) -> InvarianceGrowthReport:
    """Measured versus predicted initial growth rate of psi = |u|^2 - 1.

    Integrates the literally projected field (projection taken at the raw,
    off-sphere state) with two resolved RK4 steps and extrapolates
    d/dt log|psi| at t = 0.  Requires a = 0, where the rate is exactly
    2 (|u|_{H2}^2 + 2 |u|_{H1}^2 + |u|_{L2n}^{2n}); a nonzero linear
    coefficient adds a 2 a |u|^2 term that the prediction does not include.
    The caller must supply a step h resolving the stiffest retained mode.
    """
    if p.a != 0.0:
        raise ValueError("growth-rate prediction requires a = 0")
    psi0 = norm_l2(u0_off) ** 2 - 1.0
    if abs(psi0) < 1e-13:
        raise ValueError("psi(0) = 0 is degenerate: the defect stays zero")

    def rk4(u, dt):
        k1 = _direct_field_raw(u, p).values
        k2 = _direct_field_raw(Field._wrap(u.grid, u.values + 0.5 * dt * k1), p).values
        k3 = _direct_field_raw(Field._wrap(u.grid, u.values + 0.5 * dt * k2), p).values
        k4 = _direct_field_raw(Field._wrap(u.grid, u.values + dt * k3), p).values
        return Field._wrap(u.grid, u.values + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))

    u1 = rk4(u0_off, h)
    u2 = rk4(u1, h)
    psi1 = norm_l2(u1) ** 2 - 1.0
    psi2 = norm_l2(u2) ** 2 - 1.0
    r1 = (np.log(abs(psi1)) - np.log(abs(psi0))) / h
    r2 = (np.log(abs(psi2)) - np.log(abs(psi0))) / (2 * h)
    measured = 2.0 * r1 - r2  # Richardson: removes the O(h) bias
    predicted = predicted_psi_rate(u0_off, p)
    return InvarianceGrowthReport(
        measured_rate=float(measured),
        predicted_rate=float(predicted),
        psi0=float(psi0),
        relative_error=float(abs(measured - predicted) / abs(predicted)),
    )


# -- fractional-power orbit bounds -------------------------------------------


@dataclass(frozen=True)
class AMuReport:
    t_min: float
    times: np.ndarray
    norms: dict  # mu -> |A^mu u(t)|_L2 over the tail times
    sups: dict  # mu -> sup over the tail


def a_mu_boundedness(traj, mu_list, t_min: float = 0.1) -> AMuReport:
    """Sup of |A^mu u(t)|_L2 over recorded snapshots past t_min, per mu."""
    if traj.snapshots is None:
        raise ValueError("trajectory was recorded without snapshots")
    mask = traj.times >= t_min
    if not mask.any():
        raise ValueError(f"no snapshots at or beyond t_min = {t_min}")
    times = traj.times[mask]
    snaps = [s for s, keep in zip(traj.snapshots, mask) if keep]
    norms = {}
    for mu in mu_list:
        series = np.asarray([norm_l2(apply_A_power(s, mu)) for s in snaps])
        norms[mu] = series
    sups = {mu: float(series.max()) for mu, series in norms.items()}
    return AMuReport(t_min=t_min, times=times, norms=norms, sups=sups)


# -- energy stalls and the omega-limit set -----------------------------------


@dataclass(frozen=True)
class StallEvent:
    t0: float
    t1: float
    delta_Y: float
    residual: float
    ok: bool


def gradient_stall_check(traj, window: float = 1.0, stall_tol: float = 1e-12,
                         residual_tol: float = 1e-6):
    """Check that every energy stall happens at a (numerical) fixed point.

    Scans record pairs at least ``window`` apart; whenever
    |Y(t1) - Y(t0)| < stall_tol, the windowed vector-field residual (the
    smallest |u_t|_L2 over the records in [t0, t1], the witness that the
    window has reached a fixed point) must fall below residual_tol.
    Returns (all_ok, events).
    """
    if traj.snapshots is None:
        raise ValueError("trajectory was recorded without snapshots")
    t = traj.times
    Y = np.asarray([r.Y for r in traj.reports])
    ut = np.sqrt(np.asarray([r.ut_l2_sq for r in traj.reports]))
    stride = max(1, int(np.ceil(window / (t[1] - t[0])))) if t.size > 1 else 1
    events = []
    for i in range(0, t.size - stride):
        j = i + stride
        dY = abs(Y[j] - Y[i])
        if dY < stall_tol:
            residual = float(ut[i:j + 1].min())
            events.append(
                StallEvent(t0=float(t[i]), t1=float(t[j]), delta_Y=float(dY),
                           residual=residual, ok=bool(residual < residual_tol))
            )
    return all(e.ok for e in events), events


@dataclass(frozen=True)
class OmegaLimitReport:
    q_list: tuple
    tail_start: float
    pairwise_v_distances: np.ndarray
    per_q_max_distance: dict
    converged: bool
    limit_candidate: Field
    stall_ok: bool
    stall_events: tuple


def omega_limit_probe(u0: Field, p: ModelParams, cfg, q_list,
                      tol: float = 1e-6) -> OmegaLimitReport:
    """Integrate long and test the orbit tail for Cauchy behavior in V.

    For each q the snapshots past q are compared pairwise in the V-norm;
    convergence means the deepest tail has all pairwise distances below
    ``tol``.  The Lyapunov-stall criterion is verified on the same run.
    """
    from .integrators import integrate

    q_list = tuple(sorted(float(q) for q in q_list))
    if q_list and q_list[-1] >= cfg.t_end:
        raise ValueError("largest q must lie inside the integration horizon")
    traj = integrate(u0, p, cfg)
    per_q = {}
    deepest = None
    for q in q_list:
        tail = [s for s, t in zip(traj.snapshots, traj.times) if t >= q]
        dists = []
        for i in range(len(tail)):
            for j in range(i + 1, len(tail)):
                dists.append(v_norm(tail[i] - tail[j]))
        dists = np.asarray(dists) if dists else np.zeros(0)
        per_q[q] = float(dists.max()) if dists.size else 0.0
        deepest = dists
    converged = bool(deepest is not None and deepest.size
                     and float(deepest.max()) < tol)
    stall_ok, events = gradient_stall_check(traj, residual_tol=tol)
    return OmegaLimitReport(
        q_list=q_list,
        tail_start=q_list[-1] if q_list else 0.0,
        pairwise_v_distances=deepest if deepest is not None else np.zeros(0),
        per_q_max_distance=per_q,
        converged=converged,
        limit_candidate=traj.final_state,
        stall_ok=stall_ok,
        stall_events=tuple(events),
    )
