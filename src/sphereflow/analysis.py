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
from .integrators import StepperConfig, integrate
from .model import ModelParams, check_on_manifold, l2n_power, nonlinearity_F
from .spectral import (
    Field,
    SpectralGrid,
    norm_l2,
    random_coeff_field,
    sobolev_norms_sq,
)

LIPSCHITZ_BALL_RADIUS = 2.0  # sampled V-norms are drawn from [0, 2)
STALL_WINDOW = 1.0  # time between the two records of a stall candidate
STALL_TOL = 1e-12  # |Y(t1) - Y(t0)| below this is an energy stall
RESIDUAL_TOL = 1e-6  # |u_t|_L2 below this is a numerical fixed point
CAUCHY_TOL = 1e-6  # pairwise V-distances in a converged orbit tail
INVARIANCE_EPS = (1e-3, -1e-3, 1e-2, -1e-2)  # defects psi(0) the probes start from


# -- Lipschitz envelope ------------------------------------------------------


def g_bound(m: float, n_arg: float, n: int) -> float:
    """Polynomial envelope G(m, n_arg) controlling |F(u1) - F(u2)| / ||u1 - u2||_V,
    with unit constants.

    Symmetric and monotone in both arguments; at m = n_arg = 0 only the
    cube-root term survives and G = 1.
    """
    if m < 0 or n_arg < 0:
        raise ValueError("norm arguments must be nonnegative")
    quad = 2.0 * (m**2 + n_arg**2 + m * n_arg)
    power = (
        (2 * n - 1) / 2.0 * (m ** (2 * n - 1) + n_arg ** (2 * n - 1)) * (m + n_arg)
        + (m ** (2 * n) + n_arg ** (2 * n))
        + (1.0 + m**2 + n_arg**2) ** (1.0 / 3.0)
    )
    return quad + power


def sample_v_field(grid: SpectralGrid, rng: np.random.Generator,
                   target_v: float) -> Field:
    """Random field with |k|^-3 spectrum rescaled to a target V-norm."""
    u = random_coeff_field(grid, rng)
    vn = v_norm(u)
    if vn == 0.0:
        raise ValueError("degenerate zero sample")
    return Field._wrap(grid, (target_v / vn) * u.values)


@dataclass(frozen=True)
class LipschitzProbeReport:
    samples: int
    max_ratio: float
    ball_radius: float
    resolution: int


def lipschitz_probe(grid: SpectralGrid, p: ModelParams, samples: int = 500,
                    seed: int = 0) -> LipschitzProbeReport:
    """Largest observed |F(u1)-F(u2)|_L2 / (G(|u1|_V, |u2|_V) ||u1-u2||_V)
    over seeded pairs of distinct samples with V-norms drawn from
    [0, LIPSCHITZ_BALL_RADIUS).

    The envelope is evaluated with unit constants, so the largest ratio is
    how large a single constant must be for the envelope shape to bound the
    sampled ratios.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        r1, r2 = rng.uniform(0.0, LIPSCHITZ_BALL_RADIUS, size=2)
        u1 = sample_v_field(grid, rng, r1)
        u2 = sample_v_field(grid, rng, r2)
        dv = v_norm(u1 - u2)
        if dv == 0.0:
            continue
        num = norm_l2(nonlinearity_F(u1, p) - nonlinearity_F(u2, p))
        worst = max(worst, num / (g_bound(v_norm(u1), v_norm(u2), p.n) * dv))
    return LipschitzProbeReport(
        samples=samples,
        max_ratio=worst,
        ball_radius=LIPSCHITZ_BALL_RADIUS,
        resolution=int(max(grid.spec.resolution)),
    )


def scalar_power_gap_constant(n: int) -> float:
    """Brute-force fit of C0 in the scalar inequality

        | |a|^(2n-2) a - |b|^(2n-2) b | <= C0 (|a|^(2n-2) + |b|^(2n-2)) |a - b|

    over a 400 x 400 (a, b) grid in [-2, 2]^2."""
    a = np.linspace(-2.0, 2.0, 400)
    b = a[:, None]
    num = np.abs(np.abs(a) ** (2 * n - 2) * a - np.abs(b) ** (2 * n - 2) * b)
    den = (np.abs(a) ** (2 * n - 2) + np.abs(b) ** (2 * n - 2)) * np.abs(a - b)
    mask = den > 0
    return float((num[mask] / den[mask]).max())


# -- off-manifold growth of psi = |u|^2 - 1 ----------------------------------


def predicted_psi_rate(u: Field, p: ModelParams) -> float:
    """2 (|u|_{H2}^2 + 2 |u|_{H1}^2 + |u|_{L2n}^{2n}) evaluated at u."""
    _, h1sq, h2sq = sobolev_norms_sq(u)
    return 2.0 * (h2sq + 2.0 * h1sq + l2n_power(u, p.n, p.dealias))


@dataclass(frozen=True)
class InvarianceGrowthReport:
    measured_rate: float
    predicted_rate: float
    psi0: float
    relative_error: float


def invariance_growth_test(u: Field, p: ModelParams,
                           eps: float) -> InvarianceGrowthReport:
    """Measured versus predicted initial growth rate of psi = |u|^2 - 1,
    started off the sphere at sqrt(1 + eps) u for u on it, so psi(0) = eps.

    Integrates the literally projected field (projection taken at the raw,
    off-sphere state) with two unretracted RK4 steps of ``integrate`` and
    extrapolates d/dt log|psi| at t = 0.  That field, pi_u(-A u - u^(2n-1)),
    expands to the kernel's -A u + F(u) at any base point, and the rate is
    exactly 2 (|u|_{H2}^2 + 2 |u|_{H1}^2 + |u|_{L2n}^{2n}).  The step
    min(1e-5, 0.2 / mu_max) resolves the stiffest retained mode.
    """
    if not eps > -1.0:
        raise ValueError(f"eps must be greater than -1, got {eps!r}")
    check_on_manifold(u)
    u0_off = Field(u.grid, np.sqrt(1.0 + eps) * u.values)
    h = min(1e-5, 0.2 / u.grid.mu_max)
    cfg = StepperConfig("rk4", h, 2 * h, renormalize=False)
    c0, c1, c2 = integrate(u0_off, p, cfg).coeffs
    psi0 = float(np.vdot(c0, c0)) - 1.0
    if abs(psi0) < 1e-13:
        raise ValueError("psi(0) = 0 is degenerate: the defect stays zero")
    # log(psi_k / psi_0) / (k h), taking psi_k - psi_0 as <c_k - c_0, c_k + c_0>,
    # which does not cancel as |c_k|^2 - 1 does
    r1, r2 = (np.log1p(float(np.vdot(c - c0, c + c0)) / psi0) / (k * h)
              for k, c in ((1, c1), (2, c2)))
    measured = 2.0 * r1 - r2  # Richardson: removes the O(h) bias
    predicted = predicted_psi_rate(u0_off, p)
    return InvarianceGrowthReport(
        measured_rate=float(measured),
        predicted_rate=float(predicted),
        psi0=psi0,
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
    """Sup of |A^mu u(t)|_L2 over the records past t_min, per mu in (0, 1].

    |A^mu u|_L2 is the Parseval sum sqrt(sum_k (A_k^mu c_k)^2) over the
    recorded coefficients, so the probe makes no transform.
    """
    for mu in mu_list:
        if not 0.0 < mu <= 1.0:
            raise ValueError(f"mu must lie in (0, 1], got {mu!r}")
    if traj.coeffs is None:
        raise ValueError("trajectory was recorded without snapshots")
    mask = traj.ledger.t >= t_min
    if not mask.any():
        raise ValueError(f"no records at or beyond t_min = {t_min}")
    times = traj.ledger.t[mask]
    tail = traj.coeffs[mask]
    A_eigs = traj.final_state.grid.A_eigs
    norms = {}
    for mu in mu_list:
        x = (A_eigs**mu * tail).reshape(times.size, -1)
        norms[mu] = np.sqrt((x * x).sum(axis=1))
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


def gradient_stall_check(traj):
    """Check that every energy stall happens at a (numerical) fixed point.

    Scans record pairs at least STALL_WINDOW apart; whenever
    |Y(t1) - Y(t0)| < STALL_TOL, the windowed vector-field residual (the
    smallest |u_t|_L2 over the records in [t0, t1], the witness that the
    window has reached a fixed point) must fall below RESIDUAL_TOL.
    Returns (all_ok, events).
    """
    t, Y, ut = traj.ledger.t, traj.ledger.Y, np.sqrt(traj.ledger.ut_l2_sq)
    stride = max(1, int(np.ceil(STALL_WINDOW / (t[1] - t[0])))) if t.size > 1 else 1
    events = []
    for i in range(0, t.size - stride):
        j = i + stride
        dY = abs(Y[j] - Y[i])
        if dY < STALL_TOL:
            residual = float(ut[i:j + 1].min())
            events.append(
                StallEvent(t0=float(t[i]), t1=float(t[j]), delta_Y=float(dY),
                           residual=residual, ok=bool(residual < RESIDUAL_TOL))
            )
    return all(e.ok for e in events), events


@dataclass(frozen=True)
class OmegaLimitReport:
    q_list: tuple
    tail_start: float
    per_q_max_distance: dict
    converged: bool
    limit_candidate: Field
    stall_ok: bool
    stall_events: tuple


def omega_limit_probe(u0: Field, p: ModelParams, cfg, q_list) -> OmegaLimitReport:
    """Integrate long and test the orbit tail for Cauchy behavior in V.

    For each q the records past q are compared pairwise in the V-norm,
    sqrt(sum_k V_k (c_k - c'_k)^2) over their coefficients; convergence
    means the deepest tail has at least one pair and all pairwise distances
    below CAUCHY_TOL.  One pass takes, for each record, its largest
    distance to the records after it; a tail's largest distance is the
    maximum of these over the tail's records.  The Lyapunov-stall
    criterion is verified on the same run.
    """
    if not cfg.keep_snapshots:
        raise ValueError("the tail test needs snapshots: keep_snapshots is False")
    q_list = tuple(sorted(float(q) for q in q_list))
    if q_list and q_list[-1] >= cfg.t_end:
        raise ValueError("largest q must lie inside the integration horizon")
    traj = integrate(u0, p, cfg)
    t = traj.ledger.t
    C = traj.coeffs.reshape(t.size, -1)
    V = u0.grid.V_eigs.ravel()
    # row[i]: the largest squared V-distance from record i to a later record;
    # the differences go into one buffer, so the pass holds one extra copy
    row = np.zeros(t.size)
    buf = np.empty_like(C[1:])
    for i in range(t.size - 1):
        d = np.subtract(C[i + 1:], C[i], out=buf[i:])
        d *= d
        row[i] = (d @ V).max()
    per_q = {}
    converged = False
    for q in q_list:
        start = int(np.searchsorted(t, q))  # the first record with t >= q
        per_q[q] = float(np.sqrt(row[start:].max(initial=0.0)))
        converged = t.size - start >= 2 and per_q[q] < CAUCHY_TOL
    stall_ok, events = gradient_stall_check(traj)
    return OmegaLimitReport(
        q_list=q_list,
        tail_start=q_list[-1] if q_list else 0.0,
        per_q_max_distance=per_q,
        converged=converged,
        limit_candidate=traj.final_state,
        stall_ok=stall_ok,
        stall_events=tuple(events),
    )
