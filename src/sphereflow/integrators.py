"""Time integration of the projected flow with manifold retraction.

Every scheme runs through one kernel that marches the coefficients c of u.
A stage evaluates the vector field k = N - A c, N being the coefficients of
F(u), and a scheme is only its stage coefficients (a, b) in ``TABLEAUS``:

    c_i = c + h sum_j a[i-1][j] k_j    state of stage i >= 1 (stage 0 at c)
    c+  = c + h sum_j b[j] k_j         explicit: projected Euler, RK4
    c+  = exp(-hA) c + h b[0](hA) N_0  exponential (b a function of hA): ETD1

ETD1 is exact on the stiff linear part; the explicit schemes are subject to
the stability limit h <~ 2 / mu_max.  A per-step L2 renormalization (the
cheapest retraction consistent with the invariance of the unit sphere) is
applied by default, and a blow-up guard turns runaway V-norms into errors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import energy
from .model import ModelParams, _F_values
from .spectral import Field, coeff_norms_sq, norm_l2, phi1


# scheme -> (a, b) as in the module docstring
TABLEAUS = {
    "etd1": ((), (phi1,)),
    "projected_euler": ((), (1.0,)),
    "rk4": (((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1 / 6, 1 / 3, 1 / 3, 1 / 6)),
}
SCHEMES = tuple(TABLEAUS)
V_NORM_LIMIT = 1e8  # the blow-up guard trips above this V-norm


class BlowUpError(RuntimeError):
    """The V-norm crossed the blow-up guard; carries the last valid state."""

    def __init__(self, message, t=None, last_state=None):
        super().__init__(message)
        self.t = t
        self.last_state = last_state


def divides(h: float, t_end: float) -> bool:
    """Whether a whole number of steps h ends at t_end, to 1e-9 relative."""
    return abs(round(t_end / h) * h - t_end) <= 1e-9 * t_end


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "etd1"
    h: float = 1e-3
    t_end: float = 1.0
    renormalize: bool = True
    record_every: int = 1
    keep_snapshots: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.h <= 0:
            raise ValueError("step size must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if not divides(self.h, self.t_end):
            raise ValueError(f"step h = {self.h!r} does not divide t_end = {self.t_end!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


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


class _Kernel:
    """One scheme for one grid, model and step size, with the h-dependent
    weights computed once.  A stage is the tuple (values, N, k, s): u at the
    stage state, N, k = N - A c and the integral s of u^(2n) as F took it.
    Callers hold ``np.errstate(over="ignore")`` around their steps."""

    def __init__(self, scheme: str, grid, p: ModelParams, h: float):
        a, b = TABLEAUS[scheme]
        self.grid, self.p = grid, p
        # the nonzero (j, h a_ij) of each stage row
        self.ha = [[(j, h * x) for j, x in enumerate(row) if x] for row in a]
        if callable(b[0]):
            z = h * grid.A_eigs
            self.decay, self.hb = np.exp(-z), [h * f(z) for f in b]
        else:
            self.decay, self.hb = None, [h * x for x in b]

    def stage(self, c: np.ndarray, values: np.ndarray | None = None) -> tuple:
        grid = self.grid
        if values is None:
            values = grid.to_values(c)
        ac = grid.A_eigs * c
        f, s = _F_values(grid, values, c, ac, self.p)
        n = grid.to_coeffs(f)
        return values, n, n - ac, s

    def advance(self, c: np.ndarray, first: tuple) -> np.ndarray:
        """The next coefficients, given ``first = stage(c)``.  Sums run left
        to right from c: c + h x_0 k_0 + h x_1 k_1 + ..."""
        if self.decay is not None:
            return self.decay * c + self.hb[0] * first[1]
        ks = [first[2]]
        for row in self.ha:
            ci = c
            for j, x in row:
                ci = ci + x * ks[j]
            ks.append(self.stage(ci)[2])
        out = c
        for x, k in zip(self.hb, ks):
            out = out + x * k
        return out


def _guard(grid, c: np.ndarray, t: float, last_values: np.ndarray) -> None:
    """Raise BlowUpError if the V-norm of the state c reached at time t is
    not finite or exceeds V_NORM_LIMIT; ``last_values`` is the state before it."""
    vn_sq = float(np.vdot(grid.V_eigs * c, c))
    if not math.isfinite(vn_sq) or vn_sq > V_NORM_LIMIT**2:
        raise BlowUpError(
            f"blow-up at t = {t:.6g}: V-norm {math.sqrt(max(vn_sq, 0.0))!r} "
            f"exceeded {V_NORM_LIMIT:g}",
            t=t, last_state=Field._wrap(grid, last_values),
        )


def _one_step(scheme, u: Field, p: ModelParams, h: float) -> Field:
    if h <= 0:
        raise ValueError("step size must be positive")
    grid = u.grid
    kernel = _Kernel(scheme, grid, p, h)
    c = grid.to_coeffs(u.values)
    with np.errstate(over="ignore"):
        out = kernel.advance(c, kernel.stage(c, u.values))
        _guard(grid, out, h, u.values)
    return Field._wrap(grid, grid.to_values(out))


def step_etd1(u: Field, p: ModelParams, h: float) -> Field:
    """One exponential Euler step, exact on the linear part."""
    return _one_step("etd1", u, p, h)


def step_projected_euler(u: Field, p: ModelParams, h: float) -> Field:
    """One explicit Euler step of the projected vector field."""
    return _one_step("projected_euler", u, p, h)


def step_rk4(u: Field, p: ModelParams, h: float) -> Field:
    """One classical RK4 step of the projected vector field."""
    return _one_step("rk4", u, p, h)


def integrate(u0: Field, p: ModelParams, cfg: StepperConfig) -> TrajectoryRecord:
    """Advance the projected flow from renormalize(u0) to t_end.

    The state marches in coefficient space (so unexcited high modes decay
    to the dynamical floor instead of being pinned at transform roundoff).
    Every ``record_every`` steps and at t_end it records an energy report,
    the norm drift | |u|_L2^2 - 1 | and optionally a snapshot, all from the
    first stage of the next step, so a record costs no transform.  The
    dissipation integral is the trapezoid of |u_t|^2 over every step, with
    u_t = -A u + F(u).  Raises BlowUpError carrying the last valid state and
    time if the guard trips.
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
    kernel = _Kernel(cfg.scheme, grid, p, h)

    c = grid.to_coeffs(u0.values)
    r = math.sqrt(np.vdot(c, c))
    if r == 0.0:
        raise ValueError("cannot renormalize the zero field")
    c = c / r

    times, reports, drifts, snaps = [], [], [], [] if cfg.keep_snapshots else None
    dissipation = 0.0
    with np.errstate(over="ignore"):  # _F_values raises on an overflowing power
        stage = kernel.stage(c)
        for i in range(n_steps + 1):
            values, _, k, s = stage
            ut_sq = float(np.vdot(k, k))
            if i:
                dissipation += 0.5 * h * (prev_ut_sq + ut_sq)
            prev_ut_sq = ut_sq
            if i % cfg.record_every == 0 or i == n_steps:
                u = Field._wrap(grid, values)
                sums = coeff_norms_sq(grid, c)
                times.append(i * h)
                reports.append(energy.make_report(u, p, i * h, ut_sq, dissipation, sums, s))
                drifts.append(abs(sums[0] - 1.0))
                if snaps is not None:
                    snaps.append(u)
            if i == n_steps:
                break
            c = kernel.advance(c, stage)
            _guard(grid, c, (i + 1) * h, values)
            if cfg.renormalize:
                c = c / math.sqrt(np.vdot(c, c))
            stage = kernel.stage(c)

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
    errors: tuple
    h_list: tuple


def convergence_order_probe(u0: Field, p: ModelParams, scheme: str, h_list,
                            t_end: float = 0.05) -> OrderEstimate:
    """Estimate the convergence order of a scheme by Richardson comparison.

    Runs the retracted scheme at each h in ``h_list`` (geometric, at least
    three entries) against an RK4 reference at min(h) / 16 and returns the
    least-squares slope of log error versus log h.
    """
    h_list = sorted(float(h) for h in h_list)
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")

    def config(name, h):
        return StepperConfig(scheme=name, h=h, t_end=t_end, record_every=10**9,
                             keep_snapshots=False)

    # every step is checked against t_end before the first run
    ref_cfg = config("rk4", h_list[0] / 16)
    cfgs = [config(scheme, h) for h in h_list]
    ref = integrate(u0, p, ref_cfg).final_state
    errors = [norm_l2(integrate(u0, p, cfg).final_state - ref) for cfg in cfgs]
    x = np.log(np.asarray(h_list))
    y = np.log(np.asarray(errors))
    A = np.vstack([x, np.ones_like(x)]).T
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    return OrderEstimate(order=float(coef[0]), errors=tuple(errors), h_list=tuple(h_list))
