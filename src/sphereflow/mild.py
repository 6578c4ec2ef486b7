"""Constructive fixed-point machinery for the mild formulation.

A mild solution satisfies the variation-of-constants equation

    u(t) = S(t) u0 + integral_0^t S(t-p) F(u(p)) dp,       S(t) = exp(-t A).

The truncated fixed-point map

    Phi(u)(t) = S(t) u0 + integral_0^t theta_m(|u|_{X_p}) S(t-p) F(u(p)) dp

deactivates the nonlinearity once the running space-time norm |u|_{X_p}
crosses 2m, which makes Phi a contraction on a short interval.  Picard
iteration of Phi realizes the fixed-point construction on a uniform time
grid; the per-mode convolution integrals are evaluated exactly for data
that is piecewise linear in time, so stiffness causes no order reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .model import ModelParams, check_on_manifold
from .spectral import (Field, SpectralGrid, _grid_array, phi_weights, random_coeff_field,
                       semigroup_factors)


PICARD_POINTS = 40  # uniform times on [0, T] of a Picard iterate
PICARD_MAX_ITER = 100  # Picard iterations before picard_solve stops unconverged


class NonContractionError(RuntimeError):
    """Picard distances stopped decreasing; the horizon T is too large."""


@dataclass(frozen=True)
class TruncationTheta:
    """Piecewise-linear cutoff: 1 on [0, m], 0 beyond 2m, slope -1/m between.

    The piecewise-linear shape is the simplest profile that is 1 on [0, m],
    0 past 2m and has slope bounded below by -1/m, with the Lipschitz bound
    |theta_m(x) - theta_m(y)| <= |x - y| / m attained on [m, 2m].
    """

    m: float

    def __post_init__(self):
        if not 0 < self.m < np.inf:
            raise ValueError(f"truncation level must be positive and finite, got {self.m}")


def theta_eval(th: TruncationTheta, x):
    """Evaluate the cutoff at x >= 0, a float for a scalar x and an array
    for an array; NaN or x < 0 raises.  The array's own ``min`` (NaN fails
    the test) and np.minimum and np.maximum in place of np.all and np.clip
    give the same bits at about half the cost of a 4-element call."""
    x = np.asarray(x, dtype=float)
    if not x.min(initial=np.inf) >= 0:
        raise ValueError("theta is defined on nonnegative arguments, got NaN or x < 0")
    out = np.minimum(np.maximum(2.0 - x / th.m, 0.0), 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass
class SpaceTimeGrid:
    """A trajectory candidate: uniform times with per-time coefficient slots.

    The coefficients are taken as Field and SpectralField take theirs: a
    float copy, shaped like the grid (or flat) in each time slot, finite.
    """

    grid: SpectralGrid
    times: np.ndarray
    coeffs: np.ndarray  # shape (n_times,) + grid.shape

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.size < 2 or self.times[0] != 0.0:
            raise ValueError("time grid must start at 0 and hold at least 2 points")
        dt = np.diff(self.times)
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=0.0) or not 0 < dt[0] < np.inf:
            raise ValueError("time grid must be uniform, increasing and finite")
        self.coeffs = _grid_array(self.grid, self.coeffs, "coefficients", self.times.size)

    @classmethod
    def _wrap(cls, grid, times, coeffs):
        # fast path for grids derived from a validated one; skips validation
        obj = object.__new__(cls)
        obj.grid = grid
        obj.times = times
        obj.coeffs = coeffs
        return obj

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @classmethod
    def from_semigroup(cls, u0: Field, times) -> "SpaceTimeGrid":
        """The free evolution S(t) u0 sampled on the time grid."""
        times, grid = np.asarray(times, dtype=float), u0.grid
        return cls(grid, times, semigroup_factors(grid, times) * grid.to_coeffs(u0.values))


def _squares(st: SpaceTimeGrid, out=None) -> np.ndarray:
    """Squared coefficients, one row per time slot; written into ``out``
    (an array shaped like ``st.coeffs``) when it is given."""
    c = st.coeffs.reshape(st.times.size, -1)
    return np.multiply(c, c, out=None if out is None else out.reshape(c.shape))


def _v_norms_sq(st: SpaceTimeGrid, sq: np.ndarray) -> np.ndarray:
    return sq @ st.grid.V_eigs.ravel()


def _e_norms_sq(st: SpaceTimeGrid, sq: np.ndarray) -> np.ndarray:
    return sq @ (st.grid.A_eigs**2).ravel()


def _running_xt_sq(st: SpaceTimeGrid, scratch=None) -> np.ndarray:
    """|u|_{X_t}^2 up to each grid time: running sup of the squared V-norm
    plus the running trapezoid of |A u|_{L2}^2.  ``scratch`` (shaped like
    ``st.coeffs``) holds the squared coefficients when given."""
    sq = _squares(st, scratch)
    v = _v_norms_sq(st, sq)
    e = _e_norms_sq(st, sq)
    running_int = np.concatenate(
        ([0.0], np.cumsum(0.5 * st.dt * (e[1:] + e[:-1])))
    )
    return np.maximum.accumulate(v) + running_int


def xt_norm(st: SpaceTimeGrid) -> float:
    """Space-time norm: sqrt(sup_t ||u(t)||_V^2 + integral |A u|_{L2}^2 dt)."""
    return float(np.sqrt(_running_xt_sq(st)[-1]))


def sup_v_distance(a: SpaceTimeGrid, b: SpaceTimeGrid, scratch=None) -> float:
    diff = SpaceTimeGrid._wrap(a.grid, a.times, np.subtract(a.coeffs, b.coeffs, out=scratch))
    # the difference (in ``scratch`` when given) is a temporary: squared in place
    return float(np.sqrt(_v_norms_sq(diff, _squares(diff, diff.coeffs)).max()))


def xt_distance(a: SpaceTimeGrid, b: SpaceTimeGrid) -> float:
    return xt_norm(SpaceTimeGrid._wrap(a.grid, a.times, a.coeffs - b.coeffs))


def convolve_semigroup(f: SpaceTimeGrid, out=None) -> SpaceTimeGrid:
    """u(t_i) = integral_0^{t_i} S(t_i - p) f(p) dp, exact for f piecewise
    linear in time, via the per-mode recurrence

        u_i = e^(-mu h) u_{i-1} + h (phi1 - phi2)(mu h) f_{i-1} + h phi2(mu h) f_i,

    written into ``out`` (shaped like ``f.coeffs``, not aliasing it) when given.
    """
    decay, w_left, w_right = phi_weights(f.grid, f.dt, "decay", "h_phi1_phi2", "h_phi2")
    fc = f.coeffs
    out = np.empty_like(fc) if out is None else out
    out[0] = 0.0
    tmp = np.empty_like(decay)
    # slot by slot into ``out``: no temporary the size of the trajectory
    for i in range(1, f.times.size):
        o = out[i]
        np.multiply(w_left, fc[i - 1], out=o)
        o += np.multiply(w_right, fc[i], out=tmp)
        o += np.multiply(decay, out[i - 1], out=tmp)
    return SpaceTimeGrid._wrap(f.grid, f.times, out)


def phi_map(u: SpaceTimeGrid, free: SpaceTimeGrid, th: TruncationTheta, p: ModelParams,
            *, out=None, scratch=None) -> SpaceTimeGrid:
    """One application of the truncated fixed-point map Phi.

    ``free`` is the free evolution S(t) u0 on ``u.times``
    (``SpaceTimeGrid.from_semigroup(u0, u.times)``), which a caller that
    applies Phi repeatedly builds once.  A caller may pass arrays shaped
    like ``u.coeffs`` for the result (``out``) and for the transformed
    nonlinearity (``scratch``), neither aliasing ``u.coeffs``.
    """
    if free.times is not u.times and not np.array_equal(free.times, u.times):
        raise ValueError("free evolution is sampled on a different time grid")
    grid = u.grid
    fc = np.empty_like(u.coeffs) if scratch is None else scratch
    # fc holds the squared coefficients until the loop below overwrites it
    theta = theta_eval(th, np.sqrt(_running_xt_sq(u, scratch=fc)))
    # one workspace of F serves every slot of the map
    work = model._Work(grid, p)
    with np.errstate(over="ignore"):  # _F_values raises on an overflowing power
        for i, c in enumerate(u.coeffs):
            # A c goes to the slot's row of fc, which then takes F; both calls
            # go through the module, so that wrappers of model._F_values see them
            a_sq = model._a_terms(grid, c, fc[i])[1]
            fc[i] = model._F_values(work, c, a_sq)[0]
    fc *= theta.reshape((-1,) + (1,) * len(grid.shape))
    out = convolve_semigroup(SpaceTimeGrid._wrap(grid, u.times, fc), out).coeffs
    out += free.coeffs
    return SpaceTimeGrid._wrap(grid, u.times, out)


def _check_horizon(T: float) -> None:
    if not 0 < T < np.inf:
        raise ValueError(f"horizon T must be positive and finite, got {T!r}")


def contraction_factor_probe(u0: Field, th: TruncationTheta, p: ModelParams,
                             T: float, samples: int = 8, seed: int = 0) -> float:
    """Sampled Lipschitz factor of Phi in the space-time (X_T) metric.

    Draws pairs of trajectories on PICARD_POINTS uniform times that deviate
    from the free evolution by independent time-constant perturbations
    (|k|^-3 spectra, unit V norm) and returns the largest observed ratio
    ||Phi(u1) - Phi(u2)||_{X_T} / ||u1 - u2||_{X_T}.  The factor decays
    like sqrt(T) as the horizon shrinks, which is the contraction
    mechanism behind the fixed-point construction.
    """
    _check_horizon(T)
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, T, PICARD_POINTS)
    base = SpaceTimeGrid.from_semigroup(u0, times)

    def perturbed():
        w = random_coeff_field(u0.grid, rng)
        wc = u0.grid.to_coeffs(w.values)
        vn = np.sqrt(float((u0.grid.V_eigs * wc**2).sum()))
        return SpaceTimeGrid._wrap(u0.grid, base.times, base.coeffs + wc / vn)

    worst = 0.0
    for _ in range(samples):
        u1, u2 = perturbed(), perturbed()
        d = xt_distance(u1, u2)
        if d == 0.0:
            continue
        d_img = xt_distance(phi_map(u1, base, th, p), phi_map(u2, base, th, p))
        worst = max(worst, d_img / d)
    return worst


@dataclass
class PicardResult:
    """Converged trajectory plus the per-iteration contraction diagnostics."""

    solution: SpaceTimeGrid
    distances: np.ndarray
    factors: np.ndarray
    iterations: int
    converged: bool


def picard_solve(u0: Field, th: TruncationTheta, p: ModelParams, T: float,
                 tol: float = 1e-10, num_points: int = PICARD_POINTS) -> PicardResult:
    """Iterate u_{j+1} = Phi(u_j) from the free evolution u_0 = S(.) u0.

    Stops when the successive sup-V distance drops below ``tol``, or
    unconverged after PICARD_MAX_ITER iterations.  Two consecutive
    increases of the distance raise NonContractionError, which advises a
    smaller horizon T, and so does a diverged iterate: F overflows on it,
    or its distance from the finite iterate before it is not finite, as it
    is whenever it holds a NaN or inf entry.
    """
    _check_horizon(T)
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    check_on_manifold(u0)
    times = np.linspace(0.0, T, num_points)
    free = SpaceTimeGrid.from_semigroup(u0, times)
    # the iterate before current and one scratch array are reused, so the
    # loop allocates no trajectory-sized array after its second iteration
    current, spare, scratch = free, None, np.empty_like(free.coeffs)
    distances = []
    for _ in range(PICARD_MAX_ITER):
        try:
            nxt = phi_map(current, free, th, p, out=spare, scratch=scratch)
            d = sup_v_distance(nxt, current, scratch)
        except OverflowError:
            d = np.inf
        if not np.isfinite(d):
            raise NonContractionError(f"Picard iterate diverged on [0, {T}]; use a smaller T")
        distances.append(d)
        current, spare = nxt, (None if current is free else current.coeffs)
        if d < tol:
            break
        if len(distances) >= 3 and distances[-1] > distances[-2] > distances[-3]:
            raise NonContractionError(
                f"Picard distances are increasing on [0, {T}] "
                f"({distances[-3]:.3e} -> {distances[-1]:.3e}); use a smaller T"
            )
    distances = np.asarray(distances)
    factors = distances[1:] / distances[:-1] if distances.size > 1 else np.array([])
    return PicardResult(
        solution=current,
        distances=distances,
        factors=factors,
        iterations=len(distances),
        converged=bool(distances[-1] < tol),
    )
