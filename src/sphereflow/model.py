"""Nonlinearity and tangent-space projection of the constrained flow.

The evolution on the unit sphere M = {|u|_L2 = 1} is

    du/dt = pi_u(-lap^2 u + 2 lap u - a u - u^(2n-1))

with pi_u(h) = h - <h, u> u.  Expanding the projection on M gives the
equivalent form -A u + F(u) with

    F(u) = |u|_{H2}^2 u + 2 |u|_{H1}^2 u + |u|_{L2n}^{2n} u - u^(2n-1),

in which the linear coefficient a has cancelled, so the solver has no a.
``projected_rhs_direct`` evaluates the literal projection for any a, so
the agreement of both forms can be checked numerically.

Every term of F but the last is a number times u, so F is formed in one
pass over u's values as

    F(u) = u ((a_sq + s) - u^(2n-2)),   a_sq = |u|_{H2}^2 + 2 |u|_{H1}^2,
                                        s = |u|_{L2n}^{2n} = <u^(2n-2), u^2>,

and then takes one transform to coefficients; for n = 1 it is the number
(a_sq + s) - 1 times u and takes none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    DomainSpec,
    Field,
    SpectralGrid,
    apply_A,
    inner_l2,
    norm_l2,
    random_coeff_field,
    sobolev_norms_sq,
)

MANIFOLD_TOL = 1e-8


class ManifoldError(ValueError):
    """A state violated the unit-sphere precondition beyond tolerance."""


@dataclass(frozen=True)
class ModelParams:
    """Nonlinearity exponent n (a positive integer) and dealiasing policy.

    ``dealias=None`` evaluates u^(2n-1) on the native grid; an integer
    factor >= n zero-pads so the collocation power is alias-free.
    """

    n: int = 1
    dealias: int | None = None

    def __post_init__(self):
        # inf % 1 is nan: an infinite value fails the integer test, nan both
        if not (self.n >= 1 and self.n % 1 == 0):
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if self.dealias is not None:
            if not (self.dealias >= self.n and self.dealias % 1 == 0):
                raise ValueError(
                    f"zero-pad factor must be an integer >= n, got {self.dealias}"
                )
            object.__setattr__(self, "dealias", int(self.dealias))


def check_on_manifold(u: Field) -> None:
    r = norm_l2(u)
    if abs(r - 1.0) > MANIFOLD_TOL:
        raise ManifoldError(
            f"|u|_L2 = {r!r} is off the unit sphere by more than {MANIFOLD_TOL}"
        )


def renormalize(u: Field) -> Field:
    """Retraction onto the unit sphere: u / |u|_L2."""
    r = norm_l2(u)
    if r == 0.0:
        raise ValueError("cannot renormalize the zero field")
    return Field(u.grid, u.values / r)


# one kernel, Picard map or one-shot call uses one padded grid, so only the
# last is kept: a process that visits many grids holds one set of matrices
@functools.lru_cache(maxsize=1)
def _fine_grid(spec: DomainSpec, factor: int) -> SpectralGrid:
    return SpectralGrid(DomainSpec(
        spec.dim, spec.lengths, tuple(factor * n for n in spec.resolution)
    ))


def _raise_overflow(values: np.ndarray):
    i = tuple(int(x) for x in np.unravel_index(np.argmax(np.abs(values)), values.shape))
    raise OverflowError(
        f"u^(2n-1) overflowed; |u| peaks at index {i} with {float(values[i])!r}"
    )


class _Work:
    """F's handle: the ``grid`` and model ``p`` it is taken for, and the
    arrays it writes on, made once and rewritten by every stage, so that a
    caller that takes F many times on one grid allocates no grid-sized
    array in it.  ``fine`` is the grid F's values are formed on (zero-padded
    with dealiasing).  For n >= 2 there are u's values, u^2, the power
    u^(2n-2) for n > 2 (u^2 itself for n = 2), which a stage turns into F's
    values in place, and in 2D and 3D the middle product of each transform,
    all on ``fine``.  With dealiasing there is ``padded`` on ``fine``, whose
    modes past grid's stay zero; an n = 1 stage takes no transform and
    leaves it as made.  ``N`` is where F's coefficients go: u's values
    without dealiasing (they are dead by then), else an array of its own,
    into which the fine coefficients on grid's modes are copied (a ufunc
    that read them through the strided view would buffer a copy of its
    own).  ``factor`` is a float64 0-d array for F's factor (a_sq + s) or
    (a_sq + s) - 1: a ufunc takes it for the same bits as the Python float
    and without converting a scalar, which on a small grid costs about as
    much as the arithmetic."""

    def __init__(self, grid: SpectralGrid, p: ModelParams):
        self.grid, self.p, self.factor = grid, p, np.empty(())
        self.fine = grid if p.dealias is None else _fine_grid(grid.spec, p.dealias)
        shape = self.fine.shape
        self.values = self.power = self.square = self.mid = self.padded = None
        self.modes = tuple(map(slice, grid.shape))  # grid's modes among fine's
        if p.n > 1:
            self.values, self.square = np.empty(shape), np.empty(shape)
            self.power = self.square if p.n == 2 else np.empty(shape)
            if len(shape) > 1:
                self.mid = np.empty(shape)
        if p.dealias is not None:
            self.padded = np.zeros(shape)
        self.N = self.values if p.n > 1 and p.dealias is None else np.empty(grid.shape)


def _power(work: _Work, values: np.ndarray | None, coeffs: np.ndarray | None = None,
           a_sq: float | None = None) -> tuple[np.ndarray, float]:
    """(w, s) on ``work``'s grid and model, for s the integral of u^(2n)
    and w the power u^(2n-1), or given ``a_sq`` F's values
    u ((a_sq + s) - u^(2n-2)): the one place the power and the integral
    are computed from u's values, so <F(u), u> and the energy share the
    integral by construction.

    u is given by its ``values``, its ``coeffs`` or both.  With dealiasing
    both results are taken on the zero-padded grid, padded once from the
    coefficients (transformed here when not given), and w is returned
    there.  For n = 1 the power is u's values themselves, which callers
    only read, and F's values a new array; otherwise q = u^(2n-2) =
    (u^2)^(n-1) is a multiplication chain in ``work.power``, and w is
    q u, or u ((a_sq + s) - q), written over q: multiplication costs the
    same for either sign of u (pow is far slower on negative bases), and
    both are exactly odd in u.

    The integral is the quadrature of q u^2, so a non-finite power makes
    it non-finite and the overflow test looks at that one number; the
    caller holds ``np.errstate(over="ignore")`` so that the power
    overflows quietly and this test raises.
    """
    p, v = work.p, values
    if p.dealias is not None:
        work.padded[work.modes] = work.grid.to_coeffs(values) if coeffs is None else coeffs
        v = work.fine.to_values(work.padded, work.values, work.mid)
    elif v is None:
        v = work.grid.to_values(coeffs, work.values, work.mid)
    n = p.n
    if n == 1:
        s = work.fine.weight * float(work.fine.dot(v, v))
    else:
        sq = q = np.multiply(v, v, work.square)
        for _ in range(n - 2):
            q = np.multiply(q, sq, work.power)
        s = work.fine.weight * float(work.fine.dot(q, sq))
    if not math.isfinite(s):
        _raise_overflow(v)
    if n == 1:
        return (v if a_sq is None else np.multiply((a_sq + s) - 1.0, v)), s
    if a_sq is not None:
        work.factor[()] = a_sq + s
        q = np.subtract(work.factor, q, q)
    return np.multiply(v, q, q), s


def _grid_coeffs(work: _Work, x: np.ndarray) -> np.ndarray:
    """Coefficients on ``work``'s grid of x, values on ``work.fine`` that
    ``_power`` returned: in ``work.values`` (u's values are dead by then),
    or with dealiasing x's padded coefficients on the grid's modes, in
    ``work.N``."""
    P = work.fine.to_coeffs(x, work.values, work.mid)
    if work.p.dealias is None:
        return P
    work.N[...] = P[work.modes]
    return work.N


def _one_shot(u: Field, p: ModelParams, coeffs: np.ndarray | None = None,
              a_sq: float | None = None) -> np.ndarray:
    """``_power``'s w of u for a single call, in a workspace of its own, on
    u's grid: brought back from the padded grid through its truncated
    coefficients with dealiasing.  For n = 1 without dealiasing the power
    is u.values itself."""
    work = _Work(u.grid, p)
    with np.errstate(over="ignore"):
        w, _ = _power(work, u.values, coeffs, a_sq)
    if p.dealias is not None:
        w = u.grid.to_values(_grid_coeffs(work, w))
    return w


def power_term(u: Field, n: int, dealias: int | None = None) -> Field:
    """Pointwise odd power u^(2n-1), optionally dealiased by zero padding;
    n and dealias are checked as ModelParams checks them."""
    w = _one_shot(u, ModelParams(n=n, dealias=dealias))
    return Field._wrap(u.grid, w.copy() if w is u.values else w)


def l2n_power(u: Field, n: int, dealias: int | None = None) -> float:
    """The integral of u^{2n}, on the padded grid when dealiasing is active."""
    with np.errstate(over="ignore"):
        return _power(_Work(u.grid, ModelParams(n=n, dealias=dealias)), u.values)[1]


def _a_terms(grid: SpectralGrid, coeffs: np.ndarray,
             out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(A c, <A c, c>) for u's coefficients c on ``grid``: the linear term
    of the vector field, written into ``out`` (a new array when None), and
    |u|_H2^2 + 2|u|_H1^2 as the single Parseval sum of A_k c_k^2."""
    ac = np.multiply(grid.A_eigs, coeffs, out)
    return ac, float(grid.dot(ac, coeffs))


def _F_values(work: _Work, coeffs: np.ndarray, a_sq: float,
              values: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(N, s) on ``work``'s grid and model: the coefficients N of
    F(u) = u ((a_sq + s) - u^(2n-2)), for u's coefficients c, and the
    integral s of u^(2n), given ``a_sq = _a_terms(grid, c)[1]``,
    which the caller shares with the blow-up guard.

    For n = 1 F is the number (a_sq + s) - 1 times u, so N is that number
    times c, s is |c|^2 by Parseval, and F takes no transform.  For n >= 2
    ``_power`` forms F's values, on the padded grid with dealiasing, and F
    takes two transforms: u's values (none when the caller holds them as
    ``values``) and F's coefficients.  N is ``work.N``, which the next call
    with the same ``work`` overwrites.  The integral is returned so that
    energy records reuse it.  The caller holds ``np.errstate(over="ignore")``.
    """
    if work.p.n == 1:
        s = float(work.grid.dot(coeffs, coeffs))
        if not math.isfinite(s):
            _raise_overflow(work.grid.to_values(coeffs))
        work.factor[()] = (a_sq + s) - 1.0
        return np.multiply(work.factor, coeffs, work.N), s
    w, s = _power(work, values, coeffs, a_sq)
    return _grid_coeffs(work, w), s


def nonlinearity_F(u: Field, p: ModelParams) -> Field:
    """The four-term nonlinearity F(u) = u ((a_sq + s) - u^(2n-2)), taken
    on u's values by ``_power``, so it costs one transform and no more
    without dealiasing; every norm factor is quadrature-consistent with
    power_term so the discrete flow keeps the exact gradient structure.
    ``_F_values`` is the same F on coefficients."""
    grid = u.grid
    c = grid.to_coeffs(u.values)
    return Field._wrap(grid, _one_shot(u, p, c, _a_terms(grid, c)[1]))


def project_tangent(u: Field, h: Field) -> Field:
    """Orthogonal projection h - <h, u> u onto the tangent space at u in M."""
    check_on_manifold(u)
    return Field._wrap(u.grid, h.values - inner_l2(h, u) * u.values)


def projected_rhs(u: Field, p: ModelParams) -> Field:
    """Expanded projected vector field -A u + F(u); independent of a on M."""
    check_on_manifold(u)
    return nonlinearity_F(u, p) - apply_A(u)


def projected_rhs_direct(u: Field, p: ModelParams, a: float = 0.0) -> Field:
    """Literal projection pi_u(-A u - a u - u^(2n-1)) of the unexpanded field,
    for a linear coefficient a that the projection cancels on M."""
    return project_tangent(u, -apply_A(u) - a * u - power_term(u, p.n, p.dealias))


def rayleigh_quotient(u: Field) -> float:
    """<A u, u> / <u, u>; on M this is the Dirichlet quotient of A."""
    _, h1sq, h2sq = sobolev_norms_sq(u)
    return (h2sq + 2.0 * h1sq) / norm_l2(u) ** 2


def random_unit_field(grid: SpectralGrid, rng: np.random.Generator, decay: float = 3.0) -> Field:
    """Seeded random state on M: |k|^-decay spectral profile, L2-normalized."""
    return renormalize(random_coeff_field(grid, rng, decay))
