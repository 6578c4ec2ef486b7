"""Nonlinearity and tangent-space projection of the constrained flow.

The evolution on the unit sphere M = {|u|_L2 = 1} is

    du/dt = pi_u(-lap^2 u + 2 lap u - a u - u^(2n-1))

with pi_u(h) = h - <h, u> u.  Expanding the projection on M gives the
equivalent form -A u + F(u) with

    F(u) = |u|_{H2}^2 u + 2 |u|_{H1}^2 u + |u|_{L2n}^{2n} u - u^(2n-1),

in which the linear coefficient a has cancelled, so the solver has no a.
``projected_rhs_direct`` evaluates the literal projection for any a, so
the agreement of both forms can be checked numerically.
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
    _vdot,
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


@functools.cache
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
    """The arrays F writes on (grid, p), made once and rewritten by every
    stage, so that a caller that takes F many times on one grid allocates
    no grid-sized array in it.  ``fine`` is the grid the power is taken on
    (zero-padded with dealiasing).  For n >= 2 there are u's values, the
    power u^(2n-1), u^2 for n > 2, and in 2D and 3D the middle product of
    each transform, all on ``fine``.  With dealiasing there are ``padded``
    on ``fine``, whose modes past grid's stay zero, and ``truncated``, the
    power's coefficients on grid's modes, copied out of the padded ones (a
    ufunc that read them through the strided view would buffer a copy of
    its own); an n = 1 stage takes no transform and leaves both as made.
    ``N`` is where F's coefficients go: the power's array without
    dealiasing (the power is dead by then), else an array of its own."""

    def __init__(self, grid: SpectralGrid, p: ModelParams):
        self.fine = grid if p.dealias is None else _fine_grid(grid.spec, p.dealias)
        shape = self.fine.shape
        self.values = self.power = self.square = self.mid = None
        self.padded = self.truncated = None
        self.modes = tuple(map(slice, grid.shape))  # grid's modes among fine's
        if p.n > 1:
            self.values, self.power = np.empty(shape), np.empty(shape)
            # u^2 is the power itself for n = 2, which multiplies it by u in place
            self.square = self.power if p.n == 2 else np.empty(shape)
            if len(shape) > 1:
                self.mid = np.empty(shape)
        if p.dealias is not None:
            self.padded, self.truncated = np.zeros(shape), np.empty(grid.shape)
        self.N = self.power if p.n > 1 and p.dealias is None else np.empty(grid.shape)


def _power(grid: SpectralGrid, values: np.ndarray | None, p: ModelParams,
           coeffs: np.ndarray | None = None, work: _Work | None = None
           ) -> tuple[np.ndarray, float]:
    """(u^(2n-1) values, integral of u^(2n)): the one place both are
    computed from u's values, so <F(u), u> and the energy share the integral
    by construction.

    u is given by its ``values``, its ``coeffs`` or both.  With ``p.dealias``
    set both results are taken on the zero-padded grid, padded once from the
    coefficients (transformed here when not given), and the power is
    returned there.  For n = 1 on the native grid the power is u's values
    themselves, which callers only read; otherwise it is u * (u^2)^(n-1),
    multiplied into ``work.power``: multiplication costs the same for either
    sign of u (pow is far slower on negative bases), and the chain is
    exactly odd, (-u)^(2n-1) = -(u^(2n-1)).  ``work`` is a new
    ``_Work(grid, p)`` when not given.

    The integral is the quadrature of w * u for w = u^(2n-1), so a non-finite
    w makes it non-finite and the overflow test looks at that one number;
    the caller holds ``np.errstate(over="ignore")`` so that the power
    overflows quietly and this test raises.
    """
    work = _Work(grid, p) if work is None else work
    fine, v = work.fine, values
    if p.dealias is not None:
        work.padded[work.modes] = grid.to_coeffs(values) if coeffs is None else coeffs
        v = fine.to_values(work.padded, work.values, work.mid)
    elif v is None:
        v = grid.to_values(coeffs, work.values, work.mid)
    w = v
    if p.n > 1:
        sq = w = np.multiply(v, v, work.square)
        for _ in range(p.n - 2):
            w = np.multiply(w, sq, work.power)
        w *= v
    s = fine.weight * float(_vdot(w, v))
    if not math.isfinite(s):
        _raise_overflow(v)
    return w, s


def _power_coeffs(grid: SpectralGrid, w: np.ndarray, p: ModelParams,
                  work: _Work) -> np.ndarray:
    """Coefficients on grid of the power w that ``_power`` returned, in
    ``work.values`` (u's values are dead by then): with dealiasing, w's
    padded coefficients truncated to grid's modes, in ``work.truncated``."""
    P = work.fine.to_coeffs(w, work.values, work.mid)
    if p.dealias is None:
        return P
    work.truncated[...] = P[work.modes]
    return work.truncated


def power_term(u: Field, n: int, dealias: int | None = None) -> Field:
    """Pointwise odd power u^(2n-1), optionally dealiased by zero padding;
    n and dealias are checked as ModelParams checks them."""
    p = ModelParams(n=n, dealias=dealias)
    work = _Work(u.grid, p)
    with np.errstate(over="ignore"):
        w, _ = _power(u.grid, u.values, p, None, work)
    if p.dealias is not None:
        w = u.grid.to_values(_power_coeffs(u.grid, w, p, work))
    return Field._wrap(u.grid, w.copy() if w is u.values else w)


def l2n_power(u: Field, n: int, dealias: int | None = None) -> float:
    """The integral of u^{2n}, on the padded grid when dealiasing is active."""
    with np.errstate(over="ignore"):
        return _power(u.grid, u.values, ModelParams(n=n, dealias=dealias))[1]


def _a_terms(A_eigs: np.ndarray, coeffs: np.ndarray,
             out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(A c, <A c, c>) for u's coefficients c, given the grid's ``A_eigs``:
    the linear term of the vector field, written into ``out`` (a new array
    when None), and |u|_H2^2 + 2|u|_H1^2 as the single Parseval sum of
    A_k c_k^2."""
    ac = np.multiply(A_eigs, coeffs, out)
    return ac, float(_vdot(ac, coeffs))


def _F_values(grid: SpectralGrid, coeffs: np.ndarray, a_sq: float, p: ModelParams,
              values: np.ndarray | None = None, work: _Work | None = None
              ) -> tuple[np.ndarray, float]:
    """(N, s): the coefficients N = (a_sq + s) c - P of F(u), for u's
    coefficients c, and the integral s of u^(2n), given
    ``a_sq = _a_terms(grid.A_eigs, c)[1]``, which the caller shares with the
    blow-up guard.  P holds the coefficients of u^(2n-1).

    Every term of F but the power is a number times u, so only P needs
    transforms: for n = 1 P is c and s is |c|^2 by Parseval, and F takes
    none; for n >= 2 F takes two, u's values (none when the caller holds
    them as ``values``) and P, on the padded grid with dealiasing.  N is
    ``work.N``, which the next call with the same ``work`` overwrites (a
    new ``_Work(grid, p)`` when not given).  The integral is returned so
    that energy records reuse it.  The caller holds
    ``np.errstate(over="ignore")``.
    """
    work = _Work(grid, p) if work is None else work
    if p.n == 1:
        s = float(_vdot(coeffs, coeffs))
        if not math.isfinite(s):
            _raise_overflow(grid.to_values(coeffs))
        N = np.multiply(a_sq + s, coeffs, work.N)
        N -= coeffs
        return N, s
    w, s = _power(grid, values, p, coeffs, work)
    P = _power_coeffs(grid, w, p, work)
    N = np.multiply(a_sq + s, coeffs, work.N)
    N -= P
    return N, s


def nonlinearity_F(u: Field, p: ModelParams) -> Field:
    """The four-term nonlinearity F(u) = (a_sq + s) u - u^(2n-1), taken on
    u's values, so it costs one transform and no more without dealiasing;
    every norm factor is quadrature-consistent with power_term so the
    discrete flow keeps the exact gradient structure.  ``_F_values`` is the
    same F on coefficients."""
    grid = u.grid
    c = grid.to_coeffs(u.values)
    work = _Work(grid, p)
    with np.errstate(over="ignore"):
        w, s = _power(grid, u.values, p, c, work)
    if p.dealias is not None:
        w = grid.to_values(_power_coeffs(grid, w, p, work))
    return Field._wrap(grid, (_a_terms(grid.A_eigs, c)[1] + s) * u.values - w)


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
