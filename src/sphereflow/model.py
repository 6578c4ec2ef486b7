"""Nonlinearity and tangent-space projection of the constrained flow.

The evolution on the unit sphere M = {|u|_L2 = 1} is

    du/dt = pi_u(-lap^2 u + 2 lap u - a u - u^(2n-1))

with pi_u(h) = h - <h, u> u.  Expanding the projection on M gives the
equivalent form -A u + F(u) with

    F(u) = |u|_{H2}^2 u + 2 |u|_{H1}^2 u + |u|_{L2n}^{2n} u - u^(2n-1),

which is independent of the linear coefficient a.  Both forms are
implemented so their agreement can be checked numerically.
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
    """Nonlinearity exponent n (a positive integer), linear coefficient a and
    dealiasing policy.

    ``dealias=None`` evaluates u^(2n-1) on the native grid; an integer
    factor >= n zero-pads so the collocation power is alias-free.
    """

    n: int = 1
    a: float = 0.0
    dealias: int | None = None

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if self.dealias is not None:
            if int(self.dealias) != self.dealias or self.dealias < self.n:
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


@functools.cache
def _fine_grid(spec: DomainSpec, factor: int) -> SpectralGrid:
    return SpectralGrid(DomainSpec(
        spec.dim, spec.lengths, tuple(factor * n for n in spec.resolution)
    ))


def _odd_power(values: np.ndarray, n: int) -> np.ndarray:
    """u^(2n-1) for an integer n >= 2, as u * (u^2)^(n-1) multiplied in place.

    Multiplication costs the same for either sign of u (pow is far slower on
    negative bases), and the chain is exactly odd: (-u)^(2n-1) = -(u^(2n-1)).
    """
    w = values * values
    if n > 2:
        sq = w.copy()
        for _ in range(n - 2):
            w *= sq
    w *= values
    return w


def _raise_overflow(values: np.ndarray):
    i = tuple(int(x) for x in np.unravel_index(np.argmax(np.abs(values)), values.shape))
    raise OverflowError(
        f"u^(2n-1) overflowed; |u| peaks at index {i} with {float(values[i])!r}"
    )


def _power(grid: SpectralGrid, values: np.ndarray, p: ModelParams,
           coeffs: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(u^(2n-1) values, integral of u^(2n)): the one place both are
    computed, so <F(u), u> and the energy share the integral by construction.

    With ``p.dealias`` set both are taken on the zero-padded grid, padded
    once from ``coeffs`` (u's coefficients, transformed here when not given),
    and the power is returned there; a caller that uses it brings it back to
    grid with ``_truncate``.  For n = 1 on the native grid the power is
    ``values`` itself, which callers only read.

    The integral is the quadrature of w * u for w = u^(2n-1), so a non-finite
    w makes it non-finite and the overflow test looks at that one number;
    the caller holds ``np.errstate(over="ignore")`` so that the power
    overflows quietly and this test raises.
    """
    fine, v = grid, values
    if p.dealias is not None:
        if coeffs is None:
            coeffs = grid.to_coeffs(values)
        fine = _fine_grid(grid.spec, p.dealias)
        padded = np.zeros(fine.shape)
        padded[tuple(map(slice, grid.shape))] = coeffs
        v = fine.to_values(padded)
    w = v if p.n == 1 else _odd_power(v, p.n)
    s = fine.weight * float(np.vdot(w, v))
    if not math.isfinite(s):
        _raise_overflow(v)
    return w, s


def _truncate(grid: SpectralGrid, w: np.ndarray, factor: int) -> np.ndarray:
    """Values on grid of w, given on the factor-times-padded grid: w's
    coefficients truncated to grid's modes."""
    fine = _fine_grid(grid.spec, factor)
    return grid.to_values(fine.to_coeffs(w)[tuple(map(slice, grid.shape))])


def power_term(u: Field, n: int, dealias: int | None = None) -> Field:
    """Pointwise odd power u^(2n-1), optionally dealiased by zero padding;
    n and dealias are checked as ModelParams checks them."""
    p = ModelParams(n=n, dealias=dealias)
    with np.errstate(over="ignore"):
        w, _ = _power(u.grid, u.values, p)
    if p.dealias is not None:
        w = _truncate(u.grid, w, p.dealias)
    return Field._wrap(u.grid, w.copy() if w is u.values else w)


def l2n_power(u: Field, n: int, dealias: int | None = None) -> float:
    """The integral of u^{2n}, on the padded grid when dealiasing is active."""
    with np.errstate(over="ignore"):
        return _power(u.grid, u.values, ModelParams(n=n, dealias=dealias))[1]


def _a_terms(grid: SpectralGrid, coeffs: np.ndarray) -> tuple[np.ndarray, float]:
    """(A c, <A c, c>) for u's coefficients c: the linear term of the vector
    field and |u|_H2^2 + 2|u|_H1^2 as the single Parseval sum of A_k c_k^2."""
    ac = grid.A_eigs * coeffs
    return ac, float(np.vdot(ac, coeffs))


def _F_values(grid: SpectralGrid, values: np.ndarray, coeffs: np.ndarray,
              a_sq: float, p: ModelParams) -> tuple[np.ndarray, float]:
    """(F(u) values, integral of u^(2n)) given both representations of u and
    ``a_sq = _a_terms(grid, coeffs)[1]``, which the caller shares with the
    blow-up guard.

    The integral is returned so that energy records reuse it.  The caller
    holds ``np.errstate(over="ignore")``, as for ``_power``.
    """
    w, s = _power(grid, values, p, coeffs)
    if p.dealias is not None:
        w = _truncate(grid, w, p.dealias)
    return (a_sq + s) * values - w, s


def nonlinearity_F(u: Field, p: ModelParams) -> Field:
    """The four-term nonlinearity F(u); every norm factor is quadrature-consistent
    with power_term so the discrete flow keeps the exact gradient structure."""
    grid = u.grid
    c = grid.to_coeffs(u.values)
    with np.errstate(over="ignore"):
        f, _ = _F_values(grid, u.values, c, _a_terms(grid, c)[1], p)
    return Field._wrap(grid, f)


def project_tangent(u: Field, h: Field) -> Field:
    """Orthogonal projection h - <h, u> u onto the tangent space at u in M."""
    check_on_manifold(u)
    return Field._wrap(u.grid, h.values - inner_l2(h, u) * u.values)


def projected_rhs(u: Field, p: ModelParams) -> Field:
    """Expanded projected vector field -A u + F(u); independent of a on M."""
    check_on_manifold(u)
    return nonlinearity_F(u, p) - apply_A(u)


def projected_rhs_direct(u: Field, p: ModelParams) -> Field:
    """Literal projection pi_u(-A u - a u - u^(2n-1)) of the unexpanded field."""
    g = unprojected_rhs(u, p)
    return project_tangent(u, g)


def unprojected_rhs(u: Field, p: ModelParams) -> Field:
    """The raw right-hand side -A u - a u - u^(2n-1) before any projection."""
    return -apply_A(u) - p.a * u - power_term(u, p.n, p.dealias)


def rayleigh_quotient(u: Field) -> float:
    """<A u, u> / <u, u>; on M this is the Dirichlet quotient of A."""
    _, h1sq, h2sq = sobolev_norms_sq(u)
    return (h2sq + 2.0 * h1sq) / norm_l2(u) ** 2


def random_unit_field(grid: SpectralGrid, rng: np.random.Generator, decay: float = 3.0) -> Field:
    """Seeded random state on M: |k|^-decay spectral profile, L2-normalized."""
    u = random_coeff_field(grid, rng, decay)
    r = norm_l2(u)
    if r == 0.0:
        raise ValueError("degenerate zero sample")
    return Field(grid, u.values / r)
