"""Long-double oracle of the discrete flow.

Literal ``np.longdouble`` versions of the orthonormal sine transform, the
nonlinearity F (any n, with or without dealiasing), one step of each
scheme of ``integrators.TABLEAUS`` (with the exact rational RK4 weights),
the L2 retraction and the energy ledger.  They share no code with the
package: each is written out from the formulas of the README, so their
float64 counterparts can be scored against them.  Where long double is
plain double (``HAVE_LONG_DOUBLE`` false) the oracle tests skip.

``relative_error(got, exact)`` is the largest |got - exact| relative to the
largest |exact|, the measure of every budget.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

LD = np.longdouble
HAVE_LONG_DOUBLE = np.finfo(LD).eps < 1e-18
PI = LD("3.14159265358979323846264338327950288419716939937510")


def relative_error(got, exact) -> float:
    exact = np.asarray(exact, dtype=LD)
    scale = np.max(np.abs(exact))
    err = np.max(np.abs(np.asarray(got, dtype=LD) - exact))
    return float(err / scale) if scale else float(err)


def sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix of size n, in long double."""
    j = np.arange(1, n + 1)
    jk = (np.outer(j, j) % (2 * (n + 1))).astype(LD)
    return np.sqrt(LD(2) / (n + 1)) * np.sin(PI * jk / (n + 1))


class Grid:
    """A box grid in long double: the per-axis sine matrices, the
    quadrature weight, the -Laplacian eigenvalues ``lap`` and A's ``A``."""

    def __init__(self, lengths, shape):
        self.lengths, self.shape = tuple(lengths), tuple(shape)
        self.weight = math.prod((LD(L) / (n + 1) for L, n in zip(lengths, shape)), start=LD(1))
        self.mats = [sine_matrix(n) for n in shape]
        self.lap = reduce(np.add.outer, [(np.arange(1, n + 1, dtype=LD) * PI / LD(L)) ** 2
                                         for L, n in zip(lengths, shape)])
        self.A = self.lap**2 + 2 * self.lap

    def padded(self, factor: int) -> "Grid":
        return Grid(self.lengths, tuple(factor * n for n in self.shape))

    def _sine(self, x):
        x = np.asarray(x, dtype=LD)
        for axis, m in enumerate(self.mats):
            x = np.moveaxis(np.tensordot(m, x, axes=(1, axis)), 0, axis)
        return x

    def to_coeffs(self, values):
        return self._sine(values) * np.sqrt(self.weight)

    def to_values(self, coeffs):
        return self._sine(coeffs) / np.sqrt(self.weight)


def F(grid: Grid, c, n: int, dealias: int | None = None):
    """(N, s): the coefficients N = (|u|_H2^2 + 2|u|_H1^2 + s) c - P of F(u)
    and s, the quadrature of u^(2n), with P the coefficients of u^(2n-1)
    truncated to grid's modes; both on the grid zero-padded by ``dealias``."""
    c = np.asarray(c, dtype=LD)
    fine = grid if dealias is None else grid.padded(dealias)
    padded = np.zeros(fine.shape, dtype=LD)
    modes = tuple(map(slice, grid.shape))
    padded[modes] = c
    v = fine.to_values(padded)
    w = v ** (2 * n - 1)
    s = fine.weight * np.sum(w * v)
    P = fine.to_coeffs(w)[modes]
    return (np.sum(grid.A * c * c) + s) * c - P, s


def stage(grid, c, n, dealias=None):
    """(N, k, s) at c, with k = N - A c."""
    N, s = F(grid, c, n, dealias)
    return N, N - grid.A * c, s


# the Butcher weights of the explicit schemes, exact in long double
EXPLICIT = {
    "projected_euler": ((), (LD(1),)),
    "rk4": (((LD(1) / 2,), (LD(0), LD(1) / 2), (LD(0), LD(0), LD(1))),
            (LD(1) / 6, LD(1) / 3, LD(1) / 3, LD(1) / 6)),
}


def phi1(z):
    z = np.asarray(z, dtype=LD)
    return -np.expm1(-z) / z


def step(grid, c, n, dealias, scheme, h, first=None):
    """One step of ``scheme`` from c, given ``first = stage(c)`` or not."""
    c, h = np.asarray(c, dtype=LD), LD(h)
    first = stage(grid, c, n, dealias) if first is None else first
    if scheme == "etd1":
        z = h * grid.A
        return np.exp(-z) * c + h * phi1(z) * first[0]
    a, b = EXPLICIT[scheme]
    ks = [first[1]]
    for row in a:
        ci = c + h * sum(x * k for x, k in zip(row, ks))
        ks.append(stage(grid, ci, n, dealias)[1])
    return c + h * sum(x * k for x, k in zip(b, ks))


def retract(c):
    c = np.asarray(c, dtype=LD)
    return c / np.sqrt(np.sum(c * c))


def norms_sq(grid, c):
    """(|u|^2, |grad u|^2, |lap u|^2) as Parseval sums."""
    c2 = np.asarray(c, dtype=LD) ** 2
    return np.sum(c2), np.sum(grid.lap * c2), np.sum(grid.lap**2 * c2)


COLUMNS = ("t", "l2_norm", "h1_seminorm_sq", "h2_seminorm_sq", "l2n_pow", "Y",
           "ut_l2_sq", "dissipation_integral", "energy_residual")


def ledger_row(grid, c, n, t, ut_sq, dissipation, s):
    l2sq, h1sq, h2sq = norms_sq(grid, c)
    return (LD(t), np.sqrt(l2sq), h1sq, h2sq, s,
            (l2sq + 2 * h1sq + h2sq) / 2 + s / (2 * n), ut_sq, dissipation)


def integrate(grid, coeffs, n, dealias, scheme, h, steps, record_every):
    """The retracted run of ``integrate`` from the coefficients ``coeffs``
    of u0: a dict of the ``timeseries.csv`` columns (``COLUMNS``) and the
    final coefficients."""
    c = retract(coeffs)
    rows, dissipation = [], LD(0)
    st = stage(grid, c, n, dealias)
    for i in range(steps + 1):
        ut_sq = np.sum(st[1] ** 2)
        if i:
            dissipation += LD(h) / 2 * (prev + ut_sq)
        prev = ut_sq
        if i % record_every == 0 or i == steps:
            rows.append(ledger_row(grid, c, n, i * h, ut_sq, dissipation, st[2]))
        if i == steps:
            break
        c = retract(step(grid, c, n, dealias, scheme, h, st))
        st = stage(grid, c, n, dealias)
    cols = dict(zip(COLUMNS, map(np.array, zip(*rows))))
    cols["energy_residual"] = np.abs(cols["Y"] - cols["Y"][0] + cols["dissipation_integral"])
    return cols, c
