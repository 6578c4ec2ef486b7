"""Spectral discretization of A = Laplacian^2 - 2*Laplacian on a box.

The sine basis (Navier conditions u = lap(u) = 0 on the boundary)
diagonalizes A exactly, so transforms, the semigroup exp(-t*A), fractional
powers A^mu and all Sobolev (semi)norms reduce to per-mode arithmetic on
real coefficient arrays.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

# axis sizes up to this use a precomputed dense orthogonal transform matrix,
# which beats the FFT call overhead for the small grids used in probes
_DENSE_AXIS_LIMIT = 256

# np.vdot without its __array_function__ dispatch, which costs about a third
# of a 64-point dot; a step takes several dots of plain arrays
_vdot = getattr(np.vdot, "__wrapped__", np.vdot)

# OpenBLAS threads ddot somewhere above 10^4 elements, and a threaded ddot
# sums in an order that depends on the thread count.  So every dot of the
# package follows one rule: up to _DOT_CHUNK elements it is one ddot, and
# above it the ddots of the full chunks of _DOT_CHUNK elements, summed by
# np.add.reduce, plus the ddot of the tail (a fixed reduction order, as in
# Demmel & Nguyen 2015).  No ddot is long enough to be threaded, so no sum
# depends on the thread count.
_DOT_CHUNK = 8192


def _chunked_dot(x: np.ndarray, y: np.ndarray):
    """The rule's dot of two arrays of more than _DOT_CHUNK elements each."""
    x, y = x.reshape(-1), y.reshape(-1)
    body = x.size - x.size % _DOT_CHUNK
    partials = np.vecdot(x[:body].reshape(-1, _DOT_CHUNK), y[:body].reshape(-1, _DOT_CHUNK))
    return np.add.reduce(partials) + _vdot(x[body:], y[body:])


def dot_rule(size: int):
    """The rule's dot of two arrays of ``size`` elements: ``_vdot`` itself up
    to _DOT_CHUNK elements, so that a small grid's dot costs no extra call."""
    return _vdot if size <= _DOT_CHUNK else _chunked_dot


class GridMismatch(ValueError):
    """Fields living on incompatible grids were combined."""


@dataclass(frozen=True)
class DomainSpec:
    """Box domain: per-axis length and mode count; ``mu_min`` and ``mu_max``
    are the lowest and highest eigenvalues of A, ``weight`` the quadrature
    weight of a collocation point."""

    dim: int
    lengths: tuple
    resolution: tuple

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        # inf % 1 and nan % 1 are nan, so both fail the integer test
        if not all(n % 1 == 0 for n in self.resolution):
            raise ValueError(f"axis resolutions must be integers, got {tuple(self.resolution)}")
        object.__setattr__(self, "resolution", tuple(int(x) for x in self.resolution))
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.lengths) != self.dim or len(self.resolution) != self.dim:
            raise ValueError("lengths/resolution must have one entry per axis")
        if not all(0 < L < math.inf for L in self.lengths):
            raise ValueError(f"axis lengths must be positive and finite, got {self.lengths}")
        if any(n < 8 or n % 2 for n in self.resolution):
            raise ValueError("axis resolutions must be even and at least 8")
        # A's eigenvalues lam^2 + 2 lam, lowest and highest mode, and the
        # quadrature weight must be positive finite floats.  Python floats
        # overflow to inf or OverflowError here, without a RuntimeWarning.
        try:
            lam = [sum((k * math.pi / L) * (k * math.pi / L)
                       for k, L in zip(modes, self.lengths))
                   for modes in ((1,) * self.dim, self.resolution)]
            weight = math.prod(L / (n + 1) for L, n in zip(self.lengths, self.resolution))
        except OverflowError:
            lam, weight = [0.0, math.inf], 0.0
        mu_min, mu_max = (x * x + 2 * x for x in lam)
        if not (mu_min > 0 and mu_max < math.inf and weight > 0):
            raise ValueError(
                f"lengths {self.lengths} at resolution {self.resolution} put the "
                "eigenvalues of A or the quadrature weight outside the float range"
            )
        vars(self).update(mu_min=mu_min, mu_max=mu_max, weight=weight)


def _sine_matrix(n: int) -> np.ndarray:
    # orthonormal DST-I matrix, symmetric and self-inverse.  sin(pi jk/(n+1))
    # has period 2(n + 1) in jk: reducing jk exactly first keeps the argument
    # below 2 pi, so each entry carries one rounding, not ~n of them
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (n + 1))) / (n + 1))


def _dst1_work(shape: tuple) -> tuple:
    """The work arrays of _dst1 on an array of ``shape``, flat: the odd
    extensions and their rffts, each as long as the longest axis needs, and
    the result of each axis, of ``shape``'s size."""
    size = math.prod(shape)
    return (np.empty(max(size // n * (2 * n + 2) for n in shape)),
            np.empty(max(size // n * (n + 2) for n in shape), complex), np.empty(size))


def _dst1(x: np.ndarray, work: tuple | None = None) -> np.ndarray:
    """Orthonormal DST-I along every axis. DST-I of size n is a real DFT of
    size 2(n + 1): minus the imaginary part of the rfft of the odd
    extension [0, x, 0, -x reversed] (Frigo & Johnson 2005). The scale
    1/sqrt(prod 2(n + 1)) is rounded once from long double and applied on
    the first axis, as pocketfft does, so the result is bitwise scipy's dstn.

    Every array is a view of ``work`` (``_dst1_work(x.shape)``, made here
    when None), and so is the result, which the next call overwrites.  A
    ufunc on a strided view, such as an extension's tail or the rfft's
    imaginary part, would buffer a copy of its own, so strided views are
    only assigned and ufuncs run on whole buffers: -x goes into the rfft's
    array, which is idle until the extension it is copied into is full."""
    ext_buf, rfft_buf, y_buf = _dst1_work(x.shape) if work is None else work
    neg_buf = rfft_buf.view(float)
    scale = -float(1 / np.sqrt(np.longdouble(math.prod(2 * n + 2 for n in x.shape))))
    neg = np.negative(x, out=neg_buf[:x.size].reshape(x.shape))
    for axis, n in enumerate(x.shape):
        x, neg = np.moveaxis(x, axis, -1), np.moveaxis(neg, axis, -1)
        lines, rows = x.size // n, x.shape[:-1]
        ext = ext_buf[:lines * (2 * n + 2)].reshape(rows + (2 * n + 2,))
        ext[..., 0] = ext[..., n + 1] = 0.0
        ext[..., 1:n + 1] = x
        ext[..., n + 2:] = neg[..., ::-1]
        spectrum = np.fft.rfft(ext, out=rfft_buf[:lines * (n + 2)].reshape(rows + (n + 2,)))
        y = y_buf.reshape(x.shape)
        y[...] = spectrum[..., 1:n + 1].imag
        y *= scale
        x, scale = np.moveaxis(y, -1, axis), -1.0
        if axis + 1 < x.ndim:
            neg = np.moveaxis(np.negative(y, out=neg_buf[:y.size].reshape(y.shape)), -1, axis)
    return x


def _contract_axes(mats, x: np.ndarray, out: np.ndarray | None,
                   mid: np.ndarray | None) -> np.ndarray:
    """Apply mats[k] along axis k of an x of two or three axes with one
    matrix product per axis, into ``out``; the product between two axes
    goes to ``mid``.  Each is a new array when None."""
    if x.ndim == 2:
        return np.matmul(np.matmul(mats[0], x, mid), mats[1].T, out)
    a, b, c = x.shape
    out = np.empty(x.shape) if out is None else out
    y = np.matmul(x.reshape(a * b, c), mats[2].T, out.reshape(a * b, c))
    y = np.matmul(mats[1], y.reshape(a, b, c), mid)  # batched over the first axis
    np.matmul(mats[0], y.reshape(a, b * c), out.reshape(a, b * c))
    return out


class SpectralGrid:
    """Collocation grid plus the eigenstructure of -Laplacian and A.

    ``lap_eigs`` holds the -Laplacian eigenvalue of each sine mode and
    ``A_eigs = lap_eigs**2 + 2*lap_eigs``, both shaped like the coefficient
    array; every A eigenvalue is positive and finite, as DomainSpec checks.
    Each per-mode array is an outer sum of per-axis vectors, built on first
    read, so a grid that only transforms (a dealiasing grid) holds none.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.shape = spec.resolution
        self.num_points = math.prod(self.shape)
        self.dot = dot_rule(self.num_points)  # the dot of two of its arrays
        self.mu_min, self.mu_max, self.weight = spec.mu_min, spec.mu_max, spec.weight

        step = [L / (n + 1) for L, n in zip(spec.lengths, spec.resolution)]
        self.axis_points = [
            (np.arange(1, n + 1)) * h for n, h in zip(spec.resolution, step)
        ]
        self._sqrt_weight = np.sqrt(self.weight)
        # dense matrices only when every axis is small; otherwise _dst1.
        # sqrt(weight), the product of the per-axis sqrt(step), is folded
        # into the per-axis matrices, so to_coeffs and to_values are one
        # matrix product per axis and no extra pass; equal axes share them.
        # The orthonormal DST-I is its own inverse, so both fold one matrix.
        self._coeff_mats = self._value_mats = None
        if max(spec.resolution) <= _DENSE_AXIS_LIMIT:
            folded = {}
            for n, L, h in zip(spec.resolution, spec.lengths, step):
                if (n, L) not in folded:
                    sine, r = _sine_matrix(n), np.sqrt(h)
                    folded[(n, L)] = (r * sine, np.ascontiguousarray(sine / r))
            axes = [folded[key] for key in zip(spec.resolution, spec.lengths)]
            self._coeff_mats = [m for m, _ in axes]
            self._value_mats = [m for _, m in axes]

    def __getattr__(self, name):
        # called only for a name the grid does not hold: a per-mode array
        # or the FFT path's work arrays, built on the first read by the
        # method _build_<name> and then held as a plain attribute
        build = getattr(SpectralGrid, "_build_" + name, None)
        if build is None:
            raise AttributeError(f"'SpectralGrid' object has no attribute {name!r}")
        value = build(self)
        setattr(self, name, value)
        return value

    def _build_lap_eigs(self) -> np.ndarray:
        return reduce(np.add.outer, [(np.arange(1, n + 1) * np.pi / L) ** 2
                                     for n, L in zip(self.shape, self.spec.lengths)])

    def _build_A_eigs(self) -> np.ndarray:
        return self.lap_eigs**2 + 2.0 * self.lap_eigs

    def _build_V_eigs(self) -> np.ndarray:
        """Per-mode weight of the V-norm |u|^2 + 2|grad u|^2 + |lap u|^2."""
        return 1.0 + 2.0 * self.lap_eigs + self.lap_eigs**2

    def _build_mode_magnitude(self) -> np.ndarray:
        """|k| of each mode's 1-based multi-index k."""
        sq = reduce(np.add.outer, [np.arange(1, n + 1, dtype=float) ** 2 for n in self.shape])
        return np.sqrt(sq, out=sq)

    def _build__fft_work(self) -> tuple:
        return _dst1_work(self.shape)

    # -- transforms -------------------------------------------------------

    # Each transform writes its result into ``out`` and, on the dense path in
    # 2D and 3D, the product between two axes into ``mid``: C-contiguous
    # arrays of the grid's shape that alias neither the input nor each other,
    # or None for a new array.  A caller that gives both allocates nothing on
    # the dense path (the FFT path still makes its own arrays).  Both are
    # positional: at N = 8-12 a keyword out= costs more than a new array.
    # A 1D dense transform is one matrix-vector product: ndarray.dot gives
    # the bits of @ and skips the matmul gufunc's dispatch, which costs as
    # much as the product on the N = 8-12 grids of the check suite.

    def to_coeffs(self, values: np.ndarray, out: np.ndarray | None = None,
                  mid: np.ndarray | None = None) -> np.ndarray:
        mats = self._coeff_mats
        if mats is None:
            return np.multiply(self._sqrt_weight, _dst1(values, self._fft_work), out)
        if values.ndim == 1:
            return mats[0].dot(values, out)
        return _contract_axes(mats, values, out, mid)

    def to_values(self, coeffs: np.ndarray, out: np.ndarray | None = None,
                  mid: np.ndarray | None = None) -> np.ndarray:
        mats = self._value_mats
        if mats is None:
            return np.divide(_dst1(coeffs, self._fft_work), self._sqrt_weight, out)
        if coeffs.ndim == 1:
            return mats[0].dot(coeffs, out)
        return _contract_axes(mats, coeffs, out, mid)

    def compatible(self, other: "SpectralGrid") -> bool:
        return self is other or self.spec == other.spec

    def __repr__(self):
        s = self.spec
        return f"SpectralGrid(dim={s.dim}, N={s.resolution}, L={s.lengths})"


def _check_same_grid(a, b):
    if not a.grid.compatible(b.grid):
        raise GridMismatch(f"grids differ: {a.grid!r} vs {b.grid!r}")


def _grid_array(grid: SpectralGrid, data, what: str, slots: int | None = None) -> np.ndarray:
    """``data`` as a float copy of grid's shape, for Field and SpectralField,
    or with ``slots`` one such array per time slot, for SpaceTimeGrid: each
    must be shaped like the grid or flat with one entry per point, and
    finite.  A same-sized array of another shape (a transposed one, say) is
    refused, not reshaped into a scrambled field."""
    lead = () if slots is None else (slots,)
    array = np.array(data, dtype=float)
    if array.shape not in (lead + grid.shape, lead + (grid.num_points,)):
        each = "" if slots is None else f" in each of {slots} time slots"
        raise GridMismatch(f"expected {what} shaped {grid.shape} or flat with "
                           f"{grid.num_points} entries{each}, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"field {what} must be finite")
    return array.reshape(lead + grid.shape)


class Field:
    """Real-space state on the collocation points of a grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: SpectralGrid, values):
        self.grid, self.values = grid, _grid_array(grid, values, "values")

    @classmethod
    def _wrap(cls, grid, values):
        # fast path for freshly computed arrays; skips copy and validation
        obj = object.__new__(cls)
        obj.grid = grid
        obj.values = values
        return obj

    def __add__(self, other):
        _check_same_grid(self, other)
        return Field._wrap(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return Field._wrap(self.grid, self.values - other.values)

    def __mul__(self, c):
        return Field._wrap(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return Field._wrap(self.grid, -self.values)

    def __repr__(self):
        return f"Field(shape={self.values.shape})"


class SpectralField:
    """Coefficient-space representation of a Field in the grid's eigenbasis."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: SpectralGrid, coeffs):
        self.grid, self.coeffs = grid, _grid_array(grid, coeffs, "coefficients")

    @classmethod
    def _wrap(cls, grid, coeffs):
        # fast path for freshly computed arrays; skips copy and validation
        obj = object.__new__(cls)
        obj.grid = grid
        obj.coeffs = coeffs
        return obj

    def __repr__(self):
        return f"SpectralField(shape={self.coeffs.shape})"


def transform_forward(f: Field) -> SpectralField:
    return SpectralField._wrap(f.grid, f.grid.to_coeffs(f.values))


def transform_inverse(c: SpectralField) -> Field:
    return Field._wrap(c.grid, c.grid.to_values(c.coeffs))


def basis_mode(grid: SpectralGrid, k) -> Field:
    """Unit-norm sine mode; ``k`` is a 1-based per-axis multi-index."""
    if np.isscalar(k):
        k = (k,)
    if len(k) != grid.spec.dim:
        raise GridMismatch("multi-index rank does not match grid dimension")
    if any(ki % 1 != 0 for ki in k):  # NaN and inf fail too
        raise ValueError(f"mode index {k} must be integral")
    idx = tuple(int(ki) - 1 for ki in k)
    if any(i < 0 or i >= n for i, n in zip(idx, grid.shape)):
        raise ValueError(f"mode index {k} out of range for {grid.shape}")
    coeffs = np.zeros(grid.shape)
    coeffs[idx] = 1.0
    return Field._wrap(grid, grid.to_values(coeffs))


def random_coeff_field(grid: SpectralGrid, rng: np.random.Generator, decay: float = 3.0) -> Field:
    """Random field with uniform(-1,1) coefficients damped by |k|^-decay."""
    coeffs = rng.uniform(-1.0, 1.0, size=grid.shape)
    coeffs *= grid.mode_magnitude ** (-decay)
    return Field._wrap(grid, grid.to_values(coeffs))


# -- diagonal operators ----------------------------------------------------


def _scale_modes(u: Field, factor: np.ndarray) -> Field:
    c = u.grid.to_coeffs(u.values)
    return Field._wrap(u.grid, u.grid.to_values(factor * c))


def apply_laplacian(u: Field) -> Field:
    return _scale_modes(u, -u.grid.lap_eigs)


def apply_bilaplacian(u: Field) -> Field:
    return _scale_modes(u, u.grid.lap_eigs**2)


def apply_A(u: Field) -> Field:
    """Apply A = Laplacian^2 - 2*Laplacian (mode k is scaled by lam_k^2 + 2*lam_k)."""
    return _scale_modes(u, u.grid.A_eigs)


def semigroup_factors(grid: SpectralGrid, t) -> np.ndarray:
    """exp(-t mu) per eigenvalue mu of A, for a time t >= 0 or stacked for
    an array of times.  exp(-z) is exactly 0 past z = 746: skipping it there
    avoids numpy's slow underflow path and keeps the bits of np.exp."""
    z = np.multiply.outer(t, grid.A_eigs)
    return np.exp(-z, out=np.zeros_like(z), where=z < 746)


def apply_semigroup(u: Field, t: float) -> Field:
    """Apply exp(-t*A); the identity at t = 0."""
    if not t >= 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return _scale_modes(u, semigroup_factors(u.grid, t))


def apply_A_power(u: Field, mu: float) -> Field:
    """Apply the fractional power A^mu for mu in (0, 1]."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"fractional power must lie in (0, 1], got {mu}")
    return _scale_modes(u, u.grid.A_eigs**mu)


# -- inner products and norms ----------------------------------------------


def inner_l2(u: Field, v: Field) -> float:
    _check_same_grid(u, v)
    return float(u.grid.weight * np.sum(u.values * v.values))


def norm_l2(u: Field) -> float:
    return float(np.sqrt(u.grid.weight) * math.sqrt(u.grid.dot(u.values, u.values)))


def sobolev_norms_sq(u: Field):
    """(|u|_{L2}^2, |grad u|_{L2}^2, |lap u|_{L2}^2) from one transform."""
    return coeff_norms_sq(u.grid, u.grid.to_coeffs(u.values))


def coeff_norms_sq(grid: SpectralGrid, coeffs: np.ndarray, out: np.ndarray | None = None):
    """sobolev_norms_sq from coefficients already at hand: the Parseval
    sums |c|^2, <lam c, c> and |lam c|^2 of one state, as three floats from
    three dots of the grid's rule, or of each state of a stack along a
    leading axis, as the rows of ``out`` (shaped (3, states), a new array
    when None), which is returned, with the bits of the one-state sums;
    lam c of every state is the one temporary."""
    dot = grid.dot
    if coeffs.ndim == len(grid.shape):
        lam_c = grid.lap_eigs * coeffs
        return float(dot(coeffs, coeffs)), float(dot(lam_c, coeffs)), float(dot(lam_c, lam_c))
    rows = coeffs.reshape(-1, grid.num_points)
    lam_c = np.multiply(grid.lap_eigs.reshape(-1), rows)
    sums = np.empty((3, len(rows))) if out is None else out
    for row, (x, y) in zip(sums, ((rows, rows), (lam_c, rows), (lam_c, lam_c))):
        if dot is _vdot:  # one ddot per state, the states' at once
            np.vecdot(x, y, out=row)
        else:  # integrate's record block holds one state of this size
            row[:] = [dot(a, b) for a, b in zip(x, y)]
    return sums


# -- exponential integrator weights -----------------------------------------

_PHI1_SMALL = 1e-6


def phi1(z):
    """phi1(z) = (1 - exp(-z)) / z, continuous at 0 with phi1(0) = 1.

    Uses the three-term Taylor series below 1e-6 to avoid cancellation.
    Accepts scalars or arrays; negative arguments are rejected.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("phi1 requires z >= 0")
    small = z < _PHI1_SMALL
    zs = np.where(small, 1.0, z)
    out = np.where(small, 1.0 - z / 2.0 + z**2 / 6.0, -np.expm1(-zs) / zs)
    return float(out) if out.ndim == 0 else out


# phi2's Taylor coefficients 1/(k + 2)!, k = 0 .. 17: below z = 1 the first
# term left out, z^18 / 20!, is under 1.2e-18 of phi2 (>= 0.37 there)
_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(18))


def _phi2(z):
    """phi2(z) = (z - 1 + exp(-z)) / z^2, phi2(0) = 1/2, for z >= 0.

    Below z = 1 the closed form cancels (it loses eight digits near
    z = 1e-4), so there phi2 is its Taylor series sum_k (-z)^k / (k + 2)!
    by Horner's rule; from z = 1 it is (z + expm1(-z)) / z / z.  Both are
    within 1e-15 relative of the exact value.
    """
    z = np.asarray(z, dtype=float)
    small = z < 1.0
    zs = np.where(small, 1.0, z)
    x = -np.where(small, z, 0.0)
    series = np.full(z.shape, _PHI2_SERIES[-1])
    for a in _PHI2_SERIES[-2::-1]:
        series *= x
        series += a
    return np.where(small, series, (zs + np.expm1(-zs)) / zs / zs)


def _phi_columns(grid: SpectralGrid, h: float, name: str) -> dict:
    """Column ``name`` of the phi-weight table, with the column built in the
    same pass: the convolution pair shares phi1 and phi2."""
    if name == "decay":
        return {"decay": semigroup_factors(grid, h)}
    z = h * grid.A_eigs
    if name == "h_phi1":
        return {"h_phi1": h * phi1(z)}
    p1, p2 = phi1(z), _phi2(z)
    return {"h_phi1_phi2": h * (p1 - p2), "h_phi2": h * p2}


@lru_cache(maxsize=1)
def _phi_table(spec: DomainSpec, h: float) -> dict:
    """The phi-weight table of (spec, h), filled by phi_weights."""
    return {}


def phi_weights(grid: SpectralGrid, h: float, *names: str) -> tuple:
    """The read-only columns ``names`` of the weights of an exponential step
    h, at z = h mu per eigenvalue mu of A: "decay" exp(-z), "h_phi1"
    h phi1(z), and the convolution pair "h_phi1_phi2" h (phi1 - phi2)(z)
    and "h_phi2" h phi2(z).  ETD1 reads the first two, the mild
    convolution the other three; a column is built when a caller first
    names it.  Only the last (grid.spec, h) is kept: every repeated use
    (runs on one grid, the one-step wrappers, the maps of a Picard solve)
    asks for it again, and one entry bounds the memory held."""
    table = _phi_table(grid.spec, h)
    for name in names:
        if name not in table:
            for column, w in _phi_columns(grid, h, name).items():
                w.flags.writeable = False
                table[column] = w
    return tuple(table[name] for name in names)


# -- snapshot files ----------------------------------------------------------

_MSHF_MAGIC = b"MSHF"
_MSHF_VERSION = 1


def write_snapshot(path, f: Field) -> None:
    """Write a field as an MSHF snapshot (bit-exact little-endian layout)."""
    spec = f.grid.spec
    with open(path, "wb") as fh:
        fh.write(_MSHF_MAGIC)
        fh.write(struct.pack("<IB", _MSHF_VERSION, spec.dim))
        for n, L in zip(spec.resolution, spec.lengths):
            fh.write(struct.pack("<Id", n, L))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_snapshot(path, grid: SpectralGrid | None = None) -> Field:
    """Read an MSHF snapshot; with ``grid`` given, its header must describe
    ``grid.spec`` exactly, or GridMismatch names both domains.

    The file length must match its header exactly, so a truncated file or
    one with trailing bytes raises ValueError naming the path, as does a
    header that describes no valid domain or a body with non-finite values.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MSHF_MAGIC:
        raise ValueError(f"{path}: not an MSHF snapshot")
    # 9 fixed bytes (magic, version, dim), then 12 per axis
    if len(blob) < 9 or len(blob) < 9 + 12 * blob[8]:
        raise ValueError(f"{path}: truncated MSHF header ({len(blob)} bytes)")
    version, dim = struct.unpack_from("<IB", blob, 4)
    if version != _MSHF_VERSION:
        raise ValueError(f"{path}: unsupported MSHF version {version}")
    header = 9 + 12 * dim
    res, lengths = [], []
    for k in range(dim):
        n, L = struct.unpack_from("<Id", blob, 9 + 12 * k)
        res.append(n)
        lengths.append(L)
    count = math.prod(res)  # exact: a corrupt header cannot wrap an int64
    expected = header + 8 * count
    if len(blob) != expected:
        what = "truncated" if len(blob) < expected else "trailing bytes in"
        raise ValueError(
            f"{path}: {what} MSHF snapshot ({len(blob)} bytes, expected "
            f"{expected} for shape {tuple(res)})"
        )
    values = np.frombuffer(blob, dtype="<f8", count=count, offset=header)
    try:  # a header that is no domain, another grid's domain, or non-finite values
        spec = DomainSpec(dim, lengths, res)
        if grid is None:
            grid = SpectralGrid(spec)
        elif spec != grid.spec:  # the test of SpectralGrid.compatible
            raise GridMismatch(f"snapshot domain {spec} is not the grid's {grid.spec}")
        return Field(grid, values)
    except ValueError as err:  # GridMismatch stays a GridMismatch
        raise type(err)(f"{path}: {err}") from None
