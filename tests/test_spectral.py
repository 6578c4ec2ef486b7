import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from literal_dot import literal_dot
from scipy.integrate import quad

from sphereflow import (
    DomainSpec,
    Field,
    GridMismatch,
    SpectralField,
    SpectralGrid,
    apply_A,
    apply_A_power,
    apply_bilaplacian,
    apply_laplacian,
    apply_semigroup,
    basis_mode,
    inner_l2,
    l2n_power,
    norm_l2,
    phi1,
    random_coeff_field,
    read_snapshot,
    sobolev_norms_sq,
    transform_forward,
    transform_inverse,
    write_snapshot,
)
from sphereflow.spectral import (_dst1, _dst1_work, _phi2, _sine_matrix, _vdot, coeff_norms_sq,
                                 dot_rule)

PI = np.pi


def grid_1d(n=32, L=PI):
    return SpectralGrid(DomainSpec(1, (L,), (n,)))


def grid_2d(nx=12, ny=8, Lx=PI, Ly=2.0):
    return SpectralGrid(DomainSpec(2, (Lx, Ly), (nx, ny)))


class TestDomainSpec:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            DomainSpec(4, (1.0,), (8,))

    def test_rejects_odd_or_small_resolution(self):
        with pytest.raises(ValueError):
            DomainSpec(1, (1.0,), (7,))
        with pytest.raises(ValueError):
            DomainSpec(1, (1.0,), (6,))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            DomainSpec(1, (0.0,), (8,))
        # NaN passes an L <= 0 test and would fail later as "A must be strictly positive"
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                DomainSpec(1, (bad,), (8,))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            DomainSpec(2, (1.0,), (8, 8))

    def test_rejects_non_integral_resolution_by_name(self):
        # ModelParams' rule: a whole float is taken, a fraction is not cut
        assert DomainSpec(1, (PI,), (64.0,)).resolution == (64,)
        for bad in (64.7, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"resolutions must be integers, got \("):
                DomainSpec(2, (PI, PI), (16, bad))

    @pytest.mark.parametrize("L", [1e-300, 1e-160, 5e-324, 1e300])
    def test_rejects_lengths_outside_float_range(self, tmp_path, L):
        # tiny lengths overflow A's top eigenvalue (5e-324 also makes the
        # weight 0), a huge one underflows the lowest; both are refused
        # before any array is built, so no RuntimeWarning
        path = tmp_path / "bad.mshf"
        path.write_bytes(b"MSHF" + struct.pack("<IB", 1, 1)
                         + struct.pack("<Id", 8, L) + bytes(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float range"):
                DomainSpec(1, (L,), (8,))
            with pytest.raises(ValueError, match="float range") as err:
                read_snapshot(path)
        assert str(path) in str(err.value)


class TestEigenstructure:
    def test_sine_eigenvalues_on_pi_box(self):
        g = grid_1d(16)
        k = np.arange(1, 17)
        assert np.allclose(g.lap_eigs, k**2, rtol=1e-14)
        assert np.allclose(g.A_eigs, k**4 + 2 * k**2, rtol=1e-14)
        assert g.mu_min == 3.0

    def test_2d_eigenvalues_are_axis_sums(self):
        g = grid_2d()
        lam = ((np.arange(1, 13) * PI / PI) ** 2)[:, None] + (
            (np.arange(1, 9) * PI / 2.0) ** 2
        )[None, :]
        assert np.allclose(g.lap_eigs, lam)

    def test_A_strictly_positive_on_sine_basis(self):
        assert grid_2d().A_eigs.min() > 0

    @pytest.mark.parametrize("lengths, resolution", [
        ((2.5,), (12,)), ((PI, 2.0), (12, 8)), ((1.5, PI, 2.0), (10, 8, 12)),
    ])
    def test_per_mode_arrays_equal_the_meshgrid_construction(self, lengths, resolution):
        g = SpectralGrid(DomainSpec(len(lengths), lengths, resolution))
        lam = np.sum(np.meshgrid(*[(np.arange(1, n + 1) * np.pi / L) ** 2
                                   for n, L in zip(resolution, lengths)], indexing="ij"),
                     axis=0)
        mag = np.meshgrid(*[np.arange(1, n + 1, dtype=float) for n in resolution],
                          indexing="ij")
        want = {"lap_eigs": lam, "A_eigs": lam**2 + 2.0 * lam,
                "V_eigs": 1.0 + 2.0 * lam + lam**2,
                "mode_magnitude": np.sqrt(np.sum([m**2 for m in mag], axis=0))}
        for name, array in want.items():
            assert np.array_equal(getattr(g, name), array), name

    def test_spectrum_bounds_and_weight_are_the_grids(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            dim = int(rng.integers(1, 4))
            spec = DomainSpec(dim, tuple(10.0 ** rng.uniform(-2, 2, dim)),
                              tuple(2 * rng.integers(4, 13, dim)))
            eigs = SpectralGrid(spec).A_eigs
            assert (spec.mu_min, spec.mu_max) == (eigs.min(), eigs.max()), spec
            steps = [L / (n + 1) for L, n in zip(spec.lengths, spec.resolution)]
            assert spec.weight == float(np.prod(steps)), spec

    def test_building_the_arrays_holds_little_beyond_them(self):
        # each array is an outer sum of per-axis vectors; stacking d meshgrid
        # copies used to peak at four times the bytes the arrays hold
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            g = SpectralGrid(DomainSpec(3, (PI,) * 3, (32, 32, 32)))
            arrays = [g.lap_eigs, g.A_eigs, g.V_eigs, g.mode_magnitude]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= sum(a.nbytes for a in arrays) + 2 * arrays[0].nbytes

    def test_per_mode_arrays_are_built_once_and_kept_on_the_grid(self):
        # each is built on its first read and set as a plain attribute of the
        # grid, which every later read returns (a new build is a new array);
        # the class holds no attribute of that name, only the builder
        g = SpectralGrid(DomainSpec(2, (PI, 2.0), (12, 8)))
        names = ("lap_eigs", "A_eigs", "V_eigs", "mode_magnitude")
        assert not set(names) & g.__dict__.keys()
        first = {name: getattr(g, name) for name in names}
        for name in names:
            assert getattr(g, name) is first[name]
            assert name in g.__dict__ and name not in vars(SpectralGrid)
            assert callable(vars(SpectralGrid)["_build_" + name])
        with pytest.raises(AttributeError, match="no attribute 'A_eig'"):
            g.A_eig


class TestTransforms:
    def test_single_mode_maps_to_unit_coefficient(self):
        g = grid_1d(16)
        x = g.axis_points[0]
        f = Field(g, np.sqrt(2.0 / PI) * np.sin(3 * x))
        c = transform_forward(f).coeffs
        expected = np.zeros(16)
        expected[2] = 1.0
        assert np.max(np.abs(c - expected)) < 1e-14

    def test_zero_maps_to_zero(self):
        g = grid_1d()
        assert np.all(transform_forward(Field(g, np.zeros(32))).coeffs == 0.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for g in (grid_1d(128), grid_2d()):
            f = Field(g, rng.standard_normal(g.shape))
            back = transform_inverse(transform_forward(f))
            assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_matmul_contraction_matches_tensordot_reference(self):
        # reference: the per-axis tensordot + moveaxis loop
        def reference(mats, x):
            for ax, m in enumerate(mats):
                x = np.moveaxis(np.tensordot(m, x, axes=(1, ax)), 0, ax)
            return x

        rng = np.random.default_rng(5)
        for shape in ((16,), (12, 8), (8, 10, 12)):
            d = len(shape)
            g = SpectralGrid(DomainSpec(d, (PI, 2.0, 1.5)[:d], shape))
            mats = [_sine_matrix(n) for n in shape]
            r = np.sqrt(g.weight)
            x = rng.uniform(-1.0, 1.0, size=shape)
            fwd = g.to_coeffs(x) / r
            assert np.max(np.abs(fwd - reference(mats, x))) <= 1e-13
            inv = g.to_values(x) * r
            assert np.max(np.abs(inv - reference([m.T for m in mats], x))) <= 1e-13
            # the orthonormal DST-I is its own inverse
            assert np.max(np.abs(g.to_values(fwd) * r - x)) <= 1e-13

    @pytest.mark.parametrize("n", (8, 12, 64, 256))
    def test_1d_transforms_are_the_matrix_product_to_the_bit(self, n):
        # a 1D dense transform takes ndarray.dot, which must give the bits
        # of the matmul of the folded matrix
        g = grid_1d(n, L=2.75)
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
            for got, mat in ((g.to_coeffs(x), g._coeff_mats[0]),
                             (g.to_values(x), g._value_mats[0])):
                assert np.array_equal(got.view(np.int64), (mat @ x).view(np.int64))

    def test_scipy_and_dense_paths_agree(self):
        # N=512 exceeds the dense-matrix limit and exercises the FFT path
        rng = np.random.default_rng(1)
        g_big = grid_1d(512)
        f = Field(g_big, rng.standard_normal(512))
        c = transform_forward(f).coeffs
        mat = np.sqrt(2.0 / 513) * np.sin(
            PI * np.outer(np.arange(1, 513), np.arange(1, 513)) / 513
        )
        oracle = np.sqrt(PI / 513) * mat @ f.values
        assert np.max(np.abs(c - oracle)) < 1e-11

    def test_numpy_dst1_matches_scipy_and_dense(self):
        # scipy is a test-only oracle: both libraries run pocketfft's rfft,
        # so with the same scaling the results are bitwise equal and FFT-path
        # outputs keep their bytes. The dense oracle is the sine matrix with
        # j*k reduced exactly by its period 2(n+1) (unreduced, pi*j*k/(n+1)
        # rounds to ~n*eps), applied with the tensordot loop used above.
        from scipy.fft import dstn

        def sine(n):
            jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * n + 2)
            return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))

        rng = np.random.default_rng(6)
        for shape in ((10,), (258,), (1030,), (12, 8), (300, 22), (8, 10, 12), (30, 258, 8)):
            x = rng.uniform(-1.0, 1.0, size=shape)
            y = _dst1(x)
            scale = np.max(np.abs(y))
            assert np.array_equal(y, dstn(x, type=1, norm="ortho"))
            # in work arrays made beforehand and holding stale values, as a
            # grid's are after its last transform, the same bits
            work = _dst1_work(shape)
            for w in work:
                w.fill(np.nan)
            assert np.array_equal(_dst1(x, work), y)
            dense = x
            for ax, n in enumerate(shape):
                dense = np.moveaxis(np.tensordot(sine(n), dense, axes=(1, ax)), 0, ax)
            assert np.max(np.abs(y - dense)) <= 1e-13 * scale

    def test_sine_matrix_matches_scipy_dst1(self):
        # with j*k reduced by the period 2(n + 1) first, each matrix entry
        # carries one rounding; the unreduced argument read 5e-15 relative at
        # N = 64 and 2e-14 at N = 256
        from scipy.fft import dst

        rng = np.random.default_rng(8)
        for n in (12, 64, 256):
            x = rng.uniform(-1.0, 1.0, size=n)
            ref = dst(x, type=1, norm="ortho")
            err = np.linalg.norm(_sine_matrix(n) @ x - ref) / np.linalg.norm(ref)
            assert err <= 1e-15, n

    def test_parseval(self):
        rng = np.random.default_rng(2)
        for g in (grid_1d(64), grid_2d()):
            f = Field(g, rng.standard_normal(g.shape))
            coeff_sq = float(np.sum(transform_forward(f).coeffs ** 2))
            quad_sq = norm_l2(f) ** 2
            assert abs(coeff_sq - quad_sq) <= 1e-10 * quad_sq

    def test_linearity(self):
        g = grid_1d()
        rng = np.random.default_rng(3)
        f1 = Field(g, rng.standard_normal(32))
        f2 = Field(g, rng.standard_normal(32))
        lhs = transform_forward(f1 + 2.0 * f2).coeffs
        rhs = transform_forward(f1).coeffs + 2.0 * transform_forward(f2).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_grid_mismatch_rejected(self):
        g, h = grid_1d(32), grid_1d(64)
        with pytest.raises(GridMismatch):
            Field(g, np.zeros(64))
        with pytest.raises(GridMismatch):
            inner_l2(Field(g, np.zeros(32)), Field(h, np.zeros(64)))

    def test_nonfinite_values_rejected(self):
        g = grid_1d()
        bad = np.zeros(32)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            Field(g, bad)

    @pytest.mark.parametrize("cls", (Field, SpectralField))
    def test_data_is_grid_shaped_or_flat(self, cls):
        # a same-sized array of another shape is refused, not reshaped into
        # a scrambled field; the grid's shape and the flat layout are taken
        g = grid_2d(16, 8)
        data = np.random.default_rng(19).standard_normal(g.shape)
        for ok in (data, data.ravel(), data.tolist()):
            got = cls(g, ok)
            array = got.values if cls is Field else got.coeffs
            assert array.shape == g.shape and np.array_equal(array, data)
            assert not np.shares_memory(array, data)
        for bad in (data.T, data.reshape(8, 16), data.reshape(1, 128), data[None]):
            with pytest.raises(GridMismatch, match=r"shaped \(16, 8\) or flat with 128 entries"):
                cls(g, bad)

    @pytest.mark.parametrize("cls, what", ((Field, "values"), (SpectralField, "coefficients")))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_nonfinite_data_rejected_by_both(self, cls, what, bad):
        g = grid_2d()
        data = np.ones(g.shape)
        data[2, 3] = bad
        with pytest.raises(ValueError, match=f"field {what} must be finite"):
            cls(g, data)


@st.composite
def grids(draw):
    """Even axes in [8, 520], at most 2**16 points; one axis above 256
    takes the FFT path."""
    dim = draw(st.integers(1, 3))
    shape = []
    for k in range(dim):
        # leave at least 8 points for each axis still to draw
        hi = min(520, 2**16 // (math.prod(shape) * 8 ** (dim - k - 1)))
        shape.append(2 * draw(st.integers(4, hi // 2)))
    lengths = draw(st.lists(st.floats(0.5, 10.0), min_size=dim, max_size=dim))
    return SpectralGrid(DomainSpec(dim, lengths, shape))


# the FFT path in each dimension
FFT_GRIDS = (
    grid_1d(512),
    SpectralGrid(DomainSpec(2, (PI, 2.0), (1026, 8))),
    SpectralGrid(DomainSpec(3, (PI, 2.0, 1.5), (8, 258, 16))),
)


class TestTransformProperties:
    @settings(deadline=None)
    @given(g=grids(), seed=st.integers(0, 2**32 - 1))
    @example(g=FFT_GRIDS[0], seed=0)
    @example(g=FFT_GRIDS[1], seed=1)
    @example(g=FFT_GRIDS[2], seed=2)
    def test_round_trip(self, g, seed):
        u = np.random.default_rng(seed).standard_normal(g.shape)
        back = g.to_values(g.to_coeffs(u))
        assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))

    @settings(deadline=None)
    @given(g=grids(), seed=st.integers(0, 2**32 - 1))
    @example(g=FFT_GRIDS[0], seed=0)
    @example(g=FFT_GRIDS[1], seed=1)
    @example(g=FFT_GRIDS[2], seed=2)
    def test_parseval(self, g, seed):
        f = Field(g, np.random.default_rng(seed).standard_normal(g.shape))
        coeff_sq = float(np.sum(transform_forward(f).coeffs ** 2))
        quad_sq = norm_l2(f) ** 2
        assert abs(coeff_sq - quad_sq) <= 1e-10 * quad_sq


class TestOperators:
    def test_basis_mode_refuses_nonintegral_index(self):
        # int() would quietly take 1.5 as mode 1
        for g, k in ((grid_1d(16), 1.5), (grid_1d(16), np.nan), (grid_1d(16), np.inf),
                     (grid_2d(), (1, 2.5))):
            with pytest.raises(ValueError, match="must be integral"):
                basis_mode(g, k)
        # integral floats and numpy integers name their mode
        assert np.array_equal(basis_mode(grid_2d(), (2.0, np.int64(3))).values,
                              basis_mode(grid_2d(), (2, 3)).values)

    def test_basis_mode_refuses_wrong_rank_and_out_of_range_index(self):
        rank = "multi-index rank does not match grid dimension"
        for g, k in ((grid_2d(), 1), (grid_2d(), (1, 2, 3)), (grid_1d(16), (1, 1))):
            with pytest.raises(GridMismatch, match=rank):
                basis_mode(g, k)
        for g, k in ((grid_1d(16), (0,)), (grid_1d(16), (17,)), (grid_2d(), (12, 9)),
                     (grid_2d(), (-1, 1))):
            want = f"mode index {k} out of range for {g.shape}"
            with pytest.raises(ValueError, match=re.escape(want)):
                basis_mode(g, k)
        with pytest.raises(ValueError, match=re.escape("mode index (17,) out of range for (16,)")):
            basis_mode(grid_1d(16), 17)

    def test_mode_eigenvalue_action(self):
        g = grid_1d(16)
        tol = 1e-14 * g.mu_max
        for k, mu in ((1, 3.0), (2, 24.0)):
            u = basis_mode(g, k)
            assert np.max(np.abs(apply_A(u).values - mu * u.values)) < tol

    def test_A_equals_bilaplacian_minus_two_laplacian(self):
        g = grid_2d()
        u = random_coeff_field(g, np.random.default_rng(4))
        combo = apply_bilaplacian(u) - 2.0 * apply_laplacian(u)
        au = apply_A(u)
        assert norm_l2(au - combo) <= 1e-12 * norm_l2(au)

    def test_self_adjoint_dense_oracle(self):
        # assemble A on the collocation basis and check matrix symmetry
        g = grid_1d(16)
        dense = np.empty((16, 16))
        for j in range(16):
            e = np.zeros(16)
            e[j] = 1.0
            dense[:, j] = apply_A(Field(g, e)).values
        assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))

    def test_self_adjoint_random_pairs(self):
        g = grid_1d(64)
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = random_coeff_field(g, rng)
            v = random_coeff_field(g, rng)
            au, av = apply_A(u), apply_A(v)
            gap = abs(inner_l2(au, v) - inner_l2(u, av))
            scale = norm_l2(au) * norm_l2(v) + norm_l2(u) * norm_l2(av)
            assert gap <= 1e-12 * scale

    def test_semigroup_scalar_mode(self):
        g = grid_1d(16)
        u = basis_mode(g, 1)
        out = apply_semigroup(u, 0.1)
        assert np.max(np.abs(out.values - np.exp(-0.3) * u.values)) < 1e-14

    def test_semigroup_identity_at_zero(self):
        g = grid_1d()
        u = random_coeff_field(g, np.random.default_rng(6))
        assert np.max(np.abs(apply_semigroup(u, 0.0).values - u.values)) < 1e-14

    def test_semigroup_law_and_contraction(self):
        g = grid_1d(64)
        u = random_coeff_field(g, np.random.default_rng(7))
        lhs = apply_semigroup(apply_semigroup(u, 0.04), 0.06)
        rhs = apply_semigroup(u, 0.1)
        assert norm_l2(lhs - rhs) <= 1e-12 * norm_l2(u)
        for t in (0.01, 0.1, 1.0):
            assert norm_l2(apply_semigroup(u, t)) <= np.exp(-g.mu_min * t) * norm_l2(
                u
            ) * (1 + 1e-12)

    def test_semigroup_rejects_negative_time(self):
        g = grid_1d()
        # NaN too: the underflow skip would turn it into zeros
        for t in (-0.1, math.nan):
            with pytest.raises(ValueError):
                apply_semigroup(basis_mode(g, 1), t)

    def test_A_power_identity_and_square_root(self):
        g = grid_1d(16)
        u = basis_mode(g, 1)
        assert np.max(np.abs(apply_A_power(u, 1.0).values - apply_A(u).values)) < 1e-12
        assert np.max(
            np.abs(apply_A_power(u, 0.5).values - np.sqrt(3) * u.values)
        ) < 1e-12
        w = random_coeff_field(g, np.random.default_rng(8))
        twice = apply_A_power(apply_A_power(w, 0.5), 0.5)
        assert norm_l2(twice - apply_A(w)) <= 1e-10

    def test_A_power_domain(self):
        g = grid_1d()
        u = basis_mode(g, 1)
        for mu in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                apply_A_power(u, mu)


class TestNorms:
    def test_ground_mode_norms_against_quadrature_oracle(self):
        # oracle: integrate (2/pi) sin^2, (2/pi) cos^2, (2/pi) sin^2 exactly
        l2_sq, _ = quad(lambda x: (2 / PI) * np.sin(x) ** 2, 0, PI)
        h1_sq, _ = quad(lambda x: (2 / PI) * np.cos(x) ** 2, 0, PI)
        assert abs(l2_sq - 1.0) < 1e-12 and abs(h1_sq - 1.0) < 1e-12
        g = grid_1d(64)
        u = basis_mode(g, 1)
        assert abs(norm_l2(u) - 1.0) < 1e-12
        _, h1sq, h2sq = sobolev_norms_sq(u)
        assert abs(np.sqrt(h1sq) - 1.0) < 1e-12
        assert abs(np.sqrt(h2sq) - 1.0) < 1e-12

    def test_zero_norms(self):
        g = grid_1d()
        z = Field(g, np.zeros(32))
        assert norm_l2(z) == 0.0 and sobolev_norms_sq(z)[1] == 0.0

    def test_l2n_quadrature_oracle(self):
        # oracle: integral of ((2/pi)^(1/2) sin x)^4 over (0, pi)
        target, _ = quad(lambda x: ((2 / PI) ** 0.5 * np.sin(x)) ** 4, 0, PI)
        g = grid_1d(64)
        u = basis_mode(g, 1)
        assert abs(l2n_power(u, 2) ** 0.25 - target ** 0.25) < 1e-10


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestDotRule:
    """Every dot of the package follows dot_rule: one ddot up to 8192
    elements, and above it the ddots of 8192-element chunks summed by
    np.add.reduce, plus the tail's; no ddot is long enough for OpenBLAS to
    thread, so no sum depends on the thread count."""

    @pytest.mark.parametrize("size", (8191, 8192, 8193, 3 * 8192 + 5, 65536))
    def test_bitwise_equal_to_literal_reference(self, size):
        x, y = np.random.default_rng(size).standard_normal((2, size))
        want = bits(literal_dot(x, y))
        assert bits(dot_rule(size)(x, y)) == want
        if size == 65536:  # a grid's array is shaped, not flat
            assert bits(dot_rule(size)(x.reshape(256, 256), y.reshape(256, 256))) == want

    @pytest.mark.parametrize("size", (1, 12, 64, 1000, 8191, 8192))
    def test_one_ddot_up_to_the_chunk(self, size):
        x, y = np.random.default_rng(size).standard_normal((2, size))
        assert dot_rule(size) is _vdot
        assert bits(dot_rule(size)(x, y)) == bits(np.vdot(x, y))

    def test_grid_chooses_the_rule_from_its_point_count(self):
        for shape, chunked in (((90, 90), False), ((64, 128), False), ((20, 20, 20), False),
                               ((96, 96), True), ((8194,), True), ((22, 22, 22), True)):
            g = SpectralGrid(DomainSpec(len(shape), (PI,) * len(shape), shape))
            assert (g.dot is not _vdot) == chunked, shape
            assert g.dot is dot_rule(g.num_points)

    @pytest.mark.parametrize("resolution", ((12,), (32, 32), (96, 96)))
    def test_coeff_norms_sq_takes_three_dots_of_the_rule(self, resolution):
        dim = len(resolution)
        g = SpectralGrid(DomainSpec(dim, (PI,) * dim, resolution))
        stack = np.random.default_rng(dim).standard_normal((5,) + g.shape)
        one = []
        for c in stack:
            lam_c = g.lap_eigs * c
            want = (literal_dot(c, c), literal_dot(lam_c, c), literal_dot(lam_c, lam_c))
            got = coeff_norms_sq(g, c)
            assert type(got) is tuple and all(type(x) is float for x in got)
            assert np.array_equal(bits(got), bits(want))
            one.append(got)
        # a stack is its rows taken one by one, also into a slice of out
        assert np.array_equal(bits(coeff_norms_sq(g, stack)), bits(np.transpose(one)))
        out = np.zeros((3, 8))
        assert coeff_norms_sq(g, stack[1:4], out[:, 2:5]).base is out
        assert np.array_equal(bits(out[:, 2:5]), bits(np.transpose(one[1:4])))
        assert not out[:, :2].any() and not out[:, 5:].any()

    @pytest.mark.parametrize("resolution", ((64,), (96, 96)))
    def test_norm_l2_takes_the_rule(self, resolution):
        dim = len(resolution)
        g = SpectralGrid(DomainSpec(dim, (PI,) * dim, resolution))
        u = random_coeff_field(g, np.random.default_rng(dim))
        v = u.values
        assert bits(norm_l2(u)) == bits(np.sqrt(g.weight) * np.sqrt(literal_dot(v, v)))
        if g.num_points <= 8192:  # np.linalg.norm's ddot, bit for bit
            assert bits(norm_l2(u)) == bits(np.sqrt(g.weight) * np.linalg.norm(v))


class TestPhi1:
    def test_pinned_values(self):
        assert phi1(0.0) == 1.0
        assert abs(phi1(1.0) - (1 - np.exp(-1))) < 1e-15
        assert abs(phi1(1e-9) - (1 - 0.5e-9)) <= 1e-15

    def test_against_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 40
        for z in (1e-9, 1e-7, 1e-5, 1e-3, 0.5, 3.0, 50.0):
            exact = float((1 - mpmath.e ** (-mpmath.mpf(z))) / mpmath.mpf(z))
            assert abs(phi1(z) - exact) <= 1e-15 * max(1.0, abs(exact))

    def test_array_and_domain(self):
        out = phi1(np.array([0.0, 1.0]))
        assert out.shape == (2,)
        with pytest.raises(ValueError):
            phi1(-1e-3)


class TestPhi2:
    def test_against_decimal_oracle(self):
        import decimal

        ctx = decimal.Context(prec=50)
        # log-spaced through the window where the closed form cancels (it
        # read 1.5e-8 relative just above 1e-4), the switch at z = 1 and
        # its two neighbours, and the ends
        zs = np.concatenate([np.logspace(-8, np.log10(50.0), 241),
                             [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 100.0]])
        got = _phi2(zs)
        for z, g in zip(zs, got):
            d = decimal.Decimal(z)  # the float's exact value
            exact = float(ctx.divide(ctx.add(ctx.subtract(d, 1), ctx.exp(-d)),
                                     ctx.multiply(d, d)))
            assert abs(g - exact) <= 1e-15 * exact, z
        assert _phi2(0.0) == 0.5


@st.composite
def mshf_blobs(draw):
    """MSHF-shaped byte strings: a drawn header (dim, version, N and L per
    axis), a body of the size it implies, then at most one corruption."""
    dim = draw(st.integers(0, 4))
    res = draw(st.lists(st.sampled_from([8, 10]) | st.sampled_from([0, 7]),
                        min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 10.0) | st.floats(), min_size=dim, max_size=dim))
    blob = b"MSHF" + struct.pack("<IB", draw(st.just(1) | st.integers(0, 3)), dim)
    blob += b"".join(struct.pack("<Id", n, L) for n, L in zip(res, lengths))
    body = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(math.prod(res))
    if body.size and draw(st.booleans()):
        body[draw(st.integers(0, body.size - 1))] = draw(st.sampled_from([np.nan, np.inf]))
    blob += body.astype("<f8").tobytes()
    mode = draw(st.sampled_from(["keep", "keep", "cut", "append", "flip"]))
    if mode == "cut":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif mode == "append":
        blob += draw(st.binary(min_size=1, max_size=16))
    elif mode == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        blob = blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1:]
    return blob


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path):
        g = grid_2d()
        f = Field(g, np.random.default_rng(9).standard_normal(g.shape))
        path = tmp_path / "state.mshf"
        write_snapshot(path, f)
        back = read_snapshot(path, g)
        assert np.array_equal(back.values, f.values)

    def test_file_layout_oracle(self, tmp_path):
        # parse the written bytes independently of the reader
        import struct

        g = grid_1d(8, L=2.5)
        f = Field(g, np.arange(8, dtype=float))
        path = tmp_path / "state.mshf"
        write_snapshot(path, f)
        blob = path.read_bytes()
        assert blob[:4] == b"MSHF"
        version, dim = struct.unpack("<IB", blob[4:9])
        assert version == 1 and dim == 1
        n, L = struct.unpack("<Id", blob[9:21])
        assert n == 8 and L == 2.5
        vals = np.frombuffer(blob[21:], dtype="<f8")
        assert np.array_equal(vals, f.values)
        assert len(blob) == 21 + 8 * 8

    def test_reader_validates_grid(self, tmp_path):
        g = grid_1d(8)
        path = tmp_path / "state.mshf"
        write_snapshot(path, basis_mode(g, 1))
        with pytest.raises(GridMismatch):
            read_snapshot(path, grid_1d(16))

    def test_reader_requires_the_grids_exact_domain(self, tmp_path):
        # a snapshot belongs to a grid iff its header's DomainSpec is
        # grid.spec, as SpectralGrid.compatible tests: one ulp off in L is
        # another domain, and the error names both
        g = grid_2d()
        f = Field(g, np.random.default_rng(20).standard_normal(g.shape))
        path = tmp_path / "state.mshf"
        write_snapshot(path, f)
        assert np.array_equal(read_snapshot(path, grid_2d()).values, f.values)
        off = grid_2d(Ly=np.nextafter(2.0, 3.0))
        with pytest.raises(GridMismatch) as err:
            read_snapshot(path, off)
        message = str(err.value)
        assert message.startswith(f"{path}: snapshot domain {g.spec!r}")
        assert message.endswith(f"is not the grid's {off.spec!r}")

    def test_reader_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mshf"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_snapshot(path)

    def _written(self, tmp_path):
        g = grid_2d()
        path = tmp_path / "state.mshf"
        write_snapshot(path, Field(g, np.random.default_rng(4).standard_normal(g.shape)))
        return path, path.read_bytes()

    def test_reader_rejects_truncated_header(self, tmp_path):
        path, blob = self._written(tmp_path)
        path.write_bytes(blob[:15])  # cut inside the second axis record
        with pytest.raises(ValueError, match="truncated MSHF header") as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    def test_reader_rejects_truncated_body(self, tmp_path):
        path, blob = self._written(tmp_path)
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated MSHF snapshot") as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    def test_reader_rejects_trailing_bytes(self, tmp_path):
        path, blob = self._written(tmp_path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes") as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("dim", 0), ("dim", 4), ("N", 0), ("N", 7),
        ("L", -1.0), ("L", math.nan), ("L", math.inf),
    ])
    def test_reader_names_the_path_for_a_bad_header(self, tmp_path, field, value):
        dim = value if field == "dim" else 1
        n = value if field == "N" else 8
        L = value if field == "L" else 1.0
        blob = b"MSHF" + struct.pack("<IB", 1, dim) + struct.pack("<Id", n, L) * dim
        path = tmp_path / "bad.mshf"
        path.write_bytes(blob + bytes(8 * n**dim))
        with pytest.raises(ValueError) as err:
            read_snapshot(path)
        assert str(path) in str(err.value)

    @settings(deadline=None)
    @given(blob=st.binary(max_size=64) | mshf_blobs())
    def test_any_bytes_read_back_or_name_the_path(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("mshf") / "any.mshf"
        path.write_bytes(blob)
        try:
            f = read_snapshot(path)
        except ValueError as err:
            assert str(path) in str(err)
        else:
            write_snapshot(path, f)
            assert path.read_bytes() == blob

    def test_reader_builds_grid_when_missing(self, tmp_path):
        g = grid_1d(8, L=1.5)
        path = tmp_path / "state.mshf"
        write_snapshot(path, basis_mode(g, 2))
        back = read_snapshot(path)
        assert back.grid.spec == g.spec


def test_3d_round_trip_and_eigenvalues():
    g = SpectralGrid(DomainSpec(3, (PI, PI, PI), (8, 8, 8)))
    rng = np.random.default_rng(10)
    f = Field(g, rng.standard_normal(g.shape))
    back = transform_inverse(transform_forward(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12
    assert g.lap_eigs[0, 0, 0] == pytest.approx(3.0)
    assert g.mu_min == pytest.approx(15.0)  # 9 + 6


def test_spectral_field_shape_validation():
    g = grid_1d()
    with pytest.raises(GridMismatch):
        SpectralField(g, np.zeros(31))
