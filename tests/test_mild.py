import tracemalloc
import warnings

import numpy as np
import pytest

from sphereflow import (
    DomainSpec,
    GridMismatch,
    ManifoldError,
    ModelParams,
    NonContractionError,
    SpaceTimeGrid,
    SpectralGrid,
    StepperConfig,
    TruncationTheta,
    apply_semigroup,
    basis_mode,
    contraction_factor_probe,
    convolve_semigroup,
    integrate,
    phi_map,
    picard_solve,
    random_unit_field,
    theta_eval,
    xt_norm,
)
from sphereflow import mild, model, spectral
from sphereflow.cli import main

PI = np.pi


def grid_1d(n=32):
    return SpectralGrid(DomainSpec(1, (PI,), (n,)))


def constant_grid(grid, u, times):
    c = grid.to_coeffs(u.values)
    return SpaceTimeGrid(grid, times, np.broadcast_to(c, (len(times),) + grid.shape).copy())


class TestTheta:
    def test_pinned_values_m3(self):
        th = TruncationTheta(3.0)
        assert theta_eval(th, 2.0) == 1.0
        assert theta_eval(th, 7.0) == 0.0
        assert theta_eval(th, 4.5) == 0.5

    def test_plateau_and_support(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            m = rng.uniform(0.05, 20.0)
            th = TruncationTheta(m)
            x = rng.uniform(0.0, 3.0 * m)
            t = theta_eval(th, x)
            assert 0.0 <= t <= 1.0
            if x <= m:
                assert t == 1.0
            if x >= 2.0 * m:
                assert t == 0.0

    def test_lipschitz_bound_and_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            m = rng.uniform(0.05, 20.0)
            th = TruncationTheta(m)
            x, y = rng.uniform(0.0, 3.0 * m, size=2)
            assert abs(theta_eval(th, x) - theta_eval(th, y)) <= abs(x - y) / m + 1e-12
            xb, yb = m + (x % m), m + (y % m)
            gap = abs(theta_eval(th, xb) - theta_eval(th, yb)) - abs(xb - yb) / m
            assert abs(gap) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationTheta(0.0)
        with pytest.raises(ValueError):
            theta_eval(TruncationTheta(1.0), -0.5)
        for x in (float("nan"), np.float64("nan"), np.array([0.5, np.nan])):
            with pytest.raises(ValueError):
                theta_eval(TruncationTheta(1.0), x)
        with pytest.raises(ValueError):
            theta_eval(TruncationTheta(1.0), np.array([0.5, -1e-300]))

    @pytest.mark.parametrize("m", (0.0, -1.0, np.nan, np.inf))
    def test_level_must_be_positive_and_finite(self, m):
        with pytest.raises(ValueError, match="truncation level"):
            TruncationTheta(m)

    def test_scalar_and_array_paths_agree_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            th = TruncationTheta(rng.uniform(0.05, 20.0))
            xs = np.concatenate([rng.uniform(0.0, 3.0 * th.m, size=50),
                                 [0.0, th.m, 2.0 * th.m, 1e300, np.inf]])
            arr = theta_eval(th, xs)
            # np.minimum(np.maximum(.)) gives np.clip's bits on theta's domain
            assert np.array_equal(arr, np.clip(2.0 - xs / th.m, 0.0, 1.0))
            assert not np.signbit(arr).any()
            for x, a in zip(xs, arr):
                for scalar in (float(x), x):
                    assert np.array_equal(theta_eval(th, scalar), a)
                assert theta_eval(th, np.array(x)) == a
            assert theta_eval(th, 3) == theta_eval(th, np.array([3.0]))[0]


class TestSpaceTimeGrid:
    def test_requires_uniform_increasing_times(self):
        g = grid_1d(16)
        c = np.zeros((3,) + g.shape)
        with pytest.raises(ValueError):
            SpaceTimeGrid(g, np.array([0.0, 0.1, 0.3]), c)
        with pytest.raises(ValueError):
            SpaceTimeGrid(g, np.array([0.1, 0.2, 0.3]), c)

    def test_refuses_nonfinite_times(self):
        # [0, inf] passes the uniformity test, with dt = inf
        g, want = grid_1d(16), "time grid must be uniform, increasing and finite"
        for times in ([0.0, np.inf], [0.0, np.nan], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError, match=want):
                SpaceTimeGrid(g, times, np.zeros((len(times),) + g.shape))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_refuses_nonfinite_coefficients(self, bad):
        g = grid_1d(8)
        c = np.zeros((3,) + g.shape)
        c[1, 4] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SpaceTimeGrid(g, [0.0, 0.1, 0.2], c)

    def test_refuses_wrong_shapes(self):
        # a same-sized array of another shape is refused, not reshaped
        g = SpectralGrid(DomainSpec(2, (PI, PI), (8, 10)))
        want = r"coefficients shaped \(8, 10\) or flat with 80 entries in each of 3 time slots"
        for shape in ((2, 8, 10), (3, 10, 8), (3, 79), (240,), (3, 8, 10, 1)):
            with pytest.raises(GridMismatch, match=want):
                SpaceTimeGrid(g, [0.0, 0.1, 0.2], np.zeros(shape))

    def test_takes_a_float_copy(self):
        g = SpectralGrid(DomainSpec(2, (PI, PI), (8, 10)))
        c = np.arange(240).reshape(3, 80)  # int64, flat in each time slot
        for data in (c, c.tolist()):
            st = SpaceTimeGrid(g, [0.0, 0.1, 0.2], data)
            assert st.coeffs.dtype == np.float64 and st.coeffs.shape == (3, 8, 10)
            assert np.array_equal(st.coeffs.reshape(3, 80), c)
        c[0, 0] = 99
        assert st.coeffs[0, 0, 0] == 0.0

    def test_free_evolution_sampling(self):
        g = grid_1d(16)
        u = basis_mode(g, 1)
        st = SpaceTimeGrid.from_semigroup(u, np.linspace(0, 0.5, 11))
        assert np.allclose(st.coeffs[:, 0], np.exp(-3 * st.times))

    def test_underflow_skip_is_bitwise_equal_to_plain_exp(self):
        # 40 x 64^2 on a T = 0.02 horizon: ~40% of the exponents are below
        # -745, where exp underflows and the semigroups skip it
        g = SpectralGrid(DomainSpec(2, (PI, PI), (64, 64)))
        u = random_unit_field(g, np.random.default_rng(3))
        times = np.linspace(0.0, 0.02, 40)
        z = -times[:, None, None] * g.A_eigs
        assert np.count_nonzero(z < -745) > 0.3 * z.size
        c0 = g.to_coeffs(u.values)
        st = SpaceTimeGrid.from_semigroup(u, times)
        assert np.array_equal(st.coeffs, np.exp(z) * c0)
        plain = g.to_values(np.exp(z[-1]) * c0)
        assert np.array_equal(apply_semigroup(u, times[-1]).values, plain)
        # the phi-weight table's exp(-hA) for the grid's step h
        h = float(times[1] - times[0])
        decay, = spectral.phi_weights(g, h, "decay")
        assert np.count_nonzero(h * g.A_eigs > 745) > 0.3 * decay.size
        assert np.array_equal(decay, np.exp(-h * g.A_eigs))


class TestXtNorm:
    @pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 10, 12)])
    def test_norms_match_broadcast_sum(self, shape):
        dim = len(shape)
        g = SpectralGrid(DomainSpec(dim, (PI,) * dim, shape))
        rng = np.random.default_rng(dim)
        size = (40,) + shape
        coeffs = rng.standard_normal(size) * np.exp(-rng.uniform(0.0, 20.0, size))
        st = SpaceTimeGrid(g, np.linspace(0.0, 0.1, 40), coeffs)
        axes = tuple(range(1, coeffs.ndim))
        # the per-slot broadcast reduction the matrix-vector products replace
        sq = mild._squares(st)
        for got, weights in ((mild._v_norms_sq(st, sq), g.V_eigs),
                             (mild._e_norms_sq(st, sq), g.A_eigs**2)):
            ref = (weights * coeffs**2).sum(axis=axes)
            assert np.max(np.abs(got - ref) / ref) <= 1e-14

    def test_constant_equilibrium_value(self):
        # analytic oracle: sup ||u*||_V^2 = 4 and |A u*|^2 T = 9
        g = grid_1d(32)
        st = constant_grid(g, basis_mode(g, 1), np.linspace(0, 1.0, 41))
        assert abs(xt_norm(st) - np.sqrt(13.0)) < 1e-12

    def test_zero(self):
        g = grid_1d(16)
        st = SpaceTimeGrid(g, np.linspace(0, 1, 5), np.zeros((5,) + g.shape))
        assert xt_norm(st) == 0.0

    def test_time_refinement_second_order(self):
        g = grid_1d(16)
        u = random_unit_field(g, np.random.default_rng(2))
        vals = {}
        for nt in (21, 41, 81):
            st = SpaceTimeGrid.from_semigroup(u, np.linspace(0, 0.1, nt))
            vals[nt] = xt_norm(st)
        e1 = abs(vals[21] - vals[81])
        e2 = abs(vals[41] - vals[81])
        assert e2 < e1
        assert e1 / e2 == pytest.approx(4.0, rel=0.5)


class TestConvolution:
    def test_weights_cached_once_per_spec_and_step(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "_phi_weights_cache", {})
        cfg = tmp_path / "p.cfg"
        cfg.write_text("domain.dim = 1\ndomain.L = 3.141592653589793\n"
                       "domain.N = 16\nstepper.t_end = 0.01\n"
                       "init.kind = random\ninit.seed = 3\n")
        for k in range(3):
            out = tmp_path / f"p{k}"
            assert main(["--config", str(cfg), "--out", str(out), "picard"]) == 0
        assert len(spectral._phi_weights_cache) == 1
        # the table holds the convolution's three columns and no other
        table = next(iter(spectral._phi_weights_cache.values()))
        assert table.keys() == {"decay", "h_phi1_phi2", "h_phi2"}
        for w in table.values():
            assert not w.flags.writeable

    def test_constant_source_closed_form(self):
        g = grid_1d(16)
        times = np.linspace(0, 0.5, 41)
        k = 3
        fc = np.zeros((41,) + g.shape)
        fc[:, k - 1] = 2.0
        out = convolve_semigroup(SpaceTimeGrid(g, times, fc))
        mu = g.A_eigs[k - 1]
        expected = 2.0 * (1 - np.exp(-mu * times)) / mu
        assert np.max(np.abs(out.coeffs[:, k - 1] - expected)) < 1e-14

    def test_matches_per_slot_reference(self):
        g = SpectralGrid(DomainSpec(2, (PI, PI), (12, 10)))
        times = np.linspace(0.0, 0.05, 40)
        fc = np.random.default_rng(11).standard_normal((40,) + g.shape)
        out = convolve_semigroup(SpaceTimeGrid(g, times, fc)).coeffs
        # the recurrence as one expression per slot, the form it replaced,
        # with the accurate phi2 (the closed form cancels for small z)
        h = times[1] - times[0]
        z = h * g.A_eigs
        decay = np.exp(-z)
        phi2 = spectral._phi2(z)
        w_left, w_right = h * (spectral.phi1(z) - phi2), h * phi2
        ref = np.zeros_like(fc)
        for i in range(1, 40):
            ref[i] = decay * ref[i - 1] + w_left * fc[i - 1] + w_right * fc[i]
        tol = 16 * np.finfo(float).eps * np.max(np.abs(ref))
        assert np.max(np.abs(out - ref)) <= tol

    def test_zero_source(self):
        g = grid_1d(16)
        st = SpaceTimeGrid(g, np.linspace(0, 1, 11), np.zeros((11,) + g.shape))
        assert np.all(convolve_semigroup(st).coeffs == 0.0)

    def test_time_refinement_second_order(self):
        # piecewise-linear quadrature error is O(h^2) for a smooth source
        g = grid_1d(16)
        out = {}
        for nt in (11, 21, 41):
            times = np.linspace(0, 0.2, nt)
            fc = np.sin(times)[:, None] * np.ones(g.shape)[None, :]
            fc = fc * np.exp(-np.arange(1, 17))[None, :]
            out[nt] = convolve_semigroup(SpaceTimeGrid(g, times, fc)).coeffs[-1]
        e1 = np.max(np.abs(out[11] - out[41]))
        e2 = np.max(np.abs(out[21] - out[41]))
        assert e1 / e2 == pytest.approx(4.0, rel=0.6)


class TestPhiMap:
    def test_two_transforms_per_time_slot(self, transform_count):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(4))
        u = SpaceTimeGrid.from_semigroup(u0, np.linspace(0.0, 0.01, 40))
        transform_count[0] = 0
        phi_map(u, SpaceTimeGrid.from_semigroup(u0, u.times), TruncationTheta(1e6),
                ModelParams(n=2))
        # one to_values and one to_coeffs per slot, plus u0's coefficients
        assert transform_count[0] == 2 * 40 + 1

    def test_free_evolution_on_other_times_is_rejected(self):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(7))
        u = SpaceTimeGrid.from_semigroup(u0, np.linspace(0.0, 0.01, 11))
        other = SpaceTimeGrid.from_semigroup(u0, np.linspace(0.0, 0.02, 11))
        with pytest.raises(ValueError):
            phi_map(u, other, TruncationTheta(1e6), ModelParams(n=2))

    def test_constant_equilibrium_is_fixed(self):
        # per-mode identity oracle: e^(-3t) + (1 - e^(-3t)) = 1
        g = grid_1d(32)
        u = basis_mode(g, 1)
        st = constant_grid(g, u, np.linspace(0, 0.05, 41))
        out = phi_map(st, SpaceTimeGrid.from_semigroup(u, st.times), TruncationTheta(100.0),
                      ModelParams(n=1))
        assert np.max(np.abs(out.coeffs - st.coeffs)) <= 1e-10

    def test_full_truncation_gives_free_decay(self):
        g = grid_1d(16)
        u = random_unit_field(g, np.random.default_rng(3))
        times = np.linspace(0, 0.05, 21)
        st = constant_grid(g, u, times)
        out = phi_map(st, SpaceTimeGrid.from_semigroup(u, times), TruncationTheta(1e-9),
                      ModelParams(n=2))
        free = SpaceTimeGrid.from_semigroup(u, times)
        assert np.max(np.abs(out.coeffs - free.coeffs)) < 1e-14

    def test_contraction_factor_vanishes_with_horizon(self):
        g = grid_1d(32)
        u0 = random_unit_field(g, np.random.default_rng(4))
        p = ModelParams(n=2)
        th = TruncationTheta(1e6)
        factors = [
            contraction_factor_probe(u0, th, p, T, samples=4, seed=0)
            for T in (0.02, 0.005, 0.00125)
        ]
        assert factors[0] < 1.0
        assert factors[2] < factors[1] < factors[0]

    def test_contraction_factor_needs_a_sample(self):
        # no sample is no evidence, not a perfect contraction
        u0 = random_unit_field(grid_1d(16), np.random.default_rng(4))
        with pytest.raises(ValueError, match="sample"):
            contraction_factor_probe(u0, TruncationTheta(1e6), ModelParams(n=2),
                                     0.02, samples=0)


class TestPicard:
    def test_equilibrium_against_scalar_oracle(self):
        # independent oracle: the flow from u* stays in span{u*}, so Picard
        # reduces to a scalar iteration for the mode-1 amplitude; iterate it
        # on a fine time grid with the same seed trajectory and tolerance
        T, tol = 0.05, 1e-10
        nt_fine = 4001
        t = np.linspace(0, T, nt_fine)
        dt = t[1] - t[0]

        def phi_scalar(gfun):
            # Phi(g)(s) = e^(-3s) + int_0^s e^(-3(s-p)) (4 g^3 - g)(p) dp
            src = 4 * gfun**3 - gfun
            out = np.empty_like(gfun)
            out[0] = 1.0
            acc = 0.0
            for i in range(1, nt_fine):
                acc = acc * np.exp(-3 * dt) + 0.5 * dt * (
                    np.exp(-3 * dt) * src[i - 1] + src[i]
                )
                out[i] = np.exp(-3 * t[i]) + acc
            return out

        gcur = np.exp(-3 * t)
        oracle_iters = None
        v_scale = 2.0  # ||u*||_V
        for j in range(1, 60):
            gnext = phi_scalar(gcur)
            dist = v_scale * np.max(np.abs(gnext - gcur))
            gcur = gnext
            if dist < tol:
                oracle_iters = j
                break
        assert oracle_iters is not None
        assert np.max(np.abs(gcur - 1.0)) < 1e-9  # oracle limit is the equilibrium

        g = grid_1d(32)
        res = picard_solve(basis_mode(g, 1), TruncationTheta(100.0),
                           ModelParams(n=1), T=T, tol=tol)
        assert res.converged
        assert abs(res.iterations - oracle_iters) <= 1
        diff = res.solution.coeffs - g.to_coeffs(basis_mode(g, 1).values)
        assert np.sqrt((diff**2).sum(axis=1).max()) <= 1e-10

    @pytest.mark.parametrize("dealias", (None, 2))
    def test_limit_matches_rk4_reference(self, dealias):
        g = SpectralGrid(DomainSpec(1, (PI,), (14,)))
        u0 = random_unit_field(g, np.random.default_rng(5))
        p = ModelParams(n=2, dealias=dealias)
        T = 0.02
        res = picard_solve(u0, TruncationTheta(1e6), p, T=T, num_points=41)
        assert res.converged
        assert np.all(res.factors < 1.0)
        traj = integrate(u0, p, StepperConfig(scheme="rk4", h=T / 400, t_end=T,
                                              renormalize=False, record_every=10))
        assert traj.coeffs.shape == res.solution.coeffs.shape
        sup = np.sqrt(((res.solution.coeffs - traj.coeffs) ** 2).sum(axis=1).max())
        assert sup <= 1e-4

    def test_fixed_point_consistency(self):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(6))
        p = ModelParams(n=2)
        th = TruncationTheta(1e6)
        res = picard_solve(u0, th, p, T=0.01, tol=1e-12)
        again = phi_map(res.solution, SpaceTimeGrid.from_semigroup(u0, res.solution.times), th, p)
        gap = np.max(np.abs(again.coeffs - res.solution.coeffs))
        assert gap <= 1e-11

    def test_truncation_inactive_when_norm_below_m(self):
        g = SpectralGrid(DomainSpec(1, (PI,), (14,)))
        u0 = random_unit_field(g, np.random.default_rng(7))
        p = ModelParams(n=2)
        a = picard_solve(u0, TruncationTheta(1e5), p, T=0.02)
        b = picard_solve(u0, TruncationTheta(1e6), p, T=0.02)
        assert np.max(np.abs(a.solution.coeffs - b.solution.coeffs)) <= 1e-12

    def test_contraction_factor_sqrt_T_scaling(self):
        g = SpectralGrid(DomainSpec(1, (PI,), (14,)))
        u0 = random_unit_field(g, np.random.default_rng(8))
        p = ModelParams(n=2)
        th = TruncationTheta(1e6)
        L1 = contraction_factor_probe(u0, th, p, 0.02, samples=8, seed=0)
        L4 = contraction_factor_probe(u0, th, p, 0.005, samples=8, seed=0)
        assert L4 / L1 == pytest.approx(0.5, rel=0.3)

    def test_reused_buffers_match_fresh_iterates_bitwise(self):
        # picard_solve writes each iterate into the buffer of the one before
        # the last and reuses one scratch array; iterating phi_map and
        # sup_v_distance on fresh arrays must give the same bits
        g = SpectralGrid(DomainSpec(2, (PI, 2.0), (12, 10)))
        u0 = random_unit_field(g, np.random.default_rng(3))
        th, p = TruncationTheta(1e6), ModelParams(n=2)
        res = picard_solve(u0, th, p, T=0.02, num_points=20)
        assert res.iterations >= 4
        free = SpaceTimeGrid.from_semigroup(u0, res.solution.times)
        current, distances = free, []
        for _ in range(res.iterations):
            nxt = phi_map(current, free, th, p)
            distances.append(mild.sup_v_distance(nxt, current))
            current = nxt
        assert np.array_equal(res.solution.coeffs, current.coeffs)
        assert np.array_equal(res.distances, distances)

    def test_transforms_once_for_the_free_evolution(self, transform_count):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(4))
        transform_count[0] = 0
        res = picard_solve(u0, TruncationTheta(1e6), ModelParams(n=2), T=0.01,
                           num_points=40)
        # u0's coefficients once, then a to_values and a to_coeffs per slot
        assert transform_count[0] == 1 + 80 * res.iterations

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_nonfinite_iterate_is_divergence(self, monkeypatch, bad):
        phi, calls = mild.phi_map, []

        def spoiled(*args, **kwargs):
            nxt = phi(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3:
                nxt.coeffs[7, 2] = bad
            return nxt

        monkeypatch.setattr(mild, "phi_map", spoiled)
        u0 = random_unit_field(grid_1d(16), np.random.default_rng(4))
        with pytest.raises(NonContractionError, match="Picard iterate diverged"):
            picard_solve(u0, TruncationTheta(1e6), ModelParams(n=2), T=0.01)
        assert len(calls) == 3

    def test_overflowing_F_is_divergence(self, monkeypatch):
        def overflowing(*args):
            raise OverflowError("u^(2n-1) overflowed")

        monkeypatch.setattr(model, "_F_values", overflowing)
        u0 = random_unit_field(grid_1d(16), np.random.default_rng(4))
        with pytest.raises(NonContractionError, match="Picard iterate diverged"):
            picard_solve(u0, TruncationTheta(1e6), ModelParams(n=2), T=0.01)

    def test_peak_memory_does_not_grow_with_iterations(self):
        # after its second iteration the loop writes each iterate into the
        # buffer of the one before the last, so a tighter tol (more
        # iterations) does not raise the peak by a trajectory-sized array
        g = SpectralGrid(DomainSpec(2, (PI, PI), (24, 24)))
        u0 = random_unit_field(g, np.random.default_rng(3))
        th, p = TruncationTheta(1e6), ModelParams(n=2)
        picard_solve(u0, th, p, T=0.02, tol=1e-3)  # builds the cached tables

        def peak(tol):
            tracemalloc.start()
            try:
                res = picard_solve(u0, th, p, T=0.02, tol=tol)
                return tracemalloc.get_traced_memory()[1], res.iterations
            finally:
                tracemalloc.stop()

        loose, few = peak(1e-3)
        tight, many = peak(1e-12)
        assert 3 <= few < many
        assert tight - loose < mild.PICARD_POINTS * g.num_points * 8

    def test_too_large_horizon_raises(self):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(9))
        with pytest.raises(NonContractionError):
            picard_solve(u0, TruncationTheta(1e6), ModelParams(n=2), T=5.0)

    def test_rejects_off_manifold_seed(self):
        g = grid_1d(16)
        with pytest.raises(ManifoldError):
            picard_solve(1.1 * basis_mode(g, 1), TruncationTheta(10.0),
                         ModelParams(n=1), T=0.01)

    @pytest.mark.parametrize("tol", (0.0, -1e-10, np.nan, np.inf))
    def test_rejects_bad_tol(self, tol):
        # a NaN tol would run every iteration and return unconverged
        u0 = basis_mode(grid_1d(16), 1)
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
            picard_solve(u0, TruncationTheta(10.0), ModelParams(n=1), T=0.01, tol=tol)

    def test_rejects_bad_horizon(self):
        # named before any time grid is built, so no warning comes first
        u0, th, p = basis_mode(grid_1d(16), 1), TruncationTheta(10.0), ModelParams(n=1)
        for T in (0.0, -1.0, np.nan, np.inf):
            for solve in (picard_solve, contraction_factor_probe):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="horizon T must be positive and finite"):
                        solve(u0, th, p, T)
