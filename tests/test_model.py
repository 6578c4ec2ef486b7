import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from sphereflow import (
    DomainSpec,
    Field,
    ManifoldError,
    ModelParams,
    NonContractionError,
    SpectralGrid,
    StepperConfig,
    TruncationTheta,
    basis_mode,
    default_step,
    integrate,
    inner_l2,
    l2n_power,
    nonlinearity_F,
    norm_l2,
    picard_solve,
    power_term,
    project_tangent,
    projected_rhs,
    projected_rhs_direct,
    random_coeff_field,
    random_unit_field,
    sobolev_norms_sq,
    step_rk4,
    unprojected_rhs,
)
from sphereflow.model import _F_values, _power

PI = np.pi


def grid_1d(n=32, L=PI):
    return SpectralGrid(DomainSpec(1, (L,), (n,)))


class TestModelParams:
    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            ModelParams(n=0)
        with pytest.raises(ValueError):
            ModelParams(n=1.5)

    def test_rejects_small_dealias_factor(self):
        with pytest.raises(ValueError):
            ModelParams(n=3, dealias=2)


class TestPowerTerm:
    def test_exponent_one_is_identity(self):
        g = grid_1d()
        u = random_coeff_field(g, np.random.default_rng(0))
        w = power_term(u, 1)
        assert np.array_equal(w.values, u.values)
        # a new array: writing to the power leaves u alone
        assert not np.shares_memory(w.values, u.values)

    def test_odd_function_pointwise_oracle(self):
        g = grid_1d()
        u = random_coeff_field(g, np.random.default_rng(1))
        for n in (2, 3):
            w = power_term(u, n)
            oracle = u.values ** (2 * n - 1)
            eps = np.finfo(float).eps
            assert np.all(np.abs(w.values - oracle) <= 4 * eps * np.abs(oracle))
            # a multiplication chain is exactly odd
            assert np.array_equal(power_term(-1.0 * u, n).values, -w.values)

    def test_dealiased_power_is_exact_projection(self):
        # oracle: padding far beyond the exactness threshold gives the same result
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(2))
        for n in (2, 3):
            w = power_term(u, n, dealias=n)
            w_oracle = power_term(u, n, dealias=2 * n + 2)
            assert np.max(np.abs(w.values - w_oracle.values)) < 1e-13

    @pytest.mark.parametrize("n, dealias", [(0, None), (2.5, None), (-1, None),
                                            (2, 1.5), (3, 2), (2, 0)])
    def test_rejects_bad_exponent_or_factor_by_name(self, n, dealias):
        # checked as ModelParams checks them: no quiet u^3 for n = 0, no
        # truncated factor and no aliased power below the factor n
        u = random_unit_field(grid_1d(), np.random.default_rng(3))
        for call in (power_term, l2n_power):
            with pytest.raises(ValueError, match="n must be|zero-pad factor"):
                call(u, n, dealias)

    def test_overflow_reports_location(self):
        g = grid_1d()
        vals = np.ones(32)
        vals[7] = 1e300
        with pytest.raises(OverflowError) as err:
            power_term(Field(g, vals), 2)
        # plain Python numbers, not numpy reprs
        message = str(err.value)
        assert "index (7,) with 1e+300" in message and "np." not in message

    def test_overflow_raises_rather_than_warns(self):
        # a unit-norm state whose power overflows: |u| peaks at 14.04 and
        # 14.04^399 is past the float range
        g = SpectralGrid(DomainSpec(1, (0.01,), (12,)))
        u = basis_mode(g, 1)
        p = ModelParams(n=200)
        calls = [lambda: nonlinearity_F(u, p), lambda: step_rk4(u, p, 1e-16)]
        for scheme in ("etd1", "projected_euler", "rk4"):
            h = default_step(scheme, g)
            cfg = StepperConfig(scheme=scheme, h=h, t_end=h)
            calls.append(lambda cfg=cfg: integrate(u, p, cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(OverflowError, match=r"peaks at index \(\d+,\) with 14\.0"):
                    call()
            with pytest.raises(NonContractionError):
                picard_solve(u, TruncationTheta(1e6), p, 0.02)


class TestL2nPower:
    def test_matches_quadrature_oracle(self):
        g = grid_1d(64)
        u = basis_mode(g, 1)
        target, _ = quad(lambda x: ((2 / PI) ** 0.5 * np.sin(x)) ** 4, 0, PI)
        assert abs(l2n_power(u, 2) - target) < 1e-10
        # dealiased quadrature is exact for the band-limited integrand
        assert abs(l2n_power(u, 2, dealias=2) - target) < 1e-13

    def test_consistency_with_power_term(self):
        # <u^(2n-1), u> must equal the integral of u^(2n) under every policy
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(4))
        for dealias in (None, 2, 4):
            w = power_term(u, 2, dealias=dealias)
            s = l2n_power(u, 2, dealias=dealias)
            assert abs(inner_l2(w, u) - s) <= 1e-13 * max(1.0, s)


class TestNonlinearity:
    def test_dealiased_F_pads_once(self, transform_count):
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(13))
        c = g.to_coeffs(u.values)
        transform_count[0] = 0
        _F_values(g, u.values, c, float(np.vdot(g.A_eigs * c, c)),
                  ModelParams(n=2, dealias=2))
        # padded inverse, fine forward of the power, coarse inverse
        assert transform_count[0] == 3

    def test_dealiased_l2n_power_transforms_twice(self, transform_count):
        # coarse forward, padded inverse: the power is not truncated back
        u = random_unit_field(grid_1d(32), np.random.default_rng(13))
        transform_count[0] = 0
        l2n_power(u, 2, dealias=2)
        assert transform_count[0] == 2

    def test_energy_term_matches_l2n_power(self):
        # the L^{2n} term inside F is the energy's quadrature of u^{2n}
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(12))
        for n in (1, 2, 3):
            for v in (u, -1.0 * u):
                _, s = _power(g, v.values, ModelParams(n=n))
                ref = g.weight * float(np.sum(v.values ** (2 * n)))
                assert abs(s - ref) <= 1e-14 * ref

    def test_ground_mode_n1_oracle(self):
        # each norm factor equals 1 by the quadrature oracle, so F(u*) = 3 u*
        g = grid_1d(64)
        u = basis_mode(g, 1)
        for nf in np.sqrt(sobolev_norms_sq(u)):
            assert abs(nf - 1.0) < 1e-12
        f = nonlinearity_F(u, ModelParams(n=1))
        assert np.max(np.abs(f.values - 3.0 * u.values)) < 1e-12

    def test_zero_field(self):
        g = grid_1d()
        f = nonlinearity_F(Field(g, np.zeros(32)), ModelParams(n=2))
        assert np.all(f.values == 0.0)

    def test_scaling_against_termwise_oracle(self):
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(5))
        p = ModelParams(n=1)
        for c in (0.5, 2.0, -3.0):
            cu = c * u
            l2sq, h1sq, h2sq = sobolev_norms_sq(cu)
            oracle = (h2sq + 2 * h1sq + l2sq) * cu.values - cu.values
            f = nonlinearity_F(cu, p)
            assert np.max(np.abs(f.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_termwise_oracle_n2(self):
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(6))
        p = ModelParams(n=2)
        _, h1sq, h2sq = sobolev_norms_sq(u)
        oracle = (h2sq + 2 * h1sq + l2n_power(u, 2)) * u.values - u.values**3
        assert np.max(np.abs(nonlinearity_F(u, p).values - oracle)) < 1e-12


class TestProjection:
    def test_projects_base_to_zero(self):
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(7))
        assert norm_l2(project_tangent(u, u)) < 1e-14

    def test_orthogonal_vector_unchanged(self):
        g = grid_1d()
        u = basis_mode(g, 1)
        h = basis_mode(g, 2)
        out = project_tangent(u, h)
        assert np.max(np.abs(out.values - h.values)) < 1e-13

    def test_orthonormal_mode_decomposition(self):
        g = grid_1d()
        u = basis_mode(g, 1)
        h = basis_mode(g, 1) + basis_mode(g, 2)
        out = project_tangent(u, h)
        assert np.max(np.abs(out.values - basis_mode(g, 2).values)) < 1e-13

    def test_rejects_off_manifold_base(self):
        g = grid_1d()
        u = 1.5 * basis_mode(g, 1)
        with pytest.raises(ManifoldError):
            project_tangent(u, basis_mode(g, 2))


class TestProjectedRhs:
    def test_ground_mode_is_equilibrium(self):
        g = grid_1d(16)
        u = basis_mode(g, 1)
        p = ModelParams(n=1)
        assert norm_l2(projected_rhs(u, p)) < 1e-10
        assert norm_l2(projected_rhs_direct(u, p)) < 1e-10

    def test_tangency_of_vector_field(self):
        g = grid_1d(64)
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            p = ModelParams(n=n)
            for _ in range(30):
                u = random_unit_field(g, rng)
                r = projected_rhs(u, p)
                assert abs(inner_l2(r, u)) <= 1e-10 * norm_l2(r)

    def test_a_independence_on_manifold(self):
        g = grid_1d(64)
        u = random_unit_field(g, np.random.default_rng(11))
        outs = [
            projected_rhs_direct(u, ModelParams(n=1, a=a)).values
            for a in (-1.0, 0.0, 1.0, 10.0)
        ]
        scale = np.max(np.abs(outs[0]))
        for other in outs[1:]:
            assert np.max(np.abs(outs[0] - other)) <= 1e-10 * scale

    def test_rejects_off_manifold_state(self):
        g = grid_1d()
        with pytest.raises(ManifoldError):
            projected_rhs(1.01 * basis_mode(g, 1), ModelParams(n=1))

    def test_unprojected_rhs_composition(self):
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(12))
        p = ModelParams(n=2, a=0.7)
        gfield = unprojected_rhs(u, p)
        manual = project_tangent(u, gfield)
        direct = projected_rhs_direct(u, p)
        assert np.max(np.abs(manual.values - direct.values)) < 1e-14
