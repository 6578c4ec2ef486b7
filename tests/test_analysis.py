import numpy as np
import pytest

from sphereflow import (
    DomainSpec,
    Field,
    InvarianceGrowthReport,
    ManifoldError,
    ModelParams,
    SpectralGrid,
    StepperConfig,
    a_mu_boundedness,
    apply_A_power,
    basis_mode,
    g_bound,
    gradient_stall_check,
    integrate,
    invariance_growth_test,
    lipschitz_probe,
    norm_l2,
    omega_limit_probe,
    projected_rhs,
    random_unit_field,
    rayleigh_quotient,
    sample_v_field,
    scalar_power_gap_constant,
)
from sphereflow.analysis import INVARIANCE_EPS, predicted_psi_rate
from sphereflow.energy import v_norm
from sphereflow.integrators import _Kernel

PI = np.pi


def grid_1d(n=32):
    return SpectralGrid(DomainSpec(1, (PI,), (n,)))


class TestGBound:
    def test_zero_arguments_leave_cube_root_term(self):
        assert g_bound(0.0, 0.0, 1) == 1.0
        assert g_bound(0.0, 0.0, 3) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, n_arg = rng.uniform(0, 5, size=2)
            for n in (1, 2, 4):
                assert g_bound(m, n_arg, n) == pytest.approx(g_bound(n_arg, m, n))

    def test_monotone_on_grid(self):
        # grid-evaluation oracle: non-decreasing along each axis
        xs = np.linspace(0.0, 4.0, 25)
        for n in (1, 2, 3):
            vals = np.array([[g_bound(a, b, n) for b in xs] for a in xs])
            assert np.all(np.diff(vals, axis=0) >= -1e-12)
            assert np.all(np.diff(vals, axis=1) >= -1e-12)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            g_bound(-1.0, 0.0, 1)


class TestLipschitzProbe:
    def test_finite_and_resolution_stable(self):
        for n in (1, 2, 3):
            p = ModelParams(n=n)
            r1 = lipschitz_probe(grid_1d(32), p, samples=300, seed=4)
            r2 = lipschitz_probe(grid_1d(64), p, samples=300, seed=4)
            assert np.isfinite(r1.max_ratio) and r1.max_ratio > 0
            assert max(r1.max_ratio, r2.max_ratio) / min(r1.max_ratio, r2.max_ratio) <= 2.0

    def test_sampler_hits_target_norm(self):
        g = grid_1d()
        rng = np.random.default_rng(1)
        u = sample_v_field(g, rng, 1.7)
        assert v_norm(u) == pytest.approx(1.7, rel=1e-12)

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            lipschitz_probe(grid_1d(), ModelParams(n=1), samples=0)


class TestScalarPowerGap:
    def test_n1_is_exactly_half(self):
        # analytic oracle: |a - b| / (2 |a - b|) = 1/2 for every pair
        assert scalar_power_gap_constant(1) == pytest.approx(0.5, abs=1e-12)

    def test_finite_for_higher_exponents(self):
        for n in (2, 3):
            c0 = scalar_power_gap_constant(n)
            assert np.isfinite(c0)
            # brute-force oracle on a coarser independent grid never exceeds it
            a = np.linspace(-2, 2, 173)
            b = a[:, None]
            num = np.abs(np.abs(a) ** (2 * n - 2) * a - np.abs(b) ** (2 * n - 2) * b)
            den = (np.abs(a) ** (2 * n - 2) + np.abs(b) ** (2 * n - 2)) * np.abs(a - b)
            mask = den > 0
            assert (num[mask] / den[mask]).max() <= c0 * (1 + 1e-9)


class TestXiLipschitzFormulaShape:
    def test_k_formula_grows_with_truncation_level(self):
        # qualitative shape of the global Lipschitz constant of the
        # truncated nonlinearity: K(m) = G(2m, 2m) + 2 m^2 G(2m, 0),
        # evaluated with unit constants, must grow with m
        for n in (1, 2, 3):
            ms = np.linspace(0.5, 8.0, 30)
            k = np.array([
                g_bound(2 * m, 2 * m, n) + 2 * m**2 * g_bound(2 * m, 0.0, n)
                for m in ms
            ])
            assert np.all(np.diff(k) > 0)


def reference_growth_report(off, p):
    """The growth report as computed from an off-sphere state: the literal
    sqrt(1 + eps) u callers used to build, then two RK4 steps and the
    Richardson-extrapolated rate, with psi_k - psi_0 = <c_k - c_0, c_k + c_0>."""
    grid = off.grid
    c0 = grid.to_coeffs(off.values)
    psi0 = float(np.vdot(c0, c0)) - 1.0
    h = min(1e-5, 0.2 / grid.mu_max)
    kernel = _Kernel("rk4", grid, p, h)
    c1 = kernel.advance(c0, kernel.stage(c0, off.values))
    c2 = kernel.advance(c1, kernel.stage(c1))
    r1 = np.log1p(float(np.vdot(c1 - c0, c1 + c0)) / psi0) / h
    r2 = np.log1p(float(np.vdot(c2 - c0, c2 + c0)) / psi0) / (2 * h)
    measured = 2.0 * r1 - r2
    predicted = predicted_psi_rate(off, p)
    return InvarianceGrowthReport(
        measured_rate=float(measured), predicted_rate=float(predicted), psi0=psi0,
        relative_error=float(abs(measured - predicted) / abs(predicted)))


class TestInvarianceGrowth:
    def test_scaled_ground_mode_rates(self):
        g = grid_1d(16)
        for eps in (1e-3, -1e-3, 1e-2, -1e-2):
            rep = invariance_growth_test(basis_mode(g, 1), ModelParams(n=1), eps)
            assert rep.relative_error <= 0.01
            # predicted rate is the (1+eps)-scaled version of 2*(1+2+1) = 8
            assert rep.predicted_rate == pytest.approx(8.0 * (1 + eps), rel=1e-10)

    def test_sign_symmetry_of_growth(self):
        g = grid_1d(16)
        rp = invariance_growth_test(basis_mode(g, 1), ModelParams(n=1), 1e-3)
        rn = invariance_growth_test(basis_mode(g, 1), ModelParams(n=1), -1e-3)
        assert rp.psi0 > 0 > rn.psi0
        # |psi| grows on both sides at the same rate up to the O(eps)
        # difference between the two base states
        assert rp.measured_rate > 0 and rn.measured_rate > 0
        assert rp.measured_rate == pytest.approx(rn.measured_rate, rel=1e-2)

    def test_random_state_n2(self):
        g = grid_1d(8)
        u = random_unit_field(g, np.random.default_rng(9))
        rep = invariance_growth_test(u, ModelParams(n=2), 1e-2)
        assert rep.relative_error <= 0.01

    def test_random_state_n2_resolved_at_n16(self):
        # the step min(1e-5, 0.2 / mu_max) resolves N = 16's top mode on both
        # sides of the sphere; a fixed 1e-5 left 8.3e-3 at eps = -1e-3
        g = grid_1d(16)
        u = random_unit_field(g, np.random.default_rng(9))
        for eps in (1e-3, -1e-3, 1e-2, -1e-2):
            rep = invariance_growth_test(u, ModelParams(n=2), eps)
            assert rep.relative_error <= 1e-3, eps

    @pytest.mark.parametrize("n, N, base", [(1, 16, "mode"), (2, 16, "random"),
                                            (2, 8, "random")])
    def test_same_report_as_literal_off_state(self, n, N, base):
        # the check_psi_rate presets: the report equals, bit for bit, the one
        # computed from the literal off-sphere state sqrt(1 + eps) u
        g = grid_1d(N)
        u = (basis_mode(g, 1) if base == "mode"
             else random_unit_field(g, np.random.default_rng(9)))
        for eps in INVARIANCE_EPS:
            off = Field(g, np.sqrt(1 + eps) * u.values)
            want = reference_growth_report(off, ModelParams(n=n))
            assert invariance_growth_test(u, ModelParams(n=n), eps) == want, eps

    def test_on_manifold_is_degenerate(self):
        g = grid_1d(16)
        with pytest.raises(ValueError, match="degenerate"):
            invariance_growth_test(basis_mode(g, 1), ModelParams(n=1), 0.0)

    @pytest.mark.parametrize("eps", (-1.0, -2.0, float("nan")))
    def test_rejects_eps_at_or_below_minus_one(self, eps):
        g = grid_1d(16)
        with pytest.raises(ValueError, match="eps must be greater than -1"):
            invariance_growth_test(basis_mode(g, 1), ModelParams(n=1), eps)

    def test_rejects_off_sphere_base(self):
        # the base state must be on M, so that psi(0) is eps
        g = grid_1d(16)
        with pytest.raises(ManifoldError):
            invariance_growth_test(2.0 * basis_mode(g, 1), ModelParams(n=1), 1e-3)

    def test_predicted_rate_formula(self):
        g = grid_1d(16)
        u = random_unit_field(g, np.random.default_rng(10))
        from sphereflow import l2n_power, sobolev_norms_sq

        p = ModelParams(n=2)
        _, h1sq, h2sq = sobolev_norms_sq(u)
        expected = 2.0 * (h2sq + 2 * h1sq + l2n_power(u, 2))
        assert predicted_psi_rate(u, p) == pytest.approx(expected, rel=1e-12)


class TestAMu:
    def test_stationary_value_scalar_oracle(self):
        g = grid_1d(16)
        traj = integrate(basis_mode(g, 1), ModelParams(n=1),
                         StepperConfig(scheme="etd1", h=1e-3, t_end=0.5,
                                       record_every=50))
        rep = a_mu_boundedness(traj, [0.75, 1.0], t_min=0.1)
        assert abs(rep.sups[0.75] - 3**0.75) <= 1e-10
        assert abs(rep.sups[1.0] - 3.0) <= 1e-10

    def test_trajectory_sups_finite_and_tail_trend(self):
        g = grid_1d(64)
        u0 = random_unit_field(g, np.random.default_rng(42))
        traj = integrate(u0, ModelParams(n=2),
                         StepperConfig(scheme="etd1", h=1e-3, t_end=5.0,
                                       record_every=50))
        rep = a_mu_boundedness(traj, [0.55, 0.6, 0.75, 0.9], t_min=0.1)
        for mu, series in rep.norms.items():
            assert np.isfinite(rep.sups[mu])
            q = len(series) // 4
            assert series[-q:].max() <= series[:q].max() * (1 + 1e-12)

    def test_requires_snapshots(self):
        g = grid_1d(16)
        traj = integrate(basis_mode(g, 1), ModelParams(n=1),
                         StepperConfig(scheme="etd1", h=1e-3, t_end=0.2,
                                       keep_snapshots=False))
        with pytest.raises(ValueError):
            a_mu_boundedness(traj, [0.75])

    def test_equals_norm_of_the_applied_power(self):
        g = grid_1d(32)
        traj = integrate(random_unit_field(g, np.random.default_rng(4)), ModelParams(n=2),
                         StepperConfig(scheme="etd1", h=1e-3, t_end=0.3, record_every=20))
        mus = (0.55, 0.75, 1.0)
        rep = a_mu_boundedness(traj, mus, t_min=0.1)
        tail = traj.coeffs[traj.ledger.t >= 0.1]
        assert tail.shape[0] == rep.times.size > 1
        for mu in mus:
            ref = [norm_l2(apply_A_power(Field._wrap(g, g.to_values(c)), mu)) for c in tail]
            assert np.max(np.abs(rep.norms[mu] - ref) / ref) <= 1e-13, mu

    @pytest.mark.parametrize("mu", (0.0, 1.5, float("nan")))
    def test_refuses_mu_outside_unit_interval(self, mu):
        g = grid_1d(16)
        traj = integrate(basis_mode(g, 1), ModelParams(n=1),
                         StepperConfig(scheme="etd1", h=1e-3, t_end=0.2))
        with pytest.raises(ValueError, match=r"mu must lie in \(0, 1\]"):
            a_mu_boundedness(traj, [0.75, mu])

    def test_makes_no_transform(self, transform_count):
        g = grid_1d(16)
        traj = integrate(random_unit_field(g, np.random.default_rng(4)), ModelParams(n=2),
                         StepperConfig(scheme="etd1", h=1e-3, t_end=0.2, record_every=10))
        transform_count[0] = 0
        a_mu_boundedness(traj, [0.55, 0.9], t_min=0.1)
        assert transform_count[0] == 0

    def test_requires_tail(self):
        g = grid_1d(16)
        traj = integrate(basis_mode(g, 1), ModelParams(n=1),
                         StepperConfig(scheme="etd1", h=1e-3, t_end=0.01))
        with pytest.raises(ValueError):
            a_mu_boundedness(traj, [0.75], t_min=0.5)


class TestSteadyAndOmega:
    def test_equilibrium_is_steady(self):
        # at N=8 the vector-field evaluation floor sits below 1e-12
        g = SpectralGrid(DomainSpec(1, (PI,), (8,)))
        p = ModelParams(n=1)
        traj = integrate(basis_mode(g, 1), p,
                         StepperConfig(scheme="etd1", h=1e-3, t_end=0.1))
        assert norm_l2(projected_rhs(traj.final_state, p)) <= 1e-12

    def test_omega_limit_ground_state(self):
        g = grid_1d(32)
        u0 = random_unit_field(g, np.random.default_rng(7))
        cfg = StepperConfig(scheme="etd1", h=1e-3, t_end=20.0, record_every=100)
        rep = omega_limit_probe(u0, ModelParams(n=1), cfg, (5.0, 10.0, 15.0))
        assert rep.converged
        assert rep.stall_ok
        assert rep.per_q_max_distance[15.0] <= rep.per_q_max_distance[5.0] + 1e-15
        assert abs(rayleigh_quotient(rep.limit_candidate) - 3.0) <= 1e-6

    def test_tail_distances_equal_pairwise_v_norms(self):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(7))
        p = ModelParams(n=2)
        # t_end lies two ulps above 0.03 = 30 h, the last record time, so
        # the q one ulp above 0.03 has an empty tail
        cfg = StepperConfig(scheme="etd1", h=1e-3, t_end=0.030000000000000006)
        traj = integrate(u0, p, cfg)
        t = traj.ledger.t
        past_last = np.nextafter(t[-1], 1.0)
        assert t[-1] < past_last < cfg.t_end
        fields = [Field._wrap(g, g.to_values(c)) for c in traj.coeffs]
        # tails of 31, 11, 2, 1 and 0 records
        q_list = (0.0, t[-11], t[-2], t[-1], past_last)
        rep = omega_limit_probe(u0, p, cfg, q_list)
        for q, size in zip(q_list, (31, 11, 2, 1, 0)):
            tail = [f for f, tf in zip(fields, t) if tf >= q]
            assert len(tail) == size
            ref = max((v_norm(a - b) for i, a in enumerate(tail) for b in tail[i + 1:]),
                      default=0.0)
            got = rep.per_q_max_distance[q]
            if size > 1:
                assert ref > 0.0 and abs(got - ref) <= 1e-9 * ref, q
            else:
                assert got == 0.0, q
        assert not rep.converged  # the deepest tail holds no pair
        rep = omega_limit_probe(u0, p, cfg, (t[-1],))
        assert rep.per_q_max_distance[t[-1]] == 0.0 and not rep.converged

    def test_tail_test_makes_no_transform_after_the_run(self, transform_count):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(7))
        cfg = StepperConfig(scheme="etd1", h=1e-3, t_end=0.5, record_every=5)
        transform_count[0] = 0
        integrate(u0, ModelParams(n=1), cfg)
        run = transform_count[0]
        transform_count[0] = 0
        omega_limit_probe(u0, ModelParams(n=1), cfg, (0.1, 0.25))
        assert transform_count[0] == run

    def test_omega_limit_requires_snapshots(self):
        u0 = random_unit_field(grid_1d(16), np.random.default_rng(7))
        cfg = StepperConfig(scheme="etd1", h=1e-3, t_end=0.1, keep_snapshots=False)
        with pytest.raises(ValueError, match="snapshots"):
            omega_limit_probe(u0, ModelParams(n=1), cfg, (0.05,))

    def test_stall_events_pass_on_converged_run(self):
        g = grid_1d(32)
        u0 = random_unit_field(g, np.random.default_rng(12))
        traj = integrate(u0, ModelParams(n=1),
                         StepperConfig(scheme="etd1", h=1e-3, t_end=15.0,
                                       record_every=100))
        ok, events = gradient_stall_check(traj)
        assert ok
        assert len(events) > 0  # the converged tail stalls
        for e in events:
            assert e.residual < 1e-6

    def test_stall_check_needs_no_snapshots(self):
        # the criterion reads only the ledger's t, Y and u_t columns
        g = grid_1d(32)
        u0 = random_unit_field(g, np.random.default_rng(12))
        results = [
            gradient_stall_check(integrate(u0, ModelParams(n=1), StepperConfig(
                scheme="etd1", h=1e-3, t_end=4.0, record_every=100,
                keep_snapshots=keep)))
            for keep in (True, False)
        ]
        assert results[0] == results[1]
        assert results[0][0] and len(results[0][1]) > 0

    def test_omega_q_must_fit_horizon(self):
        g = grid_1d(16)
        u0 = basis_mode(g, 1)
        cfg = StepperConfig(scheme="etd1", h=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            omega_limit_probe(u0, ModelParams(n=1), cfg, (2.0,))
