import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sphereflow import (
    BlowUpError,
    DomainSpec,
    Field,
    ModelParams,
    SpaceTimeGrid,
    SpectralGrid,
    StepperConfig,
    TruncationTheta,
    basis_mode,
    convergence_order_probe,
    default_step,
    integrate,
    make_report,
    nonlinearity_F,
    norm_l2,
    phi_map,
    power_term,
    projected_rhs,
    random_unit_field,
    renormalize,
    step_etd1,
)
from sphereflow import integrators, spectral
from sphereflow.integrators import (EXPONENTIAL, SCHEMES, TABLEAUS, V_NORM_LIMIT, _Kernel,
                                    stability_limit)
from sphereflow.model import _fine_grid, _power, _Work

PI = np.pi


def grid_1d(n=16, L=PI):
    return SpectralGrid(DomainSpec(1, (L,), (n,)))


def one_step(scheme, u, p, h):
    """One step of the scheme from u itself: an unretracted integrate to t_end = h."""
    cfg = StepperConfig(scheme, h, h, renormalize=False, keep_snapshots=False)
    return integrate(u, p, cfg).final_state


class TestStepperConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepperConfig(scheme="leapfrog")
        with pytest.raises(ValueError):
            StepperConfig(h=0.0)
        with pytest.raises(ValueError):
            StepperConfig(record_every=0)
        with pytest.raises(ValueError):
            StepperConfig(t_end=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("h", math.nan), ("h", math.inf), ("t_end", math.nan), ("t_end", math.inf),
    ])
    def test_nonfinite_step_or_horizon_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            StepperConfig(**{field: value})

    @pytest.mark.parametrize("value", (2.5, math.nan, math.inf))
    def test_record_every_must_be_integer(self, value):
        # 2.5 used to record at steps 0, 5, 10, ... through i % 2.5 == 0
        with pytest.raises(ValueError, match="record_every must be an integer"):
            StepperConfig(record_every=value)

    @pytest.mark.parametrize("field", ("renormalize", "keep_snapshots"))
    @pytest.mark.parametrize("value", ("false", None, 2))
    def test_flags_must_be_booleans(self, field, value):
        # "false" is truthy, so it used to retract or keep snapshots quietly
        with pytest.raises(ValueError, match=f"{field} must be a boolean, got {value!r}"):
            StepperConfig(**{field: value})
        StepperConfig(**{field: np.False_})  # numpy's booleans are accepted

    def test_step_must_divide_t_end(self):
        # rounding t_end / h used to stop these runs at t = 0.9 and t = 0.8
        for h in (0.3, 0.4):
            with pytest.raises(ValueError, match=f"h = {h}.*t_end = 1.0"):
                StepperConfig(h=h, t_end=1.0)
        assert StepperConfig(h=0.25, t_end=1.0).h == 0.25
        # the order probe checks every step before its first run
        u0 = basis_mode(grid_1d(8), 1)
        with pytest.raises(ValueError, match="does not divide"):
            convergence_order_probe(u0, ModelParams(n=1), "etd1", (0.1, 0.2, 0.3),
                                    t_end=1.0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_default_step(self, scheme):
        # 1e-3 for the exponential schemes, stability-limited for the others
        g = grid_1d(64)
        want = 1e-3 if scheme in EXPONENTIAL else min(1e-3, 0.5 / g.mu_max)
        assert default_step(scheme, g) == want


class TestEquilibrium:
    def test_single_steps_fix_ground_mode(self):
        g = grid_1d(16)
        u = basis_mode(g, 1)
        p = ModelParams(n=1)
        # scalar identity oracle: e^(-3h) + h*phi1(3h)*3 = 1 for every h
        h = 1e-3
        assert abs(np.exp(-3 * h) + h * (1 - np.exp(-3 * h)) / (3 * h) * 3 - 1) < 1e-16
        # each scheme at its default step: below the explicit stability limit
        for scheme in SCHEMES:
            assert norm_l2(one_step(scheme, u, p, default_step(scheme, g)) - u) <= 1e-12

    def test_equilibrium_trajectory(self):
        g = grid_1d(64)
        u = basis_mode(g, 1)
        traj = integrate(
            u, ModelParams(n=1),
            StepperConfig(scheme="etd1", h=1e-3, t_end=1.0, record_every=100),
        )
        assert norm_l2(traj.final_state - u) <= 1e-10
        assert abs(traj.ledger.Y[-1] - traj.ledger.Y[0]) <= 1e-10


class TestStepConsistency:
    def test_etd1_small_h_limit_is_vector_field(self):
        # finite-difference oracle: (u+ - u)/h -> projected_rhs with O(h) error
        g = grid_1d(12)
        u = random_unit_field(g, np.random.default_rng(0))
        p = ModelParams(n=2)
        r = projected_rhs(u, p)
        errs = []
        for h in (1e-5, 5e-6):
            fd = (step_etd1(u, p, h) - u) * (1.0 / h)
            errs.append(norm_l2(fd - r))
        # O(h): halving h halves the defect
        assert errs[1] < errs[0]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)

    def test_etd1_norm_drift_second_order_in_h(self):
        g = grid_1d(12)
        u = random_unit_field(g, np.random.default_rng(1))
        p = ModelParams(n=2)
        drifts = [abs(norm_l2(step_etd1(u, p, h)) ** 2 - 1.0) for h in (1e-4, 5e-5)]
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.3)

    def test_rk4_agrees_with_etd1_at_small_h(self):
        g = grid_1d(12)
        u0 = random_unit_field(g, np.random.default_rng(2))
        p = ModelParams(n=2)
        out = {}
        for scheme in ("rk4", "etd1"):
            cfg = StepperConfig(scheme=scheme, h=5e-5, t_end=0.1, record_every=10**9,
                                keep_snapshots=False)
            out[scheme] = integrate(u0, p, cfg).final_state
        assert norm_l2(out["rk4"] - out["etd1"]) <= 1e-5

    def test_step_rejects_nonpositive_h(self):
        g = grid_1d()
        u = basis_mode(g, 1)
        # a nan step, which passes h <= 0, is refused by the same rule
        for scheme in SCHEMES:
            for h in (0.0, math.nan):
                with pytest.raises(ValueError, match="h must be finite and positive"):
                    one_step(scheme, u, ModelParams(n=1), h)


class TestRenormalize:
    def test_unit_state_unchanged(self):
        g = grid_1d()
        u = basis_mode(g, 1)
        assert norm_l2(renormalize(u) - u) <= 1e-15

    def test_scaling(self):
        g = grid_1d()
        u = basis_mode(g, 1)
        assert norm_l2(renormalize(2.0 * u) - u) <= 1e-15

    def test_idempotent(self):
        g = grid_1d()
        u = 3.7 * random_unit_field(g, np.random.default_rng(3))
        once = renormalize(u)
        twice = renormalize(once)
        assert norm_l2(twice - once) <= 1e-15
        assert abs(norm_l2(once) - 1.0) <= 1e-15

    def test_zero_rejected(self):
        g = grid_1d()
        with pytest.raises(ValueError):
            renormalize(Field(g, np.zeros(16)))


class TestIntegrate:
    def test_records_aligned_and_increasing(self):
        g = grid_1d(16)
        traj = integrate(
            random_unit_field(g, np.random.default_rng(4)), ModelParams(n=1),
            StepperConfig(scheme="etd1", h=1e-3, t_end=0.05, record_every=7),
        )
        t = traj.ledger.t
        assert np.all(np.diff(t) > 0)
        assert all(column.shape == t.shape for column in traj.ledger)
        assert traj.coeffs.shape == (t.size,) + g.shape
        assert t[-1] == pytest.approx(0.05)

    def test_manifold_drift_with_retraction(self):
        g = grid_1d(128)
        u0 = random_unit_field(g, np.random.default_rng(5), decay=5.0)
        traj = integrate(
            u0, ModelParams(n=2),
            StepperConfig(scheme="etd1", h=1e-3, t_end=0.2, record_every=1,
                          keep_snapshots=False),
        )
        assert traj.ledger.norm_drift.max() <= 1e-14

    def test_free_drift_scales_first_order(self):
        g = grid_1d(128)
        u0 = random_unit_field(g, np.random.default_rng(5), decay=5.0)
        drifts = {}
        for h in (1e-3, 5e-4):
            traj = integrate(
                u0, ModelParams(n=2),
                StepperConfig(scheme="etd1", h=h, t_end=1.0, renormalize=False,
                              record_every=1, keep_snapshots=False),
            )
            drifts[h] = traj.ledger.norm_drift.max()
        assert drifts[1e-3] / drifts[5e-4] == pytest.approx(2.0, rel=0.3)

    def test_unretracted_run_starts_from_u0_as_given(self):
        # renormalize=False never retracts, not even at t = 0: the run
        # starts off the sphere, at |u0|^2 = 1.01
        g = grid_1d(16)
        u0 = math.sqrt(1.01) * random_unit_field(g, np.random.default_rng(22))
        traj = integrate(u0, ModelParams(n=2), StepperConfig(h=1e-3, t_end=0.01,
                                                             renormalize=False))
        want = g.to_coeffs(u0.values)
        assert np.array_equal(traj.coeffs[0].view(np.int64), want.view(np.int64))
        assert traj.ledger.norm_drift[0] == pytest.approx(0.01, abs=1e-14)
        # stage 0 takes u0's values, not the values of its coefficients (whose
        # integral of u^4 differs here in the last bits): the first record
        # holds that stage's integral
        stage = _Kernel("etd1", g, ModelParams(n=2), 1e-3).stage
        assert traj.ledger.l2n_pow[0] == stage(want, u0.values)[2] != stage(want)[2]

    def test_rk4_free_drift_vanishes_at_scheme_order(self):
        g = SpectralGrid(DomainSpec(1, (PI,), (8,)))
        u0 = random_unit_field(g, np.random.default_rng(5))
        drifts = {}
        for h in (1e-4, 5e-5):
            traj = integrate(
                u0, ModelParams(n=2),
                StepperConfig(scheme="rk4", h=h, t_end=0.05, renormalize=False,
                              record_every=1, keep_snapshots=False),
            )
            drifts[h] = traj.ledger.norm_drift.max()
        # fourth-order scheme: halving h divides the drift by ~16
        assert 12.0 <= drifts[1e-4] / drifts[5e-5] <= 24.0

    def test_blow_up_guard(self):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(6))
        with pytest.warns(UserWarning, match="stability"), \
                pytest.raises(BlowUpError) as err:
            # retraction disabled: on the sphere the V-norm cannot exceed
            # 1 + lam_max, so the guard can only trip on a free run
            integrate(
                u0, ModelParams(n=2),
                StepperConfig(scheme="projected_euler", h=1e-3, t_end=1.0,
                              renormalize=False, keep_snapshots=False),
            )
        # the V-norm is a plain Python number, not a numpy repr
        message = str(err.value)
        assert "np." not in message
        vn = float(message.split("V-norm ")[1].split()[0])
        assert vn > V_NORM_LIMIT and f"exceeded {V_NORM_LIMIT:g}" in message
        assert err.value.t is not None
        assert err.value.last_state is not None
        assert np.all(np.isfinite(err.value.last_state.values))

    def test_stability_warning_for_explicit_scheme(self):
        g = grid_1d(32)
        u0 = basis_mode(g, 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                integrate(u0, ModelParams(n=1),
                          StepperConfig(scheme="rk4", h=1e-2, t_end=0.02,
                                        keep_snapshots=False))
            except (BlowUpError, ValueError, OverflowError):
                pass
        assert any("stability" in str(w.message) for w in caught)

    def test_gronwall_separation_proxy(self):
        # nearby states separate at most exponentially; the fitted gain is
        # finite and stable under step refinement
        g = grid_1d(32)
        u0 = random_unit_field(g, np.random.default_rng(7))
        delta = 1e-8
        pert = basis_mode(g, 3)
        from sphereflow import inner_l2, project_tangent

        d = project_tangent(u0, pert)
        d = (delta / norm_l2(d)) * d
        u0b = renormalize(u0 + d)
        gains = {}
        for h in (1e-3, 5e-4):
            cfg = StepperConfig(scheme="etd1", h=h, t_end=1.0, record_every=50)
            t1 = integrate(u0, ModelParams(n=2), cfg)
            t2 = integrate(u0b, ModelParams(n=2), cfg)
            # the V-distance of the recorded coefficients, by Parseval
            sep = np.sqrt(((t1.coeffs - t2.coeffs) ** 2 @ g.V_eigs).max())
            gains[h] = sep / delta
        assert all(np.isfinite(k) and k < 1e4 for k in gains.values())
        assert max(gains.values()) / min(gains.values()) < 2.0


class TestBlowUpGuard:
    # retracted: the pre-retraction V-norm first crosses the bound at step 6;
    # free: the run of test_blow_up_guard
    RUNS = {
        "retracted": (56, StepperConfig(scheme="projected_euler", h=1e-2, t_end=1.0,
                                         keep_snapshots=False)),
        "free": (16, StepperConfig(scheme="projected_euler", h=1e-3, t_end=1.0,
                                   renormalize=False, keep_snapshots=False)),
    }

    @staticmethod
    def two_pass_blow_up(u0, p, cfg):
        """Step the kernel by hand as integrate does, with the guard's
        two-pass rule <V c, c> > V_NORM_LIMIT^2 on each new state; returns
        the time it first holds, the V-norm there and u before that step.
        Unretracted, the run starts from u0's coefficients as given and its
        first stage takes u0's values."""
        grid, h = u0.grid, cfg.h
        kernel = _Kernel(cfg.scheme, grid, p, h)
        c = grid.to_coeffs(u0.values)
        if cfg.renormalize:
            c = c / math.sqrt(np.vdot(c, c))
        with np.errstate(over="ignore"):
            for i in range(int(round(cfg.t_end / h))):
                values = None if i or cfg.renormalize else u0.values
                last, c = c, kernel.advance(c, kernel.stage(c, values))
                vn_sq = float(np.vdot(grid.V_eigs * c, c))
                if not vn_sq <= V_NORM_LIMIT**2:
                    return (i + 1) * h, math.sqrt(vn_sq), grid.to_values(last)
                if cfg.renormalize:
                    c = c / math.sqrt(np.vdot(c, c))
        raise AssertionError("the two-pass rule never trips")

    def blow_up(self, name, monkeypatch):
        """The BlowUpError of the named run, the two-pass rule's result and
        the number of F calls the run made."""
        N, cfg = self.RUNS[name]
        u0 = random_unit_field(grid_1d(N), np.random.default_rng(6))
        p = ModelParams(n=2)
        calls, F = [], integrators._F_values
        monkeypatch.setattr(integrators, "_F_values",
                            lambda *args: calls.append(None) or F(*args))
        with pytest.warns(UserWarning, match="stability"), \
                pytest.raises(BlowUpError) as err:
            integrate(u0, p, cfg)
        f_calls = len(calls)
        return err.value, self.two_pass_blow_up(u0, p, cfg), f_calls

    @pytest.mark.parametrize("name", ("retracted", "free"))
    def test_trips_where_the_two_pass_rule_does(self, monkeypatch, name):
        err, (t, _, last_values), f_calls = self.blow_up(name, monkeypatch)
        h = self.RUNS[name][1].h
        assert err.t == t
        assert np.array_equal(err.last_state.values, last_values)
        # one stage per step, each state before the offending one: F never
        # runs on the state that trips the guard
        assert f_calls == round(t / h)
        if name == "retracted":
            assert t > h  # not on the first step

    @pytest.mark.parametrize("name", ("retracted", "free"))
    def test_reported_v_norm_is_the_two_pass_v_norm(self, monkeypatch, name):
        err, (_, vn, _), _ = self.blow_up(name, monkeypatch)
        reported = float(str(err).split("V-norm ")[1].split()[0])
        assert abs(reported - vn) <= 1e-12 * vn

    @pytest.mark.parametrize("n", (1, 3))
    @pytest.mark.parametrize("retract", (True, False))
    @pytest.mark.parametrize("bad", (math.inf, math.nan))
    def test_nonfinite_state_is_blow_up_before_F(self, monkeypatch, n, retract, bad):
        advance, F = _Kernel.advance, integrators._F_values
        steps = []

        def spoiled(self, c, first):
            out = advance(self, c, first)
            steps.append(None)
            if len(steps) == 3:
                out = out.copy()
                out[2] = bad
            return out

        def finite_F(work, c, *args):
            assert np.all(np.isfinite(c)), "F ran on a non-finite state"
            return F(work, c, *args)

        monkeypatch.setattr(_Kernel, "advance", spoiled)
        monkeypatch.setattr(integrators, "_F_values", finite_F)
        u0 = random_unit_field(grid_1d(16), np.random.default_rng(6))
        with pytest.raises(BlowUpError, match=r"V-norm (inf|nan) exceeded") as err:
            integrate(u0, ModelParams(n=n), StepperConfig(
                h=1e-3, t_end=0.01, renormalize=retract, keep_snapshots=False))
        assert err.value.t == 3 * 1e-3
        assert np.all(np.isfinite(err.value.last_state.values))

    @pytest.mark.parametrize("vn_sq, shown", (
        (math.nan, "nan"), (math.inf, "inf"),
        (np.nextafter(V_NORM_LIMIT**2, math.inf), "100000000.00000001")))
    def test_guard_trips_on_the_same_values(self, monkeypatch, vn_sq, shown):
        # advance reaches a zero state at step 3 whose <A c, c> is set to
        # vn_sq; unretracted, the guard then reads |c|^2 + <A c, c> = vn_sq
        advance, a_terms = _Kernel.advance, integrators._a_terms
        steps = []

        def zero_at_3(self, c, first):
            steps.append(None)
            return np.zeros_like(c) if len(steps) == 3 else advance(self, c, first)

        def set_a_sq(A_eigs, c, out=None):
            ac, a_sq = a_terms(A_eigs, c, out)
            return ac, (a_sq if c.any() else vn_sq)

        monkeypatch.setattr(_Kernel, "advance", zero_at_3)
        monkeypatch.setattr(integrators, "_a_terms", set_a_sq)
        u0 = random_unit_field(grid_1d(16), np.random.default_rng(6))
        cfg = StepperConfig(h=1e-3, t_end=0.01, renormalize=False, keep_snapshots=False)
        with pytest.raises(BlowUpError) as err:
            integrate(u0, ModelParams(n=2), cfg)
        assert str(err.value) == f"blow-up at t = 0.003: V-norm {shown} exceeded 1e+08"
        assert err.value.t == 3e-3
        # at the limit itself the run goes on
        vn_sq, steps[:] = V_NORM_LIMIT**2, []
        integrate(u0, ModelParams(n=2), cfg)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_step_guard_reads_what_integrate_reads(self, monkeypatch, scheme):
        # advance reaches the zero state, whose <A c, c> is set to vn_sq: on
        # the first step of every scheme, the guard of an unretracted
        # integrate reads |c|^2 + <A c, c> = vn_sq
        advance, a_terms = _Kernel.advance, integrators._a_terms
        vn_sq = V_NORM_LIMIT**2

        def set_a_sq(A_eigs, c, out=None):
            ac, a_sq = a_terms(A_eigs, c, out)
            return ac, (a_sq if c.any() else vn_sq)

        monkeypatch.setattr(_Kernel, "advance",
                            lambda self, c, first: 0.0 * advance(self, c, first))
        monkeypatch.setattr(integrators, "_a_terms", set_a_sq)
        u = random_unit_field(grid_1d(16), np.random.default_rng(21))
        p, h = ModelParams(n=2), 1e-6
        for vn_sq in (np.nextafter(V_NORM_LIMIT**2, 0.0), V_NORM_LIMIT**2):
            assert not one_step(scheme, u, p, h).values.any()
        vn_sq = np.nextafter(V_NORM_LIMIT**2, math.inf)
        with pytest.raises(BlowUpError) as err:
            one_step(scheme, u, p, h)
        assert str(err.value) == "blow-up at t = 1e-06: V-norm 100000000.00000001 exceeded 1e+08"
        assert err.value.t == h

    def test_n1_nonlinearity_does_not_alias_u(self):
        # F reads u as its own power u^(2n-1) for n = 1; results are still new arrays
        u = random_unit_field(grid_1d(16), np.random.default_rng(15))
        for out in (nonlinearity_F(u, ModelParams(n=1)), power_term(u, 1)):
            assert not np.shares_memory(out.values, u.values)


class TestKernel:
    SCHEMES = (("etd1", 1e-4), ("projected_euler", 1e-5), ("rk4", 1e-5))

    def test_transforms_per_step_and_records_add_none(self, transform_count):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(11))
        stages = {"etd1": 1, "projected_euler": 1, "rk4": 4}
        # F is a number times c for n = 1, and takes u's values and the
        # power's coefficients for n = 2, on the padded grid when dealiased
        per_stage = {(1, None): 0, (1, 2): 0, (2, None): 2, (2, 2): 2}
        for (n, dealias), cost in per_stage.items():
            for scheme, h in self.SCHEMES:
                for record_every in (1, 10**9):
                    transform_count[0] = 0
                    integrate(u0, ModelParams(n=n, dealias=dealias), StepperConfig(
                        scheme=scheme, h=h, t_end=10 * h, record_every=record_every,
                        keep_snapshots=False))
                    # the initial and the final transform, the first stage
                    # and then each step's stages
                    want = 2 + (1 + 10 * stages[scheme]) * cost
                    assert transform_count[0] == want, (n, dealias, scheme)

    def test_dealiasing_grid_builds_no_per_mode_array(self):
        g = SpectralGrid(DomainSpec(2, (2.75, PI), (12, 8)))  # padded by no other test
        integrate(basis_mode(g, (1, 2)), ModelParams(n=2, dealias=2),
                  StepperConfig(h=1e-3, t_end=0.01))
        fine = _fine_grid(g.spec, 2)
        assert not {"lap_eigs", "A_eigs", "V_eigs", "mode_magnitude"} & fine.__dict__.keys()

    def test_one_padded_grid_is_cached(self):
        # each dealiased run uses one padded grid: the cache keeps the last
        p, cfg = ModelParams(n=2, dealias=2), StepperConfig(h=1e-3, t_end=0.002)
        for shape in ((12, 8), (8, 10)):
            g = SpectralGrid(DomainSpec(2, (PI, PI), shape))
            integrate(basis_mode(g, (1, 1)), p, cfg)
        info = _fine_grid.cache_info()
        assert info.currsize == 1
        _fine_grid(g.spec, 2)  # the one kept is the last run's
        assert _fine_grid.cache_info().hits == info.hits + 1

    def test_records_match_make_report_from_the_state(self):
        g = grid_1d(16)
        u0 = random_unit_field(g, np.random.default_rng(12))
        for p in (ModelParams(n=2), ModelParams(n=2, dealias=2)):
            for scheme, h in self.SCHEMES:
                traj = integrate(u0, p, StepperConfig(
                    scheme=scheme, h=h, t_end=20 * h, record_every=3))
                led = traj.ledger
                for i, c in enumerate(traj.coeffs):
                    u = Field._wrap(g, g.to_values(c))
                    ref = make_report(u, p, led.t[i], led.ut_l2_sq[i],
                                      led.dissipation_integral[i])
                    for name in ("l2_norm", "h1_seminorm_sq", "h2_seminorm_sq",
                                 "v_norm_sq", "l2n_pow", "Y"):
                        new, old = getattr(led, name)[i], getattr(ref, name)
                        assert abs(new - old) <= 1e-13 * abs(old), (scheme, name)

    def test_etd1_reads_one_cached_weight_table(self, monkeypatch):
        g = SpectralGrid(DomainSpec(2, (PI, PI), (16, 12)))
        u = random_unit_field(g, np.random.default_rng(16))
        p, h = ModelParams(n=2), 1e-3
        builds, phi2 = [], spectral._phi2
        monkeypatch.setattr(spectral, "_phi_weights_cache", {})
        monkeypatch.setattr(spectral, "_phi2", lambda z: builds.append(None) or phi2(z))
        step_etd1(step_etd1(u, p, h), p, h)
        integrate(u, p, StepperConfig(h=h, t_end=5 * h))
        kernel = _Kernel("etd1", g, p, h)
        # ETD1 builds exp(-hA) and h phi1 once, and no convolution column
        assert not builds
        (table,) = spectral._phi_weights_cache.values()
        assert table.keys() == {"decay", "h_phi1"}
        decay, h_phi1 = spectral.phi_weights(g, h, "decay", "h_phi1")
        assert kernel.decay is decay
        assert len(kernel.hb) == 1 and kernel.hb[0] is h_phi1
        assert not (kernel.decay.flags.writeable or kernel.hb[0].flags.writeable)
        # a Picard map on the same grid and step adds the convolution pair
        # to the same table, with one phi2 pass, bitwise equal to the
        # weights written out
        times = np.linspace(0.0, 4 * h, 5)
        orbit = SpaceTimeGrid.from_semigroup(u, times)
        phi_map(orbit, orbit, TruncationTheta(1e6), p)
        assert len(builds) == 1
        assert table.keys() == {"decay", "h_phi1", "h_phi1_phi2", "h_phi2"}
        z = h * g.A_eigs
        p1, p2 = spectral.phi1(z), phi2(z)
        for name, want in (("decay", spectral.semigroup_factors(g, h)),
                           ("h_phi1", h * p1), ("h_phi1_phi2", h * (p1 - p2)),
                           ("h_phi2", h * p2)):
            assert np.array_equal(table[name].view(np.int64), want.view(np.int64)), name
            assert not table[name].flags.writeable
        assert table["decay"] is decay and table["h_phi1"] is h_phi1

    @staticmethod
    def reference_integrate(u0, p, cfg):
        """integrate with the kernel written literally: N = ((a_sq + s) - 1) c
        with s = |c|^2 for n = 1, and otherwise the coefficients of F's
        values u ((a_sq + s) - q), q = (u^2)^(n-1) and s the quadrature of
        q u^2, on the padded grid and truncated with dealiasing; fresh
        arrays throughout, generator sums for the stage states, the sum of
        h b_j k_j as one np.dot over the stacked k's for RK4, and
        np.vdot Parseval sums.  Returns the final values, the reports and a
        copy of c at each record."""
        grid, h = u0.grid, cfg.h
        a, b = TABLEAUS[cfg.scheme]
        ha = [[h * x for x in row] for row in a]
        if cfg.scheme == "etd1":  # plain exp and phi1, not the phi-weight table
            z = h * grid.A_eigs
            decay, hb = np.exp(-z), [h * spectral.phi1(z)]
        else:
            decay, hb = None, [h * x for x in b]
        fine = grid if p.dealias is None else _fine_grid(grid.spec, p.dealias)
        modes = tuple(map(slice, grid.shape))

        def stage(c):
            a_sq = float(np.vdot(grid.A_eigs * c, c))
            if p.n == 1:
                s = float(np.vdot(c, c))
                n = ((a_sq + s) - 1.0) * c
            else:
                padded = np.zeros(fine.shape)
                padded[modes] = c
                v = fine.to_values(padded)
                sq = q = v * v
                for _ in range(p.n - 2):
                    q = q * sq
                s = fine.weight * float(np.vdot(q, sq))
                n = np.ascontiguousarray(fine.to_coeffs(v * ((a_sq + s) - q))[modes])
            return n, n - grid.A_eigs * c, s

        def advance(c, first):
            if decay is not None:
                return decay * c + hb[0] * first[0]
            ks = [first[1]]
            for row in ha:
                ks.append(stage(sum((x * k for x, k in zip(row, ks) if x), c))[1])
            if len(ks) == 1:
                return c + hb[0] * ks[0]
            return c + np.dot(np.array(hb), np.stack(ks).reshape(len(ks), -1)).reshape(c.shape)

        c = grid.to_coeffs(u0.values)
        c = c / math.sqrt(np.vdot(c, c))
        n_steps = int(round(cfg.t_end / h))
        reports, rows, dissipation = [], [], 0.0
        st = stage(c)
        for i in range(n_steps + 1):
            _, k, s = st
            ut_sq = float(np.vdot(k, k))
            if i:
                dissipation += 0.5 * h * (prev_ut_sq + ut_sq)
            prev_ut_sq = ut_sq
            if i % cfg.record_every == 0 or i == n_steps:
                lam_c = grid.lap_eigs * c
                sums = (float(np.vdot(c, c)), float(np.vdot(lam_c, c)),
                        float(np.vdot(lam_c, lam_c)))
                reports.append(make_report(None, p, i * h, ut_sq, dissipation, sums, s))
                rows.append(c.copy())
            if i == n_steps:
                return grid.to_values(c), reports, rows
            c = advance(c, st)
            c = c / math.sqrt(np.vdot(c, c))
            st = stage(c)

    @pytest.mark.parametrize("scheme", ("etd1", "projected_euler", "rk4"))
    @pytest.mark.parametrize("resolution", ((12,), (16, 12), (8, 8, 10)))
    def test_bitwise_equal_to_literal_reference(self, scheme, resolution):
        dim = len(resolution)
        g = SpectralGrid(DomainSpec(dim, (PI,) * dim, resolution))
        u0 = random_unit_field(g, np.random.default_rng(14))
        h = default_step(scheme, g)
        # a few steps at every n, and 50 steps recorded on each
        cfgs = {n: [StepperConfig(scheme=scheme, h=h, t_end=6 * h, record_every=2)]
                for n in (1, 2, 3)}
        cfgs[2].append(StepperConfig(scheme=scheme, h=h, t_end=50 * h, record_every=1))

        def bits(array):
            return np.asarray(array).view(np.int64)

        for n in (1, 2, 3):
            for dealias in (None, n):
                p = ModelParams(n=n, dealias=dealias)
                for cfg in cfgs[n]:
                    case = (n, dealias, cfg.t_end / h)
                    traj = integrate(u0, p, cfg)
                    values, reports, rows = self.reference_integrate(u0, p, cfg)
                    assert np.array_equal(traj.final_state.values.view(np.int64),
                                          values.view(np.int64)), case
                    # the ledger's columns are the reference's rows, stacked
                    assert np.array_equal(bits(traj.ledger), bits(reports).T), case
                    assert np.array_equal(bits(traj.coeffs), bits(rows)), case

    @pytest.mark.parametrize("n, dealias", ((1, None), (2, None), (2, 2)))
    @pytest.mark.parametrize("resolution", ((64,), (64, 48), (40, 8, 10)))
    def test_bitwise_equal_where_the_decay_underflows(self, resolution, n, dealias):
        # at h = 1e-3, exp(-hA) is exactly 0 on the top modes of these grids,
        # so ETD1 adds decay * c on a leading box only; the literal reference
        # adds it everywhere, and the int64 views see a flipped sign of zero
        dim = len(resolution)
        g = SpectralGrid(DomainSpec(dim, (PI,) * dim, resolution))
        u0 = random_unit_field(g, np.random.default_rng(18))
        p, cfg = ModelParams(n=n, dealias=dealias), StepperConfig(h=1e-3, t_end=0.02,
                                                                 record_every=4)
        kernel = _Kernel("etd1", g, p, cfg.h)
        inside = np.zeros(g.shape, dtype=bool)
        inside[kernel.box] = True
        assert 0 < inside.sum() < g.num_points
        assert not kernel.decay[~inside].any()
        traj = integrate(u0, p, cfg)
        values, reports, rows = self.reference_integrate(u0, p, cfg)
        assert np.array_equal(traj.final_state.values.view(np.int64), values.view(np.int64))
        assert np.array_equal(np.asarray(traj.ledger).view(np.int64),
                              np.asarray(reports).T.view(np.int64))
        assert np.array_equal(traj.coeffs.view(np.int64), np.asarray(rows).view(np.int64))


class TestWorkspace:
    """A run allocates its grid-sized arrays once: its memory does not grow
    with the step count, and after the first step a step allocates none."""

    @staticmethod
    def traced(u0, p, cfg, monkeypatch):
        """The tracemalloc peak of integrate above the memory traced before
        it, and the largest rise of the peak over the memory traced at the
        second step, read at each later step."""
        integrate(u0, p, cfg)  # the grid's per-mode arrays and the weights, made once
        advance, marks = _Kernel.advance, []

        def marked(self, c, first):
            marks.append(tracemalloc.get_traced_memory())
            if len(marks) == 2:
                tracemalloc.reset_peak()
            return advance(self, c, first)

        monkeypatch.setattr(_Kernel, "advance", marked)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            integrate(u0, p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        steady = max(m[1] for m in marks[2:]) - marks[1][0]
        return peak - before, steady

    @pytest.mark.parametrize("scheme, dealias", (("etd1", None), ("rk4", None), ("etd1", 2)))
    def test_memory_does_not_grow_with_steps(self, monkeypatch, scheme, dealias):
        g = SpectralGrid(DomainSpec(2, (PI, PI), (64, 64)))
        u0 = random_unit_field(g, np.random.default_rng(19))
        p, h = ModelParams(n=2, dealias=dealias), default_step(scheme, g)
        array = 8 * g.num_points
        (peak_20, steady_20), (peak_200, steady_200) = (
            self.traced(u0, p, StepperConfig(scheme=scheme, h=h, t_end=steps * h,
                                             record_every=10**9, keep_snapshots=False),
                        monkeypatch)
            for steps in (20, 200))
        assert abs(peak_200 - peak_20) <= array
        # from the second step on, no step allocates a grid-sized array
        assert max(steady_20, steady_200) < array


class TestOrders:
    def test_etd1_first_order(self):
        g = SpectralGrid(DomainSpec(1, (PI,), (8,)))
        u0 = random_unit_field(g, np.random.default_rng(5))
        est = convergence_order_probe(u0, ModelParams(n=2), "etd1",
                                      [4e-3, 2e-3, 1e-3], t_end=0.2)
        assert est.order == pytest.approx(1.0, abs=0.2)

    def test_projected_euler_first_order(self):
        g = SpectralGrid(DomainSpec(1, (PI,), (8,)))
        u0 = random_unit_field(g, np.random.default_rng(5))
        est = convergence_order_probe(u0, ModelParams(n=2), "projected_euler",
                                      [4e-4, 2e-4, 1e-4], t_end=0.05)
        assert est.order == pytest.approx(1.0, abs=0.2)

    def test_rk4_fourth_order(self):
        g = SpectralGrid(DomainSpec(1, (2 * PI,), (8,)))
        u0 = random_unit_field(g, np.random.default_rng(5), decay=1.5)
        est = convergence_order_probe(u0, ModelParams(n=2), "rk4",
                                      [2e-3, 1e-3, 5e-4], t_end=0.5)
        assert est.order == pytest.approx(4.0, abs=0.4)

    def test_probe_validation(self):
        g = grid_1d()
        u0 = basis_mode(g, 1)
        with pytest.raises(ValueError):
            convergence_order_probe(u0, ModelParams(n=1), "etd1", [1e-3, 5e-4])
        with pytest.raises(ValueError):
            convergence_order_probe(u0, ModelParams(n=1), "etd1",
                                    [3e-3, 1.5e-3, 0.75e-3], t_end=0.1)
        # the RK4 reference at 1e-3 / 16 = 6.25e-5 is above 2 / mu_max = 3.03e-5
        with pytest.raises(ValueError, match="reference step 6.250e-05.*limit 3.028e-05"):
            convergence_order_probe(u0, ModelParams(n=1), "etd1",
                                    [4e-3, 2e-3, 1e-3], t_end=0.02)
        # an explicit step above the limit is refused too, not run unstably
        with pytest.raises(ValueError, match="projected_euler step 1.600e-04.*limit 3.028e-05"):
            convergence_order_probe(u0, ModelParams(n=2), "projected_euler",
                                    [1.6e-4, 8e-5, 4e-5], t_end=0.0016)


class TestGroundStateFlow:
    def test_rayleigh_quotient_converges_to_ground_eigenvalue(self):
        # power-iteration oracle: the projected linear flow converges to the
        # lowest eigenvalue of A, which is 3 on (0, pi)
        from sphereflow import rayleigh_quotient

        g = grid_1d(64)
        u0 = random_unit_field(g, np.random.default_rng(8))
        traj = integrate(
            u0, ModelParams(n=1),
            StepperConfig(scheme="etd1", h=1e-3, t_end=10.0, record_every=1000,
                          keep_snapshots=False),
        )
        assert abs(rayleigh_quotient(traj.final_state) - 3.0) <= 1e-6
        assert abs(traj.ledger.Y[-1] - 2.5) <= 1e-6
        assert np.sqrt(traj.ledger.v_norm_sq).max() <= 2 * traj.ledger.Y[0]


class TestAxisSymmetry:
    """The flow commutes with reversing the axis order, together with the
    lengths and resolutions, and with the reflection x_0 -> L_0 - x_0, which
    reverses axis 0 of the collocation grid.  The grids are not square and
    their lengths differ, so a step that mixes two axes breaks a map."""

    GRIDS = {"2d": ((2 * PI, 1.5 * PI), (32, 24)),
             "3d": ((PI, PI, 1.2 * PI), (16, 8, 10))}

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("scheme", ("etd1", "rk4"))
    @pytest.mark.parametrize("n, dealias", ((1, None), (2, None), (3, None), (2, 2)))
    def test_axis_reversal_and_reflection(self, grid, scheme, n, dealias):
        lengths, resolution = self.GRIDS[grid]
        g = SpectralGrid(DomainSpec(len(lengths), lengths, resolution))
        reversed_g = SpectralGrid(DomainSpec(len(lengths), lengths[::-1], resolution[::-1]))
        u0 = random_unit_field(g, np.random.default_rng(3))
        p = ModelParams(n=n, dealias=dealias)
        h = 1e-3 if scheme == "etd1" else 0.2 * stability_limit(g)
        cfg = StepperConfig(scheme, h, 50 * h, record_every=10, keep_snapshots=False)

        def run(grid, values):
            traj = integrate(Field(grid, values), p, cfg)
            return traj.final_state.values, traj.ledger.Y

        u, Y = run(g, u0.values)
        # (run, map of its final state back to g's axes) per symmetry
        for (v, Y_map), back in ((run(reversed_g, u0.values.T), np.transpose),
                                 (run(g, u0.values[::-1]), lambda x: x[::-1])):
            assert np.abs(back(v) - u).max() <= 1e-14
            assert np.abs(Y_map - Y).max() <= 1e-14 * np.abs(Y).max()
