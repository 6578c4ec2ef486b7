"""The bundled verification suite behind ``sphereflow check``.

Every numerically checkable structure of the constrained flow is exercised
on pinned desk-scale presets: transform and operator identities, the
tangent projection, the equivalence of the literal and expanded vector
fields, manifold invariance under retraction, the energy dissipation
identity, the global V-bound, ground-state convergence, the truncated
fixed-point construction, the Lipschitz envelope, the off-manifold growth
rate, fractional-power orbit bounds, the Lyapunov-stall criterion and the
convergence orders of the steppers.  Each check prints one line and the
whole table lands in check_report.csv; the exit code is 0 iff every row
passes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis, mild
from .energy import energy_identity_residual
from .integrators import (SCHEMES, StepperConfig, convergence_order_probe, default_step,
                          integrate)
from .model import (
    ModelParams,
    project_tangent,
    projected_rhs,
    projected_rhs_direct,
    random_unit_field,
    rayleigh_quotient,
)
from .spectral import (
    DomainSpec,
    Field,
    SpectralGrid,
    apply_A,
    apply_A_power,
    apply_bilaplacian,
    apply_laplacian,
    apply_semigroup,
    basis_mode,
    inner_l2,
    norm_l2,
    phi1,
    random_coeff_field,
    transform_forward,
    transform_inverse,
)

PI = np.pi


def _grid(n, L=PI, dim=1):
    return SpectralGrid(DomainSpec(dim, (L,) * dim, (n,) * dim))


class Table:
    """The suite's rows, and the seconds each check function took by name."""

    def __init__(self):
        self.rows = []
        self.seconds = {}

    def add(self, name, measured, threshold, passed):
        self.rows.append(
            {"name": name, "measured": float(measured),
             "threshold": threshold, "passed": bool(passed)}
        )

    def add_le(self, name, measured, bound):
        self.add(name, measured, f"<= {bound:g}", measured <= bound)

    def add_range(self, name, measured, lo, hi):
        self.add(name, measured, f"in [{lo:g}, {hi:g}]", lo <= measured <= hi)

    def add_global_bound(self, run, traj):
        """Row for sup_t ||u||_V <= 2 Y(u0) along a recorded run."""
        vmax = np.sqrt(traj.ledger.v_norm_sq).max()
        bound = 2 * traj.ledger.Y[0]
        self.add(f"global bound on the {run} run", vmax, f"<= {bound:.3f}",
                 vmax <= bound)


def check_spectral_core(tab: Table, seed: int):
    rng = np.random.default_rng(seed)
    for g in (_grid(128), _grid(32, dim=2)):
        u = Field(g, rng.standard_normal(g.shape))
        back = transform_inverse(transform_forward(u))
        tab.add_le(f"transform round trip {g.spec.resolution}",
                   np.max(np.abs(back.values - u.values)), 1e-12)
        c = transform_forward(u)
        quad = norm_l2(u) ** 2
        tab.add_le(f"Parseval {g.spec.resolution}",
                   abs(np.sum(c.coeffs**2) - quad) / quad, 1e-10)
    g = _grid(64)
    u = random_coeff_field(g, rng)
    ss = apply_semigroup(apply_semigroup(u, 0.07), 0.03)
    s1 = apply_semigroup(u, 0.1)
    tab.add_le("semigroup law S(t)S(s) = S(t+s)",
               norm_l2(ss - s1) / norm_l2(u), 1e-12)
    ok = True
    worst = 0.0
    for t in (0.01, 0.1, 1.0):
        lhs = norm_l2(apply_semigroup(u, t))
        rhs = np.exp(-g.mu_min * t) * norm_l2(u)
        worst = max(worst, lhs - rhs)
        ok = ok and lhs <= rhs * (1 + 1e-12)
    tab.add("semigroup contraction |S(t)u| <= e^(-mu_min t)|u|",
            worst, "<= 0", ok)
    au = apply_A(u)
    combo = apply_bilaplacian(u) - 2.0 * apply_laplacian(u)
    tab.add_le("A = bilaplacian - 2 laplacian",
               norm_l2(au - combo) / norm_l2(au), 1e-12)
    half = apply_A_power(apply_A_power(u, 0.5), 0.5)
    tab.add_le("A^1/2 twice = A", norm_l2(half - au) / norm_l2(au), 1e-10)
    tab.add("mu_min = 3 on (0, pi)", _grid(16).mu_min, "== 3", _grid(16).mu_min == 3.0)
    vals = (abs(phi1(0.0) - 1.0), abs(phi1(1.0) - (1 - np.exp(-1))),
            abs(phi1(1e-9) - (1 - 0.5e-9)))
    tab.add_le("phi1 reference values", max(vals), 1e-15)


def check_self_adjoint(tab: Table, seed: int):
    rng = np.random.default_rng(seed + 1)
    g = _grid(64)
    worst = 0.0
    for _ in range(100):
        u = random_coeff_field(g, rng)
        v = random_coeff_field(g, rng)
        au, av = apply_A(u), apply_A(v)
        gap = abs(inner_l2(au, v) - inner_l2(u, av))
        scale = norm_l2(au) * norm_l2(v) + norm_l2(u) * norm_l2(av)
        worst = max(worst, gap / scale)
    tab.add_le("self-adjointness <Au,v> = <u,Av> (scaled)", worst, 1e-12)
    g16 = _grid(16)
    dense = np.empty((16, 16))
    for j in range(16):
        e = np.zeros(16)
        e[j] = 1.0
        dense[:, j] = apply_A(Field(g16, e)).values
    tab.add_le("dense A matrix symmetry at N=16",
               np.max(np.abs(dense - dense.T)) / np.max(np.abs(dense)), 1e-12)


def check_projection(tab: Table, seed: int):
    rng = np.random.default_rng(seed + 2)
    for g in (_grid(128), _grid(64, dim=2)):
        worst_t, worst_i = 0.0, 0.0
        for _ in range(100):
            u = random_unit_field(g, rng)
            h = random_coeff_field(g, rng)
            ph = project_tangent(u, h)
            worst_t = max(worst_t, abs(inner_l2(ph, u)) / max(norm_l2(h), 1e-300))
            pph = project_tangent(u, ph)
            worst_i = max(worst_i, norm_l2(pph - ph) / max(norm_l2(h), 1e-300))
        tab.add_le(f"projection tangency {g.spec.resolution}", worst_t, 1e-12)
        tab.add_le(f"projection idempotence {g.spec.resolution}", worst_i, 1e-12)


def check_formula_equivalence(tab: Table, seed: int):
    rng = np.random.default_rng(seed + 3)
    g = _grid(128)
    p0 = ModelParams(n=2)
    worst = 0.0
    worst_a = 0.0
    for _ in range(50):
        u = random_unit_field(g, rng)
        r_exp = projected_rhs(u, p0)
        scale = norm_l2(r_exp)
        outs = []
        for a in (-1.0, 0.0, 1.0, 10.0):
            r_dir = projected_rhs_direct(u, p0, a)
            outs.append(r_dir)
            worst = max(worst, norm_l2(r_exp - r_dir) / scale)
        for other in outs[1:]:
            worst_a = max(worst_a, norm_l2(outs[0] - other) / scale)
    tab.add_le("expanded = literal projected field (50 states, 4 a-values)",
               worst, 1e-10)
    tab.add_le("a-independence on the sphere", worst_a, 1e-10)


def check_equilibrium(tab: Table, seed: int):
    g = _grid(16)
    ustar = basis_mode(g, 1)
    p = ModelParams(n=1)
    drift = 0.0
    for scheme in SCHEMES:
        h = default_step(scheme, g)
        cfg = StepperConfig(scheme, h, h, renormalize=False, keep_snapshots=False)
        drift = max(drift, norm_l2(integrate(ustar, p, cfg).final_state - ustar))
    tab.add_le("equilibrium preserved by one step of each scheme", drift, 1e-12)
    g64 = _grid(64)
    traj = integrate(basis_mode(g64, 1), p,
                     StepperConfig(scheme="etd1", h=1e-3, t_end=1.0,
                                   record_every=100, keep_snapshots=False))
    tab.add_le("equilibrium stationary over T=1 (ETD1)",
               norm_l2(traj.final_state - basis_mode(g64, 1)), 1e-10)
    tab.add_global_bound("equilibrium", traj)


def check_manifold_invariance(tab: Table, seed: int):
    g = _grid(128)
    p = ModelParams(n=2)
    u0 = random_unit_field(g, np.random.default_rng(seed + 4), decay=5.0)
    retracted = integrate(u0, p, StepperConfig(scheme="etd1", h=1e-3, t_end=1.0,
                                               renormalize=True, record_every=1,
                                               keep_snapshots=False))
    tab.add_le("retraction drift | |u|^2 - 1 | every step",
               retracted.ledger.norm_drift.max(), 1e-14)
    drifts = {}
    for h in (1e-3, 5e-4):
        traj = integrate(u0, p, StepperConfig(scheme="etd1", h=h, t_end=1.0,
                                              renormalize=False, record_every=1,
                                              keep_snapshots=False))
        drifts[h] = traj.ledger.norm_drift.max()
    tab.add_range("free drift ratio under h -> h/2",
                  drifts[1e-3] / drifts[5e-4], 1.4, 2.6)
    tab.add_global_bound("retraction", retracted)


def check_energy(tab: Table, seed: int):
    g = _grid(12)
    p = ModelParams(n=2)
    u0 = random_unit_field(g, np.random.default_rng(seed + 5))
    residuals = {}
    mono_ok = True
    bound_ok = True
    for h in (1e-5, 5e-6):
        traj = integrate(u0, p, StepperConfig(scheme="rk4", h=h, t_end=0.1,
                                              record_every=1, keep_snapshots=False))
        residuals[h] = energy_identity_residual(traj)
        y = traj.ledger.Y
        mono_ok = mono_ok and np.all(np.diff(y) <= 1e-10 * max(1.0, y[0]))
        bound_ok = bound_ok and np.sqrt(traj.ledger.v_norm_sq).max() <= 2 * y[0]
    tab.add("energy monotone per step (RK4 run)", 0.0, "monotone", mono_ok)
    tab.add_range("energy identity residual ratio under h -> h/2",
                  residuals[1e-5] / residuals[5e-6], 3.2, 4.8)
    tab.add("global bound sup ||u||_V <= 2 Y(u0) (RK4 run)",
            0.0, "bounded", bound_ok)


def check_ground_state(tab: Table, seed: int):
    g = _grid(64)
    p = ModelParams(n=1)
    u0 = random_unit_field(g, np.random.default_rng(seed + 6))
    traj = integrate(u0, p, StepperConfig(scheme="etd1", h=1e-3, t_end=10.0,
                                          record_every=100, keep_snapshots=False))
    tab.add_le("Rayleigh quotient -> 3 by T=10 (n=1)",
               abs(rayleigh_quotient(traj.final_state) - 3.0), 1e-6)
    tab.add_le("final energy -> 2.5 (n=1)",
               abs(traj.ledger.Y[-1] - 2.5), 1e-6)
    tab.add_global_bound("ground-state", traj)


def check_theta(tab: Table, seed: int):
    rng = np.random.default_rng(seed + 7)
    worst_lip, worst_eq = 0.0, 0.0
    bounds_ok = True
    for _ in range(10_000):
        m = rng.uniform(0.1, 10.0)
        x, y = rng.uniform(0.0, 3.0 * m, size=2)
        th = mild.TruncationTheta(m)
        tx, ty = mild.theta_eval(th, x), mild.theta_eval(th, y)
        bounds_ok = bounds_ok and 0.0 <= tx <= 1.0
        bounds_ok = bounds_ok and (x > m or tx == 1.0) and (x < 2 * m or tx == 0.0)
        worst_lip = max(worst_lip, abs(tx - ty) - abs(x - y) / m)
        # equality attained when both arguments lie in the linear band
        xb, yb = m + (x % m), m + (y % m)
        txb, tyb = mild.theta_eval(th, xb), mild.theta_eval(th, yb)
        worst_eq = max(worst_eq, abs(abs(txb - tyb) - abs(xb - yb) / m))
    tab.add("theta bounds hold on 1e4 samples", 0.0, "exact", bounds_ok)
    tab.add_le("theta Lipschitz bound |dtheta| <= |dx|/m", worst_lip, 1e-12)
    tab.add_le("theta Lipschitz equality on [m, 2m]", worst_eq, 1e-12)


def _sup_l2(diff):
    """The largest L2 norm over the rows of a (times,) + grid.shape array of
    coefficients, by Parseval."""
    return float(np.sqrt((diff * diff).reshape(len(diff), -1).sum(axis=1).max()))


def check_picard(tab: Table, seed: int):
    g = _grid(32)
    ustar = basis_mode(g, 1)
    th = mild.TruncationTheta(100.0)
    res = mild.picard_solve(ustar, th, ModelParams(n=1), T=0.05)
    err = _sup_l2(res.solution.coeffs - g.to_coeffs(ustar.values))
    tab.add("picard at the equilibrium converges", err,
            "<= 1e-10", res.converged and err <= 1e-10)

    g14 = _grid(14)
    u0 = random_unit_field(g14, np.random.default_rng(seed + 8))
    p = ModelParams(n=2)
    T = 0.02
    res = mild.picard_solve(u0, mild.TruncationTheta(1e6), p, T=T, num_points=41)
    geometric = res.converged and np.all(res.factors < 1.0)
    tab.add("picard factors all < 1 (geometric convergence)",
            float(res.factors.max()), "< 1", bool(geometric))
    res_m = mild.picard_solve(u0, mild.TruncationTheta(1e5), p, T=T, num_points=41)
    tab.add_le("truncation inactivity (m vs 10m)",
               np.max(np.abs(res.solution.coeffs - res_m.solution.coeffs)), 1e-12)
    traj = integrate(u0, p, StepperConfig(scheme="rk4", h=T / 400, t_end=T,
                                          renormalize=False, record_every=10))
    sup = _sup_l2(res.solution.coeffs - traj.coeffs)
    tab.add_le("picard limit matches RK4 reference (sup-L2)", sup, 1e-4)
    L1 = mild.contraction_factor_probe(u0, mild.TruncationTheta(1e6), p, T,
                                       samples=8, seed=seed)
    L4 = mild.contraction_factor_probe(u0, mild.TruncationTheta(1e6), p, T / 4,
                                       samples=8, seed=seed)
    tab.add_range("contraction factor sqrt(T) scaling", L4 / L1, 0.35, 0.65)


def check_lipschitz(tab: Table, seed: int):
    for n in (1, 2, 3):
        p = ModelParams(n=n)
        r32 = analysis.lipschitz_probe(_grid(32), p, samples=500, seed=seed)
        r64 = analysis.lipschitz_probe(_grid(64), p, samples=500, seed=seed)
        stable = max(r32.max_ratio, r64.max_ratio) / min(r32.max_ratio, r64.max_ratio)
        finite = np.isfinite(r32.max_ratio) and np.isfinite(r64.max_ratio)
        tab.add(f"lipschitz envelope constant finite and stable (n={n})",
                stable, "<= 2", finite and stable <= 2.0)
    c0 = [analysis.scalar_power_gap_constant(n) for n in (1, 2, 3)]
    tab.add("scalar power-gap constants finite", max(c0), "finite",
            all(np.isfinite(c0)))


def check_psi_rate(tab: Table, seed: int):
    def errors(u, n):
        """Relative rate errors from sqrt(1 + eps) u, eps in INVARIANCE_EPS."""
        return [analysis.invariance_growth_test(u, ModelParams(n=n), eps).relative_error
                for eps in analysis.INVARIANCE_EPS]

    g = _grid(16)
    u_rand = random_unit_field(g, np.random.default_rng(seed + 9))
    rep = analysis.invariance_growth_test(u_rand, ModelParams(n=2), 1e-2)
    tab.add_le("off-manifold growth rate matches prediction",
               max(*errors(basis_mode(g, 1), 1), rep.relative_error), 0.01)
    # n = 2 on both sides of the sphere, on the N = 8 grid of the original preset
    u8 = random_unit_field(_grid(8), np.random.default_rng(seed + 9))
    tab.add_le("off-manifold growth rate n=2 with psi of both signs (N=8)",
               max(errors(u8, 2)), 0.01)


def check_amu(tab: Table, seed: int):
    g = _grid(16)
    p1 = ModelParams(n=1)
    traj = integrate(basis_mode(g, 1), p1,
                     StepperConfig(scheme="etd1", h=1e-3, t_end=0.5, record_every=50))
    stat = analysis.a_mu_boundedness(traj, [0.55, 0.75, 0.9], t_min=0.1)
    tab.add_le("stationary |A^0.75 u*| = 3^0.75",
               abs(stat.sups[0.75] - 3**0.75), 1e-10)
    g64 = _grid(64)
    u0 = random_unit_field(g64, np.random.default_rng(seed + 10))
    traj = integrate(u0, ModelParams(n=2),
                     StepperConfig(scheme="etd1", h=1e-3, t_end=5.0, record_every=50))
    rep = analysis.a_mu_boundedness(traj, [0.55, 0.75, 0.9], t_min=0.1)
    ok = all(np.isfinite(s) for s in rep.sups.values())
    trend = True
    for series in rep.norms.values():
        q = len(series) // 4
        trend = trend and series[-q:].max() <= series[:q].max() * (1 + 1e-12)
    tab.add("fractional-power orbit sups finite", max(rep.sups.values()),
            "finite", ok)
    tab.add("fractional-power tail non-increasing", 0.0, "trend", trend)
    tab.add_le("stationary |A^mu u*| = 3^mu at mu = 0.55 and 0.9",
               max(abs(stat.sups[mu] - 3**mu) for mu in (0.55, 0.9)), 1e-10)
    tab.add_global_bound("fractional-power orbit", traj)


def check_gradient_system(tab: Table, seed: int):
    g = _grid(32)
    u0 = random_unit_field(g, np.random.default_rng(seed + 11))
    cfg = StepperConfig(scheme="etd1", h=1e-3, t_end=20.0, record_every=100)
    rep = analysis.omega_limit_probe(u0, ModelParams(n=1), cfg, (5.0, 10.0, 15.0))
    tab.add("omega-limit tail Cauchy in V",
            rep.per_q_max_distance[rep.tail_start], "< 1e-6", rep.converged)
    # all() of no events is True: the criterion needs at least one stall
    tab.add("energy stall implies fixed point", float(len(rep.stall_events)),
            "all stalls pass", rep.stall_ok and len(rep.stall_events) > 0)
    tab.add_le("limit candidate Rayleigh quotient -> 3",
               abs(rayleigh_quotient(rep.limit_candidate) - 3.0), 1e-6)


def check_orders(tab: Table, seed: int):
    rng = np.random.default_rng(seed + 12)
    g = _grid(8)
    p = ModelParams(n=2)
    u0 = random_unit_field(g, rng)
    est = convergence_order_probe(u0, p, "etd1", [4e-3, 2e-3, 1e-3], t_end=0.2)
    tab.add_range("ETD1 order", est.order, 0.8, 1.2)
    est = convergence_order_probe(u0, p, "projected_euler",
                                  [4e-4, 2e-4, 1e-4], t_end=0.05)
    tab.add_range("projected Euler order", est.order, 0.8, 1.2)
    g2 = _grid(8, L=2 * PI)
    u0 = random_unit_field(g2, np.random.default_rng(5), decay=1.5)
    est = convergence_order_probe(u0, p, "rk4", [2e-3, 1e-3, 5e-4], t_end=0.5)
    tab.add_range("RK4 order", est.order, 3.6, 4.4)


ALL_CHECKS = (
    check_spectral_core,
    check_self_adjoint,
    check_projection,
    check_formula_equivalence,
    check_equilibrium,
    check_manifold_invariance,
    check_energy,
    check_ground_state,
    check_theta,
    check_picard,
    check_lipschitz,
    check_psi_rate,
    check_amu,
    check_gradient_system,
    check_orders,
)


# the longest check functions, handed to the worker pool first
_LONGEST_FIRST = ("check_energy", "check_orders")


def _run_check(fn, seed: int):
    """The rows of check function fn on a fresh Table, and its seconds."""
    tab = Table()
    t0 = time.perf_counter()
    fn(tab, seed)
    return tab.rows, time.perf_counter() - t0


def run_all(seed: int = 0, workers: int = 1) -> Table:
    """Run every function of ALL_CHECKS, in this process or, for workers
    >= 2, in that many spawned processes that take the _LONGEST_FIRST ones
    first.  Either way the rows and ``Table.seconds`` come in ALL_CHECKS
    order, and each check builds its inputs from the seed alone, so the
    rows are the same.  Serial is the default: a spawned worker inherits
    the interpreter's -W options but not filters set at run time, such as
    a test runner's warnings-as-errors."""
    if workers > 1:
        order = sorted(ALL_CHECKS, key=lambda fn: fn.__name__ not in _LONGEST_FIRST)
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            futures = {fn: pool.submit(_run_check, fn, seed) for fn in order}
        results = [futures[fn].result() for fn in ALL_CHECKS]
    else:
        results = [_run_check(fn, seed) for fn in ALL_CHECKS]
    tab = Table()
    for fn, (rows, seconds) in zip(ALL_CHECKS, results):
        tab.rows += rows
        tab.seconds[fn.__name__] = seconds
    return tab


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def cmd_check(cfg) -> int:
    t0 = time.perf_counter()
    # two workers: the two longest checks take about half the suite's time
    tab = run_all(cfg.seed, workers=min(2, _cpus()))
    width = max(len(r["name"]) for r in tab.rows)
    n_pass = 0
    for r in tab.rows:
        status = "PASS" if r["passed"] else "FAIL"
        n_pass += r["passed"]
        print(f"{status}  {r['name']:<{width}}  measured {r['measured']:.6g}  "
              f"({r['threshold']})")
    print(f"{n_pass}/{len(tab.rows)} checks passed in {time.perf_counter() - t0:.1f}s")
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "check_report.csv")
    with open(path, "w", newline="") as fh:
        fh.write("name,passed,measured,threshold\n")
        for r in tab.rows:
            name = r["name"].replace(",", ";")
            fh.write(f"{name},{int(r['passed'])},{r['measured']:.17g},"
                     f"\"{r['threshold']}\"\n")
    # the wall seconds of each check function, in a file of their own so
    # that check_report.csv keeps the same bytes from run to run
    with open(os.path.join(cfg.out_dir, "check_seconds.csv"), "w", newline="") as fh:
        fh.write("check,seconds\n")
        fh.writelines(f"{name},{seconds:.6f}\n" for name, seconds in tab.seconds.items())
    return 0 if n_pass == len(tab.rows) else 1
