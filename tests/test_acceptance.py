"""Acceptance criteria for the constrained-flow solver.

``sphereflow.checks`` is the one definition of every criterion: its preset,
measured value and bound are a row of the verification suite.  The suite
runs once for this module; each test names the rows that carry its
criterion, asserts that they pass, and bounds the wall time of the check
functions that compute them.
"""

import pytest

from sphereflow.checks import run_all

# criterion: (row names, check functions that compute them, their time bound in s)
CRITERIA = {
    1: (("projection tangency (128,)", "projection idempotence (128,)",
         "projection tangency (64, 64)", "projection idempotence (64, 64)"),
        ("check_projection",), 1.0),
    2: (("expanded = literal projected field (50 states, 4 a-values)",
         "a-independence on the sphere"),
        ("check_formula_equivalence",), 5.0),
    3: (("retraction drift | |u|^2 - 1 | every step",
         "free drift ratio under h -> h/2"),
        ("check_manifold_invariance",), 30.0),
    4: (("energy monotone per step (RK4 run)",
         "energy identity residual ratio under h -> h/2"),
        ("check_energy",), 60.0),
    5: (("global bound sup ||u||_V <= 2 Y(u0) (RK4 run)",
         "global bound on the retraction run",
         "global bound on the equilibrium run",
         "global bound on the ground-state run",
         "global bound on the fractional-power orbit run"),
        (), None),
    6: (("equilibrium preserved by one step of each scheme",
         "equilibrium stationary over T=1 (ETD1)",
         "Rayleigh quotient -> 3 by T=10 (n=1)", "final energy -> 2.5 (n=1)"),
        ("check_equilibrium", "check_ground_state"), 60.0),
    7: (("picard at the equilibrium converges",
         "picard factors all < 1 (geometric convergence)",
         "truncation inactivity (m vs 10m)",
         "picard limit matches RK4 reference (sup-L2)",
         "contraction factor sqrt(T) scaling"),
        ("check_picard",), 60.0),
    8: (("theta bounds hold on 1e4 samples",
         "theta Lipschitz bound |dtheta| <= |dx|/m",
         "theta Lipschitz equality on [m, 2m]"),
        ("check_theta",), 1.0),
    9: (("self-adjointness <Au,v> = <u,Av> (scaled)",
         "dense A matrix symmetry at N=16"),
        ("check_self_adjoint",), 1.0),
    10: (tuple(f"lipschitz envelope constant finite and stable (n={n})"
               for n in (1, 2, 3)) + ("scalar power-gap constants finite",),
         ("check_lipschitz",), 60.0),
    11: (("off-manifold growth rate matches prediction",
          "off-manifold growth rate n=2 with psi of both signs (N=8)"),
         ("check_psi_rate",), 30.0),
    12: (("stationary |A^0.75 u*| = 3^0.75",
          "stationary |A^mu u*| = 3^mu at mu = 0.55 and 0.9",
          "fractional-power orbit sups finite",
          "fractional-power tail non-increasing"),
         ("check_amu",), 60.0),
    13: (("omega-limit tail Cauchy in V", "energy stall implies fixed point",
          "limit candidate Rayleigh quotient -> 3"),
         ("check_gradient_system",), 60.0),
    14: (("ETD1 order", "projected Euler order", "RK4 order"),
         ("check_orders",), 120.0),
    15: (("3D ground state: Y -> 8.5 and Rayleigh quotient -> 15 (n=1; 8^3)",
          "3D grid convergence: stationary Y on 8^3 vs 12^3 (n=2)",
          "3D retraction drift | |u|^2 - 1 | every step (n=2; 12^3)",
          "global bound on the 3D 12^3 run"),
         ("check_3d",), 1.0),
}


@pytest.fixture(scope="module")
def suite():
    return run_all(seed=0)


def _assert_criterion(suite, criterion):
    names, functions, limit = CRITERIA[criterion]
    rows = {r["name"]: r for r in suite.rows}
    missing = [name for name in names if name not in rows]
    assert not missing, f"criterion {criterion}: no rows named {missing}"
    failed = [name for name in names if not rows[name]["passed"]]
    seconds = sum(suite.seconds[fn] for fn in functions)
    timing = f", {seconds:.2f}s" if functions else ""
    print(f"[acceptance] criterion {criterion:02d}: "
          f"{'FAIL' if failed else 'PASS'} - {len(names) - len(failed)}/"
          f"{len(names)} rows{timing}")
    assert not failed, f"criterion {criterion}: failed rows {failed}"
    if limit is not None:
        assert seconds < limit, (
            f"criterion {criterion}: {functions} took {seconds:.2f}s (< {limit}s)")


def test_criterion_01_projection_correctness(suite):
    _assert_criterion(suite, 1)


def test_criterion_02_formula_equivalence(suite):
    _assert_criterion(suite, 2)


def test_criterion_03_manifold_invariance(suite):
    _assert_criterion(suite, 3)


def test_criterion_04_energy_dissipation(suite):
    _assert_criterion(suite, 4)


def test_criterion_05_global_bound(suite):
    _assert_criterion(suite, 5)


def test_criterion_06_equilibrium_and_ground_state(suite):
    _assert_criterion(suite, 6)


def test_criterion_07_picard_realization(suite):
    _assert_criterion(suite, 7)


def test_criterion_08_theta_contract(suite):
    _assert_criterion(suite, 8)


def test_criterion_09_self_adjointness(suite):
    _assert_criterion(suite, 9)


def test_criterion_10_lipschitz_envelope(suite):
    _assert_criterion(suite, 10)


def test_criterion_11_psi_ode_rate(suite):
    _assert_criterion(suite, 11)


def test_criterion_12_fractional_power_bounds(suite):
    _assert_criterion(suite, 12)


def test_criterion_13_gradient_system(suite):
    _assert_criterion(suite, 13)


def test_criterion_14_scheme_orders(suite):
    _assert_criterion(suite, 14)


def test_criterion_15_3d_and_grid_convergence(suite):
    _assert_criterion(suite, 15)


def test_full_check_suite_under_ten_minutes(suite):
    failed = [r["name"] for r in suite.rows if not r["passed"]]
    seconds = sum(suite.seconds.values())
    print(f"[acceptance] check suite: {len(suite.rows) - len(failed)}/"
          f"{len(suite.rows)} rows pass in {seconds:.1f}s (< 600s)")
    assert not failed, f"failed rows: {failed}"
    assert seconds < 600.0
