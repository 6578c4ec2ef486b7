"""The float64 solver scored against the long-double oracle (``oracle.py``).

Every score is ``oracle.relative_error``: the largest |float64 - oracle|
relative to the largest |oracle| of the quantity, from the same float64
input.  ``score_*`` measure; the budgets bound.  A transform, F, one step
of each scheme, the retraction and the Parseval sums have budgets stated
in multiples of eps.  Each ``timeseries.csv`` column of a run, taken as
its largest error over several seeds, may be up to twice the error the
tree before the fused stage made there, or eps where that is larger.
"""

import numpy as np
import pytest

import oracle
from sphereflow import (DomainSpec, Field, ModelParams, SpectralGrid, StepperConfig, default_step,
                        integrate, random_unit_field, renormalize)
from sphereflow.energy import TIMESERIES_COLUMNS, energy_residual
from sphereflow.integrators import _Kernel
from sphereflow.model import _a_terms, _F_values, _Work
from sphereflow.spectral import coeff_norms_sq

pytestmark = pytest.mark.skipif(not oracle.HAVE_LONG_DOUBLE,
                                reason="long double is double here")

EPS = float(np.finfo(float).eps)
PI = np.pi
GRIDS = {"1d_12": (12,), "1d_64": (64,), "2d_32": (32, 32)}


def _case(name, seed=0):
    shape = GRIDS[name]
    g = SpectralGrid(DomainSpec(len(shape), (PI,) * len(shape), shape))
    return g, oracle.Grid((PI,) * len(shape), shape), random_unit_field(g, np.random.default_rng(seed))


def score_transform(name):
    g, og, u = _case(name)
    c = g.to_coeffs(u.values)
    return {"to_coeffs": oracle.relative_error(c, og.to_coeffs(u.values)),
            "to_values": oracle.relative_error(g.to_values(c), og.to_values(c))}


def score_F(name, n, dealias):
    g, og, u = _case(name)
    c = g.to_coeffs(u.values)
    with np.errstate(over="ignore"):
        N, s = _F_values(_Work(g, ModelParams(n=n, dealias=dealias)), c,
                         _a_terms(g, c)[1])
    N_ref, s_ref = oracle.F(og, c, n, dealias)
    return {"N": oracle.relative_error(N, N_ref), "s": oracle.relative_error(s, s_ref)}


def score_step(name, scheme, n, dealias):
    g, og, u = _case(name)
    h = default_step(scheme, g)
    kernel = _Kernel(scheme, g, ModelParams(n=n, dealias=dealias), h)
    c = g.to_coeffs(u.values, kernel.pair[1])  # the kernel steps only its own state
    with np.errstate(over="ignore"):
        out = kernel.advance(c, kernel.stage(c))
    return {"c": oracle.relative_error(out, oracle.step(og, c, n, dealias, scheme, h))}


def score_retraction_and_norms(name):
    g, og, u = _case(name)
    v = 3.7 * u.values
    exact = np.asarray(v, dtype=oracle.LD)
    exact = exact / np.sqrt(og.weight * np.sum(exact * exact))
    c = g.to_coeffs(u.values)
    got, want = coeff_norms_sq(g, c), oracle.norms_sq(og, c)
    return {"renormalize": oracle.relative_error(renormalize(Field(g, v)).values, exact),
            **{key: oracle.relative_error(x, y)
               for key, x, y in zip(("l2_sq", "h1_sq", "h2_sq"), got, want)}}


# timeseries.csv runs: grid, n, dealias, scheme, h (None for default_step),
# steps and record cadence.  ground_1d and stiff_rk4 are the benchmark
# workloads cut short; each run starts from SEEDS' random unit fields
RUNS = {
    "ground_1d": ("1d_64", 1, None, "etd1", 1e-3, 1000, 50),
    "stiff_rk4": ("1d_12", 2, None, "rk4", 1e-5, 500, 1),
    "euler_1d": ("1d_64", 3, None, "projected_euler", None, 40, 4),
    "etd1_2d_dealiased": ("2d_32", 2, 2, "etd1", 1e-3, 20, 5),
    "rk4_2d": ("2d_32", 2, None, "rk4", None, 10, 2),
}
SEEDS = (1, 2, 3, 4)


def score_run(case, seed):
    name, n, dealias, scheme, h, steps, every = RUNS[case]
    g, og, u = _case(name, seed)
    h = default_step(scheme, g) if h is None else h
    traj = integrate(u, ModelParams(n=n, dealias=dealias), StepperConfig(
        scheme=scheme, h=h, t_end=steps * h, record_every=every, keep_snapshots=False))
    # from integrate's own float64 transform of u0: its rounding, which
    # every version of the step shares, would outweigh theirs
    exact, _ = oracle.integrate(og, g.to_coeffs(u.values), n, dealias, scheme, h, steps, every)
    led = traj.ledger
    got = {name: getattr(led, name) for name in TIMESERIES_COLUMNS[:-1]}
    got["energy_residual"] = energy_residual(led)
    return {col: oracle.relative_error(got[col], exact[col]) for col in TIMESERIES_COLUMNS}


# in multiples of eps: a transform, F's N and s (a sum of up to 4096
# products), one step from the same c, the Parseval sums and renormalize
UNIT_BUDGETS = {"transform": 4, "F.N": 4, "F.s": 16, "step": 2, "norms": 4}

# the largest error over SEEDS of each column of each run, measured on the
# tree before the fused stage; a run passes at up to twice its column's
RUN_BUDGETS = {
    "ground_1d": dict(t=0.0, l2_norm=1.11e-16, h1_seminorm_sq=8.86e-16,
                      h2_seminorm_sq=7.49e-16, l2n_pow=2.22e-16, Y=7.53e-16,
                      ut_l2_sq=3.9e-16, dissipation_integral=2.8e-15,
                      energy_residual=2.82e-15),
    "stiff_rk4": dict(t=0.0, l2_norm=3.33e-16, h1_seminorm_sq=8.91e-16,
                      h2_seminorm_sq=1.7e-15, l2n_pow=1.93e-15, Y=1.01e-15,
                      ut_l2_sq=8.97e-16, dissipation_integral=4.58e-15,
                      energy_residual=7.08e-11),
    "euler_1d": dict(t=0.0, l2_norm=2.22e-16, h1_seminorm_sq=6.12e-16,
                     h2_seminorm_sq=6.37e-16, l2n_pow=1.56e-15, Y=5.86e-16,
                     ut_l2_sq=3.73e-16, dissipation_integral=7.44e-16,
                     energy_residual=4.3e-12),
    "etd1_2d_dealiased": dict(t=0.0, l2_norm=2.22e-16, h1_seminorm_sq=4.48e-16,
                              h2_seminorm_sq=2.24e-16, l2n_pow=8.3e-16, Y=3.27e-16,
                              ut_l2_sq=4.16e-16, dissipation_integral=6.38e-16,
                              energy_residual=6.72e-16),
    "rk4_2d": dict(t=0.0, l2_norm=2.22e-16, h1_seminorm_sq=6.34e-16,
                   h2_seminorm_sq=5.04e-16, l2n_pow=9.19e-16, Y=4.69e-16,
                   ut_l2_sq=5.16e-16, dissipation_integral=4.74e-16,
                   energy_residual=1.43e-12),
}


def _within(scores, budgets):
    over = {q: (x, budgets[q]) for q, x in scores.items() if not x <= budgets[q]}
    assert not over, f"(error, budget) {over}"


@pytest.mark.parametrize("name", GRIDS)
def test_transform(name):
    _within(score_transform(name), dict.fromkeys(("to_coeffs", "to_values"),
                                                 UNIT_BUDGETS["transform"] * EPS))


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("n, dealias", [(1, None), (1, 1), (2, None), (2, 2), (3, None), (3, 3)])
def test_F(name, n, dealias):
    _within(score_F(name, n, dealias), {"N": UNIT_BUDGETS["F.N"] * EPS,
                                        "s": UNIT_BUDGETS["F.s"] * EPS})


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("scheme", ("etd1", "projected_euler", "rk4"))
@pytest.mark.parametrize("n, dealias", [(1, None), (2, None), (2, 2)])
def test_one_step(name, scheme, n, dealias):
    _within(score_step(name, scheme, n, dealias), {"c": UNIT_BUDGETS["step"] * EPS})


@pytest.mark.parametrize("name", GRIDS)
def test_retraction_and_norms(name):
    _within(score_retraction_and_norms(name), dict.fromkeys(
        ("renormalize", "l2_sq", "h1_sq", "h2_sq"), UNIT_BUDGETS["norms"] * EPS))


@pytest.mark.parametrize("case", RUNS)
def test_timeseries_columns(case):
    worst = {}
    for seed in SEEDS:
        for col, x in score_run(case, seed).items():
            worst[col] = max(worst.get(col, 0.0), x)
    _within(worst, {col: max(2 * x, EPS) for col, x in RUN_BUDGETS[case].items()})
