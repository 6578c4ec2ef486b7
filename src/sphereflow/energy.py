"""Lyapunov energy of the constrained flow and its dissipation ledger.

The energy

    Y(u) = (1/2) ||u||_V^2 + (1/2n) |u|_{L2n}^{2n},
    ||u||_V^2 = |u|_{L2}^2 + 2 |grad u|_{L2}^2 + |lap u|_{L2}^2,

decreases along solutions at the exact rate |du/dt|_{L2}^2, so

    Y(u(t)) - Y(u(0)) = - integral_0^t |u_p|_{L2}^2 dp

holds up to time-quadrature error.  ``u_t`` entering the ledger is the
analytic vector field, not a finite difference, so the identity residual
measures quadrature error rather than scheme error.

The bound sup_t ||u||_V <= 2 Y(u0) is checked on the norm exactly as
stated; the squared version also holds whenever Y(u0) >= 1/2, which is
automatic on the unit sphere since |u| = 1 contributes 1 to ||u||_V^2.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .model import ModelParams, l2n_power
from .spectral import Field, sobolev_norms_sq


def v_norm_sq(u: Field) -> float:
    """|u|_{L2}^2 + 2 |grad u|_{L2}^2 + |lap u|_{L2}^2."""
    l2sq, h1sq, h2sq = sobolev_norms_sq(u)
    return l2sq + 2.0 * h1sq + h2sq


def v_norm(u: Field) -> float:
    return float(np.sqrt(v_norm_sq(u)))


EnergyReport = namedtuple("EnergyReport", (
    "t", "l2_norm", "h1_seminorm_sq", "h2_seminorm_sq", "v_norm_sq", "l2n_pow",
    "Y", "ut_l2_sq", "dissipation_integral", "norm_drift",
))
EnergyReport.__doc__ = """Energy ledger: one record's values, or a whole run's with one numpy
column per field.  ``norm_drift`` is | |u|_L2^2 - 1 |."""


def make_report(u: Field, p: ModelParams, t: float, ut_l2_sq: float,
                dissipation_integral: float, norms_sq=None,
                l2n: float | None = None) -> EnergyReport:
    """Energy ledger entry at state u.

    A caller that already holds u's Parseval sums ``norms_sq`` (as
    ``coeff_norms_sq`` returns them) and the integral ``l2n`` of u^(2n) (as
    F(u) took it) passes them, and the record then costs no transform and
    no second power; otherwise both are computed from u.
    """
    l2sq, h1sq, h2sq = sobolev_norms_sq(u) if norms_sq is None else norms_sq
    vsq = l2sq + 2.0 * h1sq + h2sq
    if l2n is None:
        l2n = l2n_power(u, p.n, p.dealias)
    return EnergyReport(
        t=float(t),
        l2_norm=float(np.sqrt(l2sq)),
        h1_seminorm_sq=h1sq,
        h2_seminorm_sq=h2sq,
        v_norm_sq=vsq,
        l2n_pow=l2n,
        Y=0.5 * vsq + l2n / (2.0 * p.n),
        ut_l2_sq=float(ut_l2_sq),
        dissipation_integral=float(dissipation_integral),
        norm_drift=abs(l2sq - 1.0),
    )


def energy_residual(ledger) -> np.ndarray:
    """|Y(u(t)) - Y(u_0) + integral_0^t |u_p|_L2^2 dp| at each record; the
    integral is the ledger's dissipation integral, the trapezoid over every
    step of the run."""
    return np.abs(ledger.Y - ledger.Y[0] + ledger.dissipation_integral)


def energy_identity_residual(traj) -> float:
    """|Y(u(T)) - Y(u_0) + integral_0^T |u_p|_L2^2 dp|: the last entry of the
    trajectory's energy_residual column."""
    led = traj.ledger
    if led.t.size < 2:
        raise ValueError("need at least two records to evaluate the identity")
    return float(energy_residual(led)[-1])


def write_csv(path, columns, rows) -> None:
    """Write a header and numeric rows with every cell formatted "%.17g":
    floats round-trip exactly, ints of up to 17 digits print exactly and NaN
    prints as nan."""
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        # "%.17g" % x formats as f"{x:.17g}" does, in one call per row
        fh.writelines(row_format % tuple(row) for row in rows)


TIMESERIES_COLUMNS = ("t", "l2_norm", "h1_seminorm_sq", "h2_seminorm_sq", "l2n_pow", "Y",
                      "ut_l2_sq", "dissipation_integral", "energy_residual")


def write_timeseries_csv(traj, path) -> None:
    """Write the trajectory ledger, one record per row, with write_csv."""
    led = traj.ledger
    table = np.column_stack([getattr(led, name) for name in TIMESERIES_COLUMNS[:-1]]
                            + [energy_residual(led)])
    write_csv(path, TIMESERIES_COLUMNS, table.tolist())
