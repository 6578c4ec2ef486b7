from types import SimpleNamespace

import numpy as np
import pytest

from sphereflow import (
    DomainSpec,
    Field,
    ModelParams,
    SpectralGrid,
    StepperConfig,
    basis_mode,
    energy_identity_residual,
    integrate,
    make_report,
    random_unit_field,
    v_norm_sq,
    write_timeseries_csv,
)
from sphereflow.energy import CSV_BLOCK_ROWS, TIMESERIES_COLUMNS, EnergyReport, write_csv

PI = np.pi


def grid_1d(n=32):
    return SpectralGrid(DomainSpec(1, (PI,), (n,)))


class TestVNorm:
    def test_ground_mode_value(self):
        # analytic oracle: 1 + 2*1 + 1 = 4 from the unit Sobolev factors
        u = basis_mode(grid_1d(64), 1)
        assert abs(v_norm_sq(u) - 4.0) < 1e-12

    def test_zero(self):
        g = grid_1d()
        assert v_norm_sq(Field(g, np.zeros(32))) == 0.0

    def test_second_mode_eigenvalue_arithmetic(self):
        # lam_2 = 4: 1 + 2*4 + 16 = 25
        u = basis_mode(grid_1d(64), 2)
        assert abs(v_norm_sq(u) - 25.0) < 1e-11


class TestLyapunov:
    def test_ground_mode_value(self):
        u = basis_mode(grid_1d(64), 1)
        assert abs(make_report(u, ModelParams(n=1), 0.0, 0.0, 0.0).Y - 2.5) < 1e-12

    def test_zero(self):
        g = grid_1d()
        assert make_report(Field(g, np.zeros(32)), ModelParams(n=2), 0.0, 0.0, 0.0).Y == 0.0

    def test_monotone_along_trajectory(self):
        g = grid_1d(64)
        u0 = random_unit_field(g, np.random.default_rng(0))
        traj = integrate(
            u0, ModelParams(n=2),
            StepperConfig(scheme="etd1", h=1e-3, t_end=1.0, record_every=10,
                          keep_snapshots=False),
        )
        y = traj.ledger.Y
        assert np.all(np.diff(y) <= 1e-10 * max(1.0, y[0]))

    def test_strictly_decreasing_while_moving(self):
        g = grid_1d(64)
        u0 = random_unit_field(g, np.random.default_rng(1))
        traj = integrate(
            u0, ModelParams(n=2),
            StepperConfig(scheme="etd1", h=1e-3, t_end=0.1, record_every=10,
                          keep_snapshots=False),
        )
        y, ut = traj.ledger.Y, traj.ledger.ut_l2_sq
        moving = ut[:-1] > 1e-6
        assert np.all(np.diff(y)[moving] < 0.0)


class TestEnergyIdentity:
    def test_stationary_trajectory_residual(self):
        g = grid_1d(16)
        traj = integrate(
            basis_mode(g, 1), ModelParams(n=1),
            StepperConfig(scheme="etd1", h=1e-3, t_end=0.5, record_every=1,
                          keep_snapshots=False),
        )
        assert energy_identity_residual(traj) <= 1e-12

    def test_richardson_ratio_second_order(self):
        g = SpectralGrid(DomainSpec(1, (PI,), (12,)))
        u0 = random_unit_field(g, np.random.default_rng(11))
        p = ModelParams(n=2)
        res = {}
        for h in (2e-5, 1e-5):
            traj = integrate(
                u0, p,
                StepperConfig(scheme="rk4", h=h, t_end=0.05, record_every=1,
                              keep_snapshots=False),
            )
            res[h] = energy_identity_residual(traj)
        ratio = res[2e-5] / res[1e-5]
        assert 3.2 <= ratio <= 4.8

    def test_requires_two_samples(self):
        g = grid_1d(16)
        traj = integrate(
            basis_mode(g, 1), ModelParams(n=1),
            StepperConfig(scheme="etd1", h=1e-3, t_end=0.0),
        )
        with pytest.raises(ValueError):
            energy_identity_residual(traj)


class TestReports:
    def test_report_invariant(self):
        g = grid_1d()
        u = random_unit_field(g, np.random.default_rng(2))
        p = ModelParams(n=3)
        rep = make_report(u, p, t=0.5, ut_l2_sq=0.1, dissipation_integral=0.2)
        assert abs(rep.Y - (rep.v_norm_sq / 2 + rep.l2n_pow / 6)) < 1e-14
        assert rep.v_norm_sq == pytest.approx(
            rep.l2_norm**2 + 2 * rep.h1_seminorm_sq + rep.h2_seminorm_sq
        )

    def test_columns_give_each_scalar_reports_bits(self):
        # make_report on a run's columns gives, field by field, the bits of
        # one scalar call per record
        rng = np.random.default_rng(25)
        m = 300
        l2sq = 1.0 + rng.uniform(-0.5, 0.5, m) * 10.0 ** rng.integers(-17, 1, m)
        l2sq[:3] = 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        h1, h2, l2n = (rng.uniform(0, 10.0**k, m) for k in (2, 4, 1))
        t, ut, d = rng.uniform(0, 1, m), rng.uniform(0, 1e3, m), rng.uniform(0, 10, m)
        for n in (1, 2, 3):
            p = ModelParams(n=n)
            cols = make_report(None, p, t, ut, d, np.array([l2sq, h1, h2]), l2n)
            assert all(isinstance(col, np.ndarray) and col.shape == (m,) for col in cols)
            for i in range(m):
                ref = make_report(None, p, t[i].item(), ut[i].item(), d[i].item(),
                                  (l2sq[i].item(), h1[i].item(), h2[i].item()), l2n[i].item())
                got = [col[i] for col in cols]
                assert np.array_equal(np.array(got).view(np.int64),
                                      np.array(ref, dtype=float).view(np.int64)), (n, i)

    def test_dissipation_integral_nondecreasing(self):
        g = grid_1d(64)
        traj = integrate(
            random_unit_field(g, np.random.default_rng(3)), ModelParams(n=2),
            StepperConfig(scheme="etd1", h=1e-3, t_end=0.2, record_every=10,
                          keep_snapshots=False),
        )
        d = traj.ledger.dissipation_integral
        assert np.all(np.diff(d) >= 0.0)

    def test_csv_schema_and_roundtrip(self, tmp_path):
        g = grid_1d(16)
        traj = integrate(
            random_unit_field(g, np.random.default_rng(4)), ModelParams(n=1),
            StepperConfig(scheme="etd1", h=1e-3, t_end=0.01, record_every=5),
        )
        path = tmp_path / "series.csv"
        write_timeseries_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(TIMESERIES_COLUMNS)
        first = dict(zip(TIMESERIES_COLUMNS, lines[1].split(",")))
        # .17g formatting round-trips exactly
        assert float(first["Y"]) == traj.ledger.Y[0]
        assert float(first["l2_norm"]) == traj.ledger.l2_norm[0]

    @pytest.mark.parametrize("rows", (1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                      CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1))
    def test_blocks_write_the_row_wise_bytes(self, tmp_path, rows):
        # write_timeseries_csv formats CSV_BLOCK_ROWS rows of the columns at
        # a time: the bytes of write_csv on the ledger's rows, one by one
        rng = np.random.default_rng(rows)
        ledger = EnergyReport(*rng.standard_normal((len(EnergyReport._fields), rows))
                              * 10.0 ** rng.integers(-300, 300, (1, rows)))
        columns = [getattr(ledger, name) for name in TIMESERIES_COLUMNS[:-1]]
        residual = np.abs(ledger.Y - ledger.Y[0] + ledger.dissipation_integral)
        want = [tuple(float(col[i]) for col in columns) + (float(residual[i]),)
                for i in range(rows)]
        write_csv(tmp_path / "rows.csv", TIMESERIES_COLUMNS, want)
        write_timeseries_csv(SimpleNamespace(ledger=ledger), tmp_path / "blocks.csv")
        got = (tmp_path / "blocks.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert got.count(b"\n") == rows + 1

    def test_write_csv_cells(self, tmp_path):
        path = tmp_path / "table.csv"
        x = 0.1 + 0.2
        write_csv(path, ("i", "x", "y"), [(1, float("nan"), x), (12345678901, x, -0.0)])
        text = path.read_text()
        assert text == "i,x,y\n1,nan,0.30000000000000004\n12345678901,0.30000000000000004,-0\n"
        assert float(text.split(",")[-2]) == x

    def test_csv_rows_format_like_fstrings_on_edge_values(self, tmp_path):
        edges = (-0.0, 5e-324, 1e308, 1.0, 0.1 + 0.2, np.float64(1.0) / 3.0)
        reports = []
        for shift in range(len(edges)):
            x = edges[shift:] + edges[:shift]
            reports.append(EnergyReport(x[0], x[1], x[2], x[3], x[4], x[5],
                                        x[0], x[1], x[2], x[3]))
        path = tmp_path / "series.csv"
        ledger = EnergyReport(*np.array(reports).T)
        write_timeseries_csv(SimpleNamespace(ledger=ledger), path)
        y0 = reports[0].Y
        expected = ",".join(TIMESERIES_COLUMNS) + "\n"
        for r in reports:
            row = (r.t, r.l2_norm, r.h1_seminorm_sq, r.h2_seminorm_sq, r.l2n_pow,
                   r.Y, r.ut_l2_sq, r.dissipation_integral,
                   abs(r.Y - y0 + r.dissipation_integral))
            expected += ",".join(f"{x:.17g}" for x in row) + "\n"
        assert path.read_bytes() == expected.encode()
