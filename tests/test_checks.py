import os
from types import SimpleNamespace

import numpy as np

from sphereflow import analysis, checks
from sphereflow.checks import Table, check_gradient_system, cmd_check


def test_stall_row_fails_without_stall_events(monkeypatch):
    # a converged tail with no stall at all: all() of no events is True
    def no_stalls(u0, p, cfg, q_list):
        return analysis.OmegaLimitReport(
            q_list=(15.0,), tail_start=15.0, per_q_max_distance={15.0: 0.0}, converged=True, limit_candidate=u0,
            stall_ok=True, stall_events=())

    monkeypatch.setattr(analysis, "omega_limit_probe", no_stalls)
    tab = Table()
    check_gradient_system(tab, 0)
    row = next(r for r in tab.rows if r["name"] == "energy stall implies fixed point")
    assert row["measured"] == 0.0
    assert not row["passed"]


def _pass(tab, seed):
    tab.add_le("pass row", 0.1, 1.0)


def _fail(tab, seed):
    tab.add("fail, with comma", np.pi, "<= 3", False)


def test_cmd_check_writes_report_and_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(checks, "ALL_CHECKS", (_pass, _fail))
    assert cmd_check(SimpleNamespace(seed=0, out_dir=str(tmp_path))) == 1
    lines = (tmp_path / "check_report.csv").read_text().splitlines()
    assert lines == [
        "name,passed,measured,threshold",
        'pass row,1,0.10000000000000001,"<= 1"',
        'fail; with comma,0,3.1415926535897931,"<= 3"',
    ]
    out = capsys.readouterr().out
    assert "FAIL  fail, with comma" in out and "1/2 checks passed" in out

    monkeypatch.setattr(checks, "ALL_CHECKS", (_pass,))
    assert cmd_check(SimpleNamespace(seed=0, out_dir=str(tmp_path))) == 0
    lines = (tmp_path / "check_report.csv").read_text().splitlines()
    assert lines[1:] == ['pass row,1,0.10000000000000001,"<= 1"']


def _pid(tab, seed):
    tab.add("process id", os.getpid(), "", True)


def test_parallel_run_merges_rows_and_seconds_in_suite_order(monkeypatch):
    suite = (checks.check_spectral_core, _pid, checks.check_psi_rate, _pass, _fail)
    monkeypatch.setattr(checks, "ALL_CHECKS", suite)
    serial, parallel = checks.run_all(3), checks.run_all(3, workers=2)
    names = [fn.__name__ for fn in suite]
    assert list(serial.seconds) == list(parallel.seconds) == names
    pid = [r for r in parallel.rows if r["name"] == "process id"]
    assert pid[0]["measured"] != os.getpid()
    assert [r for r in parallel.rows if r["name"] != "process id"] == [
        r for r in serial.rows if r["name"] != "process id"]
    assert [r["name"] for r in parallel.rows] == [r["name"] for r in serial.rows]


def test_cmd_check_is_serial_on_one_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "ALL_CHECKS", (_pid,))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cmd_check(SimpleNamespace(seed=0, out_dir=str(tmp_path))) == 0
    lines = (tmp_path / "check_report.csv").read_text().splitlines()
    assert lines[1] == f'process id,1,{os.getpid()},""'


def test_cmd_check_writes_each_check_seconds_apart(tmp_path, monkeypatch):
    # every suite function stands in as one passing row, run serially here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    reports = []
    for seconds in (0.25, 0.5):
        def one_row(fn, seed, seconds=seconds):
            tab = Table()
            tab.add_le(fn.__name__, 0.0, 1.0)
            return tab.rows, seconds

        monkeypatch.setattr(checks, "_run_check", one_row)
        assert cmd_check(SimpleNamespace(seed=0, out_dir=str(tmp_path))) == 0
        lines = (tmp_path / "check_seconds.csv").read_text().splitlines()
        assert lines[0] == "check,seconds"
        # each check function once, in suite order, with its seconds
        assert [line.split(",") for line in lines[1:]] == [
            [fn.__name__, f"{seconds:.6f}"] for fn in checks.ALL_CHECKS]
        reports.append((tmp_path / "check_report.csv").read_bytes())
    # the timings do not reach check_report.csv
    assert reports[0] == reports[1]
