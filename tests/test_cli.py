import dataclasses
import gc
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphereflow
from sphereflow import (
    DomainSpec,
    Field,
    SpectralGrid,
    basis_mode,
    norm_l2,
    random_coeff_field,
    read_snapshot,
    write_snapshot,
)
from sphereflow.cli import (
    DEFAULT_CONFIG,
    KEYS,
    ConfigError,
    RunConfig,
    build_grid,
    build_initial,
    build_params,
    build_stepper,
    main,
    parse_config,
)
from sphereflow.integrators import default_step, integrate

PI = np.pi

MINIMAL = """
domain.dim = 1
domain.L = 3.141592653589793
domain.N = 16
"""

FULL = """
# full configuration
domain.dim = 1
domain.L = 3.141592653589793
domain.N = 16
model.n = 2
model.dealias = 2
stepper.scheme = rk4
stepper.h = 1e-5
stepper.t_end = 0.001
stepper.renormalize = true
stepper.record_every = 10
init.kind = random
init.seed = 7
output.dir = out
output.snapshots = false
"""


class TestParseConfig:
    def test_minimal_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.dim == 1 and cfg.resolution == (16,)
        assert cfg.n == 1 and cfg.dealias is None
        assert cfg.scheme == "etd1" and cfg.h is None and cfg.t_end == 1.0
        assert cfg.renormalize is True and cfg.record_every == 1
        assert cfg.init_kind == "mode" and cfg.mode == (1,)
        assert cfg.out_dir == "out" and cfg.snapshots is False

    def test_keys_declare_every_field_and_default(self):
        # RunConfig's fields are KEYS' fields in order, and DEFAULT_CONFIG
        # sets no key to the default KEYS already gives it
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            field for field, _, _ in KEYS.values()]
        for line in DEFAULT_CONFIG.splitlines():
            key, raw = (part.strip() for part in line.split("="))
            assert raw != KEYS[key][2], key

    def test_model_and_stepper_defaults_are_the_dataclass_defaults(self):
        # an unset stepper.h is default_step, which is StepperConfig's h for etd1
        cfg = parse_config(MINIMAL)
        built = {"model": build_params(cfg), "stepper": build_stepper(cfg, build_grid(cfg))}
        for key, (field, _, _) in KEYS.items():
            obj = built.get(key.split(".")[0])
            if obj is not None:
                default = {f.name: f.default for f in dataclasses.fields(obj)}[field]
                assert getattr(obj, field) == default, key

    def test_full_round_trip(self):
        cfg = parse_config(FULL)
        assert cfg.n == 2 and cfg.dealias == 2
        assert cfg.scheme == "rk4" and cfg.h == 1e-5
        assert cfg.seed == 7 and cfg.record_every == 10

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'model.q'"):
            parse_config(MINIMAL + "model.q = 1\n")

    def test_duplicate_key_named(self):
        with pytest.raises(ConfigError, match="duplicate key 'model.n'"):
            parse_config(MINIMAL + "model.n = 1\nmodel.n = 2\n")

    def test_override_without_equals_named(self):
        with pytest.raises(ConfigError, match="override 'model.n' is not of the form key=value"):
            parse_config(MINIMAL, ["model.n"])

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="domain.N"):
            parse_config("domain.dim = 1\ndomain.L = 1.0\n")

    def test_invariant_violation_named(self):
        with pytest.raises(ConfigError, match="model.n"):
            parse_config(MINIMAL + "model.n = 0\n")

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="stepper.h"):
            parse_config(MINIMAL + "stepper.h = fast\n")

    def test_bad_boolean_named(self):
        with pytest.raises(ConfigError, match="stepper.renormalize"):
            parse_config(MINIMAL + "stepper.renormalize = yes\n")

    def test_domain_invariants_surface(self):
        with pytest.raises(ConfigError, match="domain"):
            parse_config("domain.dim = 1\ndomain.L = 1.0\ndomain.N = 7\n")

    @pytest.mark.parametrize("key, raw", [
        ("stepper.t_end", "inf"), ("stepper.t_end", "nan"),
        ("stepper.h", "-inf"), ("domain.L", "nan"),
        ("stepper.scheme", "leapfrog"), ("stepper.h", "0"), ("stepper.t_end", "-1"),
        ("stepper.record_every", "0"),
    ])
    def test_nonfinite_or_out_of_range_float_named(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            parse_config(MINIMAL, overrides=[f"{key}={raw}"])

    @pytest.mark.parametrize("L", ["1e-300", "1e-160", "5e-324"])
    def test_lengths_outside_float_range_named(self, L):
        with pytest.raises(ConfigError, match="domain"):
            parse_config(f"domain.dim = 1\ndomain.L = {L}\ndomain.N = 8\n")

    @settings(deadline=None, max_examples=300)
    @given(key=st.sampled_from(tuple(KEYS)) | st.text(max_size=12),
           raw=st.text(max_size=24) | st.floats().map(repr)
           | st.integers(-10**6, 10**400).map(str)
           | st.sampled_from(["inf", "-inf", "nan", "5e-324", "1e-300", "-1", "none"]))
    def test_any_key_value_parses_to_finite_fields_or_config_error(self, key, raw):
        for text, overrides in ((MINIMAL + f"{key} = {raw}\n", ()),
                                (MINIMAL, [f"{key}={raw}"])):
            try:
                cfg = parse_config(text, overrides)
            except ConfigError:
                continue
            floats = (cfg.t_end, *cfg.lengths, 1.0 if cfg.h is None else cfg.h)
            assert all(math.isfinite(x) for x in floats)

    def test_mode_rank_checked(self):
        with pytest.raises(ConfigError, match="init.mode"):
            parse_config(MINIMAL + "init.mode = 1,2\n")

    def test_mode_range_checked(self):
        # mode 65 on N = 64 used to fail at run time with exit code 1
        for mode in ("65", "0"):
            with pytest.raises(ConfigError, match="init.mode"):
                parse_config(MINIMAL.replace("16", "64") + f"init.mode = {mode}\n")
        assert parse_config(MINIMAL + "init.mode = 16\n").mode == (16,)

    def test_file_kind_requires_path(self):
        with pytest.raises(ConfigError, match="init.path"):
            parse_config(MINIMAL + "init.kind = file\n")

    def test_overrides_apply_after_file(self):
        cfg = parse_config(MINIMAL + "model.n = 1\n", overrides=["model.n=3"])
        assert cfg.n == 3

    def test_builders(self):
        cfg = parse_config(FULL)
        grid = build_grid(cfg)
        params = build_params(cfg)
        stepper = build_stepper(cfg, grid)
        u0 = build_initial(cfg, grid)
        assert grid.spec.resolution == (16,)
        assert params.n == 2 and stepper.h == 1e-5
        assert abs(norm_l2(u0) - 1.0) < 1e-12

    def test_default_step_is_stability_limited_for_explicit(self):
        cfg = parse_config(MINIMAL + "stepper.scheme = rk4\n")
        grid = build_grid(cfg)
        stepper = build_stepper(cfg, grid)
        assert stepper.h == min(1e-3, 0.5 / grid.mu_max)

    def test_default_explicit_step_ends_at_t_end(self, tmp_path):
        # on L = 2 the stability-limited step does not divide t_end, so the
        # default is the largest t_end / n below it
        text = ("domain.dim = 1\ndomain.L = 2.0\ndomain.N = 8\nstepper.scheme = rk4\n"
                "stepper.t_end = 0.01\nstepper.record_every = 100000\n")
        cfg = parse_config(text)
        grid = build_grid(cfg)
        h_max = default_step("rk4", grid)
        h = build_stepper(cfg, grid).h
        n = round(0.01 / h)
        assert h <= h_max < 0.01 / (n - 1)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "run"]) == 0
        last = (tmp_path / "o" / "timeseries.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(0.01, rel=1e-12)

    def test_initial_state_is_its_literal_normalization(self, tmp_path):
        # mode, random (normalized once by random_unit_field) and file
        # states are each divided by their L2 norm, bit for bit
        g = SpectralGrid(DomainSpec(1, (PI,), (16,)))
        raw = random_coeff_field(g, np.random.default_rng(5))
        path = tmp_path / "ic.mshf"
        write_snapshot(path, 3.0 * basis_mode(g, 2) + raw)
        rand = random_coeff_field(g, np.random.default_rng(4))
        rand = Field(g, rand.values / norm_l2(rand))
        cases = (("init.kind = mode\ninit.mode = 3\n", basis_mode(g, 3)),
                 ("init.kind = random\ninit.seed = 4\n", rand),
                 (f"init.kind = file\ninit.path = {path}\n", read_snapshot(path, g)))
        for text, u in cases:
            cfg = parse_config(MINIMAL + text)
            u0 = build_initial(cfg, build_grid(cfg))
            want = Field(g, u.values / norm_l2(u))
            assert u0.values.tobytes() == want.values.tobytes(), text

    def test_file_initial_state(self, tmp_path):
        g = SpectralGrid(DomainSpec(1, (PI,), (16,)))
        path = tmp_path / "ic.mshf"
        write_snapshot(path, basis_mode(g, 2))
        cfg = parse_config(MINIMAL + f"init.kind = file\ninit.path = {path}\n")
        u0 = build_initial(cfg, build_grid(cfg))
        assert norm_l2(u0 - basis_mode(g, 2)) < 1e-12


    def test_zero_file_state_names_path(self, tmp_path):
        g = SpectralGrid(DomainSpec(1, (PI,), (16,)))
        path = tmp_path / "zero.mshf"
        write_snapshot(path, 0.0 * basis_mode(g, 1))
        cfg = parse_config(MINIMAL + f"init.kind = file\ninit.path = {path}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{path}: the state is zero"):
                build_initial(cfg, build_grid(cfg))


class TestMainEntry:
    def write_cfg(self, tmp_path, extra=""):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            MINIMAL
            + "stepper.h = 0.001\nstepper.t_end = 0.02\nstepper.record_every = 5\n"
            + "init.kind = random\ninit.seed = 3\n"
            + extra
        )
        return cfg

    def test_unknown_probe_refused_by_name(self, capsys):
        # argparse's choices are the probes' one list
        with pytest.raises(SystemExit) as err:
            main(["probe", "lyapunov"])
        assert err.value.code == 2
        assert "invalid choice: 'lyapunov'" in capsys.readouterr().err

    def test_run_writes_timeseries_and_snapshots(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "output.snapshots = true\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--out", str(out), "run"])
        assert code == 0
        series = (out / "timeseries.csv").read_text().splitlines()
        assert series[0].startswith("t,l2_norm,h1_seminorm_sq")
        assert len(series) == 6  # header + records at steps 0,5,10,15,20
        snaps = sorted(os.listdir(out / "snapshots"))
        assert snaps[0] == "t_0.mshf"

    def test_last_snapshot_is_the_final_state(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path, "output.snapshots = true\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out), "run"]) == 0
        cfg = parse_config(cfg_path.read_text())
        grid = build_grid(cfg)
        traj = integrate(build_initial(cfg, grid), build_params(cfg),
                         build_stepper(cfg, grid))
        write_snapshot(tmp_path / "final.mshf", traj.final_state)
        rows = len((out / "timeseries.csv").read_text().splitlines()) - 1
        assert sorted(os.listdir(out / "snapshots")) == sorted(
            f"t_{i}.mshf" for i in range(rows))
        assert (out / "snapshots" / f"t_{rows - 1}.mshf").read_bytes() == (
            tmp_path / "final.mshf").read_bytes()

    def test_run_from_a_snapshot_needs_its_exact_domain(self, tmp_path, capsys):
        # a run's own snapshot starts a run on its domain; on a grid with
        # L = 3.14159 it exits 1, and stderr names both domains
        out = tmp_path / "out"
        cfg = self.write_cfg(tmp_path, "output.snapshots = true\n")
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        start = ["--config", str(cfg), "--set", "init.kind=file",
                 "--set", f"init.path={out / 'snapshots' / 't_0.mshf'}"]
        assert main([*start, "--out", str(tmp_path / "again"), "run"]) == 0
        capsys.readouterr()
        assert main([*start, "--set", "domain.L=3.14159",
                     "--out", str(tmp_path / "off"), "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: GridMismatch: ")
        assert "lengths=(3.141592653589793,)" in err and "lengths=(3.14159,)" in err

    def test_run_deterministic_byte_identical(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(out_a), "run"]) == 0
        assert main(["--config", str(cfg), "--out", str(out_b), "run"]) == 0
        assert (out_a / "timeseries.csv").read_bytes() == (
            out_b / "timeseries.csv"
        ).read_bytes()

    def test_snapshot_setting_keeps_timeseries_identical(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--set", "output.snapshots=true",
                     "--out", str(out_a), "run"]) == 0
        assert main(["--config", str(cfg), "--set", "output.snapshots=false",
                     "--out", str(out_b), "run"]) == 0
        assert (out_a / "snapshots").is_dir() and not (out_b / "snapshots").exists()
        assert (out_a / "timeseries.csv").read_bytes() == (
            out_b / "timeseries.csv"
        ).read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["--config", str(cfg), "--out", str(out_a), "run"])
        main(["--config", str(cfg), "--out", str(out_b), "--seed", "4", "run"])
        assert (out_a / "timeseries.csv").read_bytes() != (
            out_b / "timeseries.csv"
        ).read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        code = main(["--config", str(cfg), "--set", "model.n=0", "run"])
        assert code == 2
        assert "model.n" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ("config", "--set"))
    def test_off_manifold_eps_key_is_unknown(self, tmp_path, capsys, via):
        # every command put the state back on the sphere; the key is gone
        extra, args = "", []
        if via == "config":
            extra = "init.off_manifold_eps = 0.01\n"
        else:
            args = ["--set", "init.off_manifold_eps=0.01"]
        cfg = self.write_cfg(tmp_path, extra)
        code = main(["--config", str(cfg), *args, "--out", str(tmp_path / "o"), "run"])
        assert code == 2
        assert "unknown key 'init.off_manifold_eps'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", (["--set", "output.dir="], ["--out", ""]))
    def test_empty_output_dir_is_config_error(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        cfg = self.write_cfg(tmp_path)
        assert main(["--config", str(cfg), *args, "run"]) == 2
        assert "output.dir" in capsys.readouterr().err

    def test_boundary_key_is_config_error(self, tmp_path, capsys):
        # the sine basis is the only basis; the key is unknown
        cfg = self.write_cfg(tmp_path, "domain.boundary = dirichlet_navier\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"])
        assert code == 2
        assert "domain.boundary" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_step_not_dividing_t_end_is_config_error(self, tmp_path, capsys):
        # t_end / h = 3.33: the run used to stop at t = 0.9 without a word
        cfg = self.write_cfg(tmp_path)
        code = main(["--config", str(cfg), "--set", "stepper.h=0.3",
                     "--set", "stepper.t_end=1.0", "--out", str(tmp_path / "o"), "run"])
        assert code == 2
        err = capsys.readouterr().err
        assert "stepper.h" in err and "t_end" in err
        assert not (tmp_path / "o").exists()

    def test_out_of_range_mode_exits_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        code = main(["--config", str(cfg), "--set", "init.kind=mode",
                     "--set", "init.mode=17", "--out", str(tmp_path / "o"), "run"])
        assert code == 2
        assert "init.mode" in capsys.readouterr().err

    def test_runs_without_scipy(self, tmp_path):
        # a fresh interpreter: importing the CLI loads no scipy module, and
        # with every scipy import made to fail, run (dense and FFT paths)
        # and picard still exit 0
        script = textwrap.dedent("""
            import sys
            from sphereflow import cli
            loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
            assert not loaded, loaded
            sys.modules["scipy"] = None
            for args in (["--out", "default", "run"],
                         ["--set", "domain.N=512", "--set", "stepper.t_end=0.1",
                          "--out", "fft", "run"],
                         ["--set", "stepper.t_end=0.02", "--out", "picard", "picard"]):
                assert cli.main(args) == 0, args
        """)
        src = os.path.dirname(os.path.dirname(sphereflow.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fft" / "timeseries.csv").exists()
        assert (tmp_path / "picard" / "picard.csv").exists()

    def test_equilibrium_preset_energy_column_constant(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(MINIMAL + "stepper.h = 0.001\nstepper.t_end = 0.1\n"
                       "stepper.record_every = 10\ninit.kind = mode\n"
                       "init.mode = 1\n")
        out = tmp_path / "eq"
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        lines = (out / "timeseries.csv").read_text().splitlines()[1:]
        y = np.array([float(line.split(",")[5]) for line in lines])
        assert np.max(np.abs(y - 2.5)) <= 1e-10

    def test_2d_run(self, tmp_path):
        cfg = tmp_path / "r2.cfg"
        cfg.write_text(
            "domain.dim = 2\ndomain.L = 3.141592653589793, 3.141592653589793\n"
            "domain.N = 16, 16\nmodel.n = 2\nstepper.h = 0.001\n"
            "stepper.t_end = 0.01\ninit.kind = random\ninit.seed = 1\n"
        )
        out = tmp_path / "r2"
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        lines = (out / "timeseries.csv").read_text().splitlines()
        y = [float(line.split(",")[5]) for line in lines[1:]]
        assert y[-1] <= y[0]

    def test_picard_csv(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "p"
        code = main(["--config", str(cfg), "--set", "stepper.t_end=0.05",
                     "--out", str(out), "picard"])
        assert code == 0
        lines = (out / "picard.csv").read_text().splitlines()
        assert lines[0] == "iter,sup_v_distance,factor"
        dists = [float(line.split(",")[1]) for line in lines[1:]]
        assert dists[-1] < 1e-10

    def test_picard_zero_horizon_is_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "p"
        code = main(["--config", str(cfg), "--set", "stepper.t_end=0",
                     "--out", str(out), "picard"])
        assert code == 2
        assert "stepper.t_end" in capsys.readouterr().err
        assert not (out / "picard.csv").exists()

    def test_picard_default_horizon_names_the_key(self, tmp_path, capsys):
        # the default stepper.t_end = 1.0 is too long for Phi to contract
        out = tmp_path / "p"
        assert main(["--out", str(out), "picard"]) == 1
        err = capsys.readouterr().err
        assert "NonContractionError" in err
        assert "set stepper.t_end below 1.0" in err
        assert not (out / "picard.csv").exists()

    def test_unstable_rk4_run_exits_1_naming_the_stability_limit(self, tmp_path, capsys):
        # RK4 at 1.5 times the limit 1.192e-7 of the default 1D N = 64 grid:
        # the energy rises at step 8, so the run fails there and writes nothing
        out = tmp_path / "r"
        code = main(["--out", str(out), "--set", "stepper.scheme=rk4", "--set", "stepper.h=1.8e-7",
                     "--set", "stepper.t_end=7.2e-4", "--set", "model.n=2", "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: BlowUpError: blow-up at t = 1.44e-06: the energy Y rose by ")
        assert "(rk4 at h = 1.8e-07; explicit stability limit 1.192e-07)" in err
        assert not (out / "timeseries.csv").exists()

    @pytest.mark.parametrize("m", ("nan", "0", "-1", "inf"))
    def test_picard_bad_truncation_level_is_config_error(self, tmp_path, capsys, m):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "p"
        code = main(["--config", str(cfg), "--out", str(out), "picard", f"--m={m}"])
        assert code == 2
        assert "--m" in capsys.readouterr().err
        assert not (out / "picard.csv").exists()

    @pytest.mark.parametrize("fault", ("missing", "directory", "not utf-8"))
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, fault):
        path = tmp_path / "run.cfg"
        if fault == "directory":
            path.mkdir()
        elif fault == "not utf-8":
            path.write_bytes(b"domain.dim = 1\n\xff\n")
        code = main(["--config", str(path), "--out", str(tmp_path / "o"), "run"])
        assert code == 2
        assert f"error: --config {path}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_is_closed(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_warm_call_leaves_no_cyclic_garbage(self, tmp_path):
        # the parser is built once, so a call leaves nothing for the cyclic
        # collector (a parser made per call left 158 objects)
        cfg = self.write_cfg(tmp_path)
        argv = ["--config", str(cfg), "--set", "stepper.t_end=0.05",
                "--out", str(tmp_path / "p"), "picard"]
        assert main(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == 0

    def test_probe_lipschitz_rejects_zero_samples(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "q"),
                     "probe", "lipschitz", "--samples", "0"])
        assert code == 2
        assert "samples" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()

    def test_probe_invariance_csv(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "q"
        code = main(["--config", str(cfg), "--out", str(out), "probe", "invariance"])
        assert code == 0
        lines = (out / "probe_invariance.csv").read_text().splitlines()
        assert lines[0] == "eps,measured_rate,predicted_rate,relative_error"
        assert all(float(line.split(",")[3]) <= 0.01 for line in lines[1:])

    @pytest.mark.parametrize("via", ("config", "--set"))
    def test_model_a_key_is_unknown(self, tmp_path, capsys, via):
        # the projection cancels a on the sphere, so no output read it
        extra, args = "", []
        if via == "config":
            extra = "model.a = 0.5\n"
        else:
            args = ["--set", "model.a=0.5"]
        cfg = self.write_cfg(tmp_path, extra)
        out = tmp_path / "q"
        code = main(["--config", str(cfg), *args, "--out", str(out), "probe", "invariance"])
        assert code == 2
        assert "unknown key 'model.a'" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_amu_csv(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "model.n = 2\n")
        out = tmp_path / "q"
        assert main(["--config", str(cfg), "--set", "stepper.t_end=0.5",
                     "--out", str(out), "probe", "amu"]) == 0
        assert (out / "probe_amu.csv").exists()

    def test_probe_amu_zero_horizon_is_config_error(self, tmp_path, capsys):
        # a zero horizon has only the t = 0 record: no boundedness along the flow
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "q"
        code = main(["--config", str(cfg), "--set", "stepper.t_end=0",
                     "--out", str(out), "probe", "amu"])
        assert code == 2
        assert "stepper.t_end" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_omega_csv(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "q"
        assert main(["--config", str(cfg), "--set", "stepper.t_end=4.0",
                     "--set", "stepper.record_every=100",
                     "--out", str(out), "probe", "omega"]) == 0
        lines = (out / "probe_omega.csv").read_text().splitlines()
        assert lines[0] == "q,max_pairwise_v_distance"

    def test_probe_omega_zero_horizon_is_config_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "q"
        code = main(["--config", str(cfg), "--set", "stepper.t_end=0",
                     "--out", str(out), "probe", "omega"])
        assert code == 2
        assert "stepper.t_end" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which, header, rows", [
        ("lipschitz", "resolution,samples,ball_radius,max_ratio", 2),
        ("invariance", "eps,measured_rate,predicted_rate,relative_error", 4),
        ("omega", "q,max_pairwise_v_distance", 3),
        # records every 5 steps of 1e-3 to t_end = 0.02; t_min = t_end / 2
        ("amu", "t,mu_0.55,mu_0.6,mu_0.75,mu_0.9", 3),
    ])
    def test_probe_csv_header_and_rows(self, tmp_path, which, header, rows):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "q"
        assert main(["--config", str(cfg), "--out", str(out),
                     "probe", which, "--samples", "5"]) == 0
        lines = (out / f"probe_{which}.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
        assert all(math.isfinite(float(x)) for line in lines[1:] for x in line.split(","))
        if which == "amu":
            assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx(
                [0.01, 0.015, 0.02], rel=1e-12)


class TestSignSymmetry:
    """F is odd and every step is odd or even in the sign, so -u0 evolves as
    exactly -u(t): the benchmark's four configurations (grid, n, scheme and
    record cadence, the runs cut to 20 steps, picard_2d at full size) write
    the same timeseries.csv and picard.csv bytes from u0 and from -u0, and
    snapshots that are exact negations, bit for bit."""

    CASES = {  # command, dim, N, n, scheme, h, steps, record_every
        "ground_1d": (["run"], 1, 64, 1, "etd1", 1e-3, 20, 100),
        "pattern_2d": (["run"], 2, 256, 2, "etd1", 1e-3, 20, 20),
        "stiff_rk4": (["run"], 1, 12, 2, "rk4", 1e-5, 20, 1),
        "picard_2d": (["picard", "--m", "1e6"], 2, 64, 2, "etd1", 1e-3, 20, 1),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_minus_u0_writes_the_same_bytes(self, tmp_path, case):
        command, dim, N, n, scheme, h, steps, every = self.CASES[case]
        grid = SpectralGrid(DomainSpec(dim, (math.pi,) * dim, (N,) * dim))
        u0 = random_coeff_field(grid, np.random.default_rng(7))
        csv = "timeseries.csv" if command[0] == "run" else "picard.csv"
        out = {}
        for tag, v in (("plus", u0.values), ("minus", -u0.values)):
            write_snapshot(tmp_path / f"{tag}.mshf", Field(grid, v))
            out[tag] = tmp_path / tag
            sets = [f"domain.dim={dim}", "domain.L=" + ",".join([repr(math.pi)] * dim),
                    "domain.N=" + ",".join([str(N)] * dim), f"model.n={n}",
                    f"stepper.scheme={scheme}", f"stepper.h={h!r}",
                    f"stepper.t_end={steps * h!r}", f"stepper.record_every={every}",
                    "init.kind=file", f"init.path={tmp_path / f'{tag}.mshf'}",
                    "output.snapshots=true"]
            args = [x for kv in sets for x in ("--set", kv)]
            assert main(args + ["--out", str(out[tag])] + command) == 0
        assert (out["plus"] / csv).read_bytes() == (out["minus"] / csv).read_bytes()
        if command[0] == "run":
            names = sorted(os.listdir(out["plus"] / "snapshots"))
            assert names and names == sorted(os.listdir(out["minus"] / "snapshots"))
            for name in names:
                plus, minus = (read_snapshot(out[tag] / "snapshots" / name).values
                               for tag in ("plus", "minus"))
                assert np.array_equal(minus.view(np.int64), np.negative(plus).view(np.int64))


def test_readme_names_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert [key for key in KEYS if f"`{key}`" not in readme] == []
