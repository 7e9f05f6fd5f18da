import json
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bulksurf import build_mesh, solver
from bulksurf.cli import (
    BadValue,
    ConfigError,
    build_problem,
    initial_state,
    main,
    parse_config,
    write_final_state_csv,
)

MINIMAL = "# empty: every key has a default\n"

BLOB_RUN = """
nx = 8
ny = 8
alpha = 2.0
beta = 1.0
kappa = 0.5
bulk_law = power
bulk_law_param = 1.0
surface_law = surface_cross
initial = two-blob
dt = 2e-3
t_final = 0.01
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def write_state(path, mesh, u, v):
    """A final_state.csv of u and v on mesh, as a run writes it; the values may be any floats."""
    write_final_state_csv(SimpleNamespace(u=np.asarray(u, float), v=np.asarray(v, float)), mesh, path)
    return path


def run_module(*args):
    """``python -W error -m bulksurf.cli`` with args in a process of its own, on this checkout's src.

    Any warning is an error, as in the suite's own filterwarnings.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "bulksurf.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.nx == 16 and cfg.ny == 16
        assert cfg.active_edges == ("bottom",)
        assert cfg.k == 1.0 and cfg.kappa == 1.0
        assert cfg.bulk_law == "constant" and cfg.bulk_law_param == 1.0
        assert cfg.initial == "constant" and cfg.u0 == 1.0 and cfg.v0 == 1.0
        assert cfg.dt == 1e-3 and cfg.theta == 1.0

    def test_comments_and_spacing(self, tmp_path):
        cfg = parse_config(write(tmp_path, "nx = 4  # coarse\n\n  ny=5\n"))
        assert cfg.nx == 4 and cfg.ny == 5

    def test_fractional_alpha_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write(tmp_path, "alpha = 0.5\n"))
        assert any(isinstance(p, BadValue) and p.key == "alpha" for p in info.value.problems)

    def test_zero_initial_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write(tmp_path, "u0 = 0.0\n"))
        assert any(p.key == "u0" for p in info.value.problems)

    def test_all_problems_reported_not_just_first(self, tmp_path):
        text = "alpha = 0.2\nbeta = -1\ndt = 0\nnx = 0\nface_average = fancy\nny 4\n = 5\n"
        with pytest.raises(ConfigError) as info:
            parse_config(write(tmp_path, text), overrides=["nx8", "=3"])
        bad = [p for p in info.value.problems if isinstance(p, BadValue)]
        keys = {p.key for p in bad}
        assert {"alpha", "beta", "dt", "nx", "face_average", "line 6", "line 7", "--override"} <= keys
        assert "" not in keys  # an empty key is reported where it stands, not as a key
        assert sum(p.key == "--override" for p in bad) == 2

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write(tmp_path, "nz = 3\n"))
        assert any(p.key == "nz" for p in info.value.problems if isinstance(p, BadValue))

    def test_missing_file_reports_missing_key(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(tmp_path / "nope.cfg")
        assert any(p.key == "--config" for p in info.value.problems)

    def test_file_initial_requires_paths(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write(tmp_path, "initial = file\n"))
        assert [(p.key, p.reason) for p in info.value.problems] == [("initial_file", "a path is required")]

    def test_overrides_apply_before_validation(self, tmp_path):
        path = write(tmp_path, "nx = 4\n")
        cfg = parse_config(path, overrides=["nx=9", "kappa = 2.5"])
        assert cfg.nx == 9
        assert cfg.kappa == 2.5


class TestInitialData:
    def test_two_blob_background_is_balanced(self, tmp_path):
        cfg = parse_config(write(tmp_path, BLOB_RUN))
        mesh = build_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly, cfg.active_edges)
        state = initial_state(cfg, mesh)
        base_v = (cfg.blob_base_u**cfg.alpha / cfg.kappa) ** (1 / cfg.beta)
        assert np.min(state.u) >= cfg.blob_base_u  # positive bumps only add
        np.testing.assert_allclose(state.v, base_v)
        # bit for bit the Python-float product, on exponent ratios integer or not
        for alpha, beta, kappa in ((2.0, 1.0, 0.5), (3.5, 1.5, 0.3), (1.0, 3.0, 7.0), (2.7, 1.3, 1e-5)):
            cfg = parse_config(write(tmp_path, BLOB_RUN), [f"alpha={alpha}", f"beta={beta}", f"kappa={kappa}"])
            v = initial_state(cfg, mesh).v
            assert np.all(v == cfg.blob_base_u ** (alpha / beta) * kappa ** (-1 / beta))

    def test_two_blob_background_whose_power_overflows_is_balanced(self, tmp_path):
        # blob_base_u**alpha = 1e400 overflows, yet the balanced v is 1e200
        overrides = ["alpha=2", "beta=2", "kappa=1", "blob_base_u=1e200"]
        cfg = parse_config(write(tmp_path, BLOB_RUN), overrides)
        state = build_problem(cfg)[4]
        assert np.all(state.v == 1e200)

    @pytest.mark.parametrize("overrides", [["blob_base_u=1e200"], ["blob_base_u=1e150", "kappa=1e-10"]])
    def test_two_blob_background_beyond_the_floats_is_a_config_error(self, tmp_path, capsys, overrides):
        # base_u**alpha overflows, or its quotient by kappa does
        cfg = write(tmp_path, BLOB_RUN)
        args = ["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
        assert main(args + [f"--override={o}" for o in overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad value for blob_base_u: the balanced v")
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides", [["blob_x2=1e300", "blob_amplitude_1=0"], ["blob_width=1e-160"]])
    def test_a_bump_beyond_float_reach_adds_nothing(self, tmp_path, overrides):
        # a centre at 1e300, or a width whose square is 1e-320: every cell's
        # distance over the width overflows, which is no bump, not a warning
        cfg = parse_config(write(tmp_path, BLOB_RUN), overrides)
        assert np.all(build_problem(cfg)[4].u == cfg.blob_base_u)

    def test_file_initial_round_trip(self, tmp_path):
        mesh = build_mesh(3, 2, 1.0, 1.0, {"bottom"})
        u = np.linspace(1.0, 2.0, mesh.n_bulk) / 3.0
        v = np.linspace(0.5, 0.8, mesh.n_surface) / 7.0
        path = write_state(tmp_path / "state.csv", mesh, u, v)
        cfg = parse_config(write(tmp_path, f"nx = 3\nny = 2\ninitial = file\ninitial_file = {path}\n"))
        state = initial_state(cfg, mesh)
        np.testing.assert_array_equal(state.u, u)
        np.testing.assert_array_equal(state.v, v)
        assert state.t == 0.0

    def test_file_initial_rejects_nonpositive(self, tmp_path):
        mesh = build_mesh(2, 1, 1.0, 1.0, {"bottom"})
        path = tmp_path / "state.csv"
        cfg = parse_config(write(tmp_path, f"nx = 2\nny = 1\ninitial = file\ninitial_file = {path}\n"))
        # nonpositive and non-finite values, in either field, are reported under initial_file
        for u, v in (([1.0, -1.0], [1.0, 1.0]), ([1.0, 2.0], [0.0, 1.0]),
                     ([1.0, 2.0], [1.0, np.nan]), ([np.inf, 2.0], [1.0, 1.0])):
            write_state(path, mesh, u, v)
            with pytest.raises(ConfigError) as info:
                initial_state(cfg, mesh)
            assert [str(p) for p in info.value.problems] == [
                "bad value for initial_file: values must be finite and > 0"]

    def test_missing_file_names_initial_file_and_its_path(self, tmp_path):
        mesh = build_mesh(2, 1, 1.0, 1.0, {"bottom"})
        cfg = parse_config(
            write(tmp_path, f"nx = 2\nny = 1\ninitial = file\ninitial_file = {tmp_path / 'missing.csv'}\n")
        )
        with pytest.raises(ConfigError) as info:
            initial_state(cfg, mesh)
        assert [p.key for p in info.value.problems] == ["initial_file"]
        assert "missing.csv" in str(info.value)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: [],
            lambda lines: ["field,index,x,y"] + lines[1:],
            lambda lines: lines[:-1],
            lambda lines: lines + lines[-1:],
            lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:],
            lambda lines: lines[:3] + [lines[3].replace("u,", "v,", 1)] + lines[4:],
            lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0]] + lines[2:],
            lambda lines: lines[:1] + [lines[1] + ",1.0"] + lines[2:],
            lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",abc"] + lines[2:],
            lambda lines: lines[:1] + ["u,0,x,0.25,1.0"] + lines[2:],
            lambda lines: lines[:1] + ["u,0,0.25,0.25,\xff"] + lines[2:],
        ],
        ids=["empty", "header", "short", "long", "order", "field", "row-short", "row-long",
             "value-text", "x-text", "not-utf-8"],
    )
    def test_a_file_that_is_not_this_meshs_state_names_initial_file(self, tmp_path, edit):
        mesh = build_mesh(2, 2, 1.0, 1.0, {"bottom", "top"})
        path = write_state(tmp_path / "state.csv", mesh, np.arange(1, 5), np.arange(1, 5))
        # latin-1 writes the character \xff as the byte 0xff, which is not UTF-8
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())), "latin-1")
        cfg = parse_config(write(tmp_path, f"nx = 2\nny = 2\nactive_edges = bottom,top\n"
                                           f"initial = file\ninitial_file = {path}\n"))
        with pytest.raises(ConfigError) as info:
            initial_state(cfg, mesh)
        assert [p.key for p in info.value.problems] == ["initial_file"]

    def test_build_problem_window_defaults_from_data(self, tmp_path):
        cfg = parse_config(write(tmp_path, BLOB_RUN))
        mesh, kin, bulk_law, surf_law, state, eq, window, step_cfg = build_problem(cfg)
        assert window.u_star == eq.u_star
        assert 0 < window.lower <= window.upper
        assert surf_law.kind == "surface_cross"
        assert step_cfg.dt == cfg.dt


class TestRestart:
    """initial = file reads the final_state.csv a run writes, so a run continues from its own output."""

    def run(self, tmp_path, out, *overrides, code=0):
        args = ["--config", str(write(tmp_path, BLOB_RUN)), "--out", str(tmp_path / out), "--quiet"]
        overrides = ("active_edges=bottom,right,top,left",) + overrides
        assert main(args + [f"--override={o}" for o in overrides]) == code
        return tmp_path / out

    def restart(self, tmp_path, out, first, *overrides, code=0):
        state = f"initial_file={first / 'final_state.csv'}"
        return self.run(tmp_path, out, "initial=file", state, *overrides, code=code)

    def test_a_run_of_no_time_rewrites_the_state_it_reads(self, tmp_path):
        first = self.run(tmp_path, "first")
        again = self.restart(tmp_path, "again", first, "t_final=0")
        assert (again / "final_state.csv").read_bytes() == (first / "final_state.csv").read_bytes()

    @pytest.mark.parametrize("theta", ["1", "0.5"])
    def test_two_halves_end_where_the_whole_run_ends(self, tmp_path, theta):
        whole = self.run(tmp_path, "whole", f"theta={theta}", "t_final=0.02")
        half = self.run(tmp_path, "half", f"theta={theta}", "t_final=0.01")
        rest = self.restart(tmp_path, "rest", half, f"theta={theta}", "t_final=0.01")

        def values(out):
            return np.loadtxt(out / "final_state.csv", delimiter=",", skiprows=1, usecols=4)

        np.testing.assert_allclose(values(rest), values(whole), rtol=1e-11, atol=0)

    def test_a_restart_keeps_the_mass(self, tmp_path):
        first = self.run(tmp_path, "first")
        rest = self.restart(tmp_path, "rest", first)
        first_mass, rest_mass = (json.loads((out / "summary.json").read_text())["mass"] for out in (first, rest))
        assert rest_mass == pytest.approx(first_mass, rel=1e-13, abs=0)

    @pytest.mark.parametrize("overrides", [("nx=8", "ny=4"), ("nx=4", "ny=8", "lx=2")], ids=["8x4", "lx-2"])
    def test_the_state_of_another_mesh_is_exit_2(self, tmp_path, capsys, overrides):
        # all edges of 4x8 and of 8x4 hold 32 bulk and 24 surface cells: their rows differ, not their count
        first = self.run(tmp_path, "first", "nx=4", "ny=8", "t_final=0")
        second = self.restart(tmp_path, "second", first, *overrides, code=2)
        err = capsys.readouterr().err
        assert err == "config error: bad value for initial_file: line 2 is not the row of u cell 0 on this mesh\n"
        assert not second.exists()


class TestMainExitCodes:
    def test_success_writes_outputs(self, tmp_path, capsys):
        cfg = write(tmp_path, BLOB_RUN)
        out = tmp_path / "results"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert (out / "diagnostics.csv").is_file()
        assert (out / "final_state.csv").is_file()
        assert (out / "summary.json").is_file()
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header == (
            "t,mass,entropy,entropy_L,u_env_max,v_env_max,u_env_min,v_env_min,"
            "reaction_diss,diff_diss_bulk,diff_diss_surf,clamp_activations"
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] is True
        assert summary["steps"] == 5
        assert summary["u_star"] > 0
        # one row per record: the initial state and each of the 5 steps
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 6

    def test_each_diagnostics_row_is_its_record_in_field_order(self, tmp_path):
        cfg = write(tmp_path, BLOB_RUN)
        out = tmp_path / "results"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        header, *rows = (out / "diagnostics.csv").read_text().splitlines()
        assert header == (
            "t,mass,entropy,entropy_L,u_env_max,v_env_max,u_env_min,v_env_min,"
            "reaction_diss,diff_diss_bulk,diff_diss_surf,clamp_activations"
        )
        run_cfg = parse_config(cfg)
        mesh, kin, bulk_law, surf_law, state, eq, window, step_cfg = build_problem(run_cfg)
        _, records = solver.run(state, run_cfg.t_final, mesh, kin, eq, bulk_law, surf_law, window, step_cfg)
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            columns, values = row.split(","), astuple(rec)
            assert len(columns) == len(values) == 12
            assert [type(value)(text) for text, value in zip(columns, values)] == list(values)

    @pytest.mark.parametrize("content", [None, b"nx = 3\n\xff\n"], ids=["absent", "not-utf-8"])
    def test_missing_config_path_is_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "run.cfg"
        if content is not None:
            path.write_bytes(content)
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad value for --config: ") and err.count("\n") == 1, err

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "alpha = 0.5\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err

    @pytest.mark.parametrize(
        "removed",
        ["jacobian = fd", "clamp_v_exponent = beta", "max_dt_halvings = 5",
         "clamp_lower = 0.5", "clamp_upper = 0.5", "out_dir = {taken}", "output_every = 0",
         "outputs = plots", "initial_u_file = x", "initial_v_file = x"],
    )
    def test_removed_key_is_exit_2(self, tmp_path, capsys, removed):
        # each value is invalid for the key too, so no run starts either way: out_dir names a file;
        # the two file keys were read only with initial = file
        taken = write(tmp_path, "not a directory\n", name="taken")
        cfg = write(tmp_path, removed.format(taken=taken) + "\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{removed.split()[0]}: unrecognized key" in err

    def test_dt_within_the_clocks_round_off_is_exit_2(self, tmp_path, capsys):
        # dt 1e-15 is below 2e-12 * t_final: run's clock check, reached before the loop
        cfg = write(tmp_path, "nx = 4\nny = 4\ndt = 1e-15\nt_final = 0.05\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: bad value for dt: span 0.05 or dt 1e-15 is within round-off 5e-14\n"
        assert not (tmp_path / "out").exists()

    def test_an_unusable_out_directory_is_exit_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        # --out names a file: a config error before the time loop, not a traceback after it
        cfg = write(tmp_path, BLOB_RUN)
        taken = write(tmp_path, "not a directory\n", name="taken")

        def entered(*args, **kwargs):
            raise AssertionError("solver.run was entered")

        monkeypatch.setattr(solver, "run", entered)
        assert main(["--config", str(cfg), "--out", str(taken), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad value for --out: ") and "Traceback" not in err, err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "text,key",
        [
            ("bulk_law = exponential\nbulk_law_param = 1000\n", "bulk_law"),
            ("surface_law = exponential\nsurface_law_param = 1000\n", "surface_law"),
            ("bulk_law = exponential\nbulk_law_param = -1000\nface_average = harmonic\n", "bulk_law"),
        ],
        ids=["bulk-overflow", "surface-overflow", "bulk-underflow-harmonic"],
    )
    def test_a_law_the_clamp_cannot_bound_is_exit_2_before_the_run(
        self, tmp_path, capsys, monkeypatch, text, key
    ):
        # on the default equilibrium data exp(1000 c) is inf on the caps, and
        # exp(-1000 c) is 0, whose harmonic face mean is 0/0: either would make
        # the first residual NaN, so the law is a config error, found before the run
        cfg = write(tmp_path, "nx = 4\nny = 4\ndt = 1e-3\nt_final = 0.003\n" + text)

        def entered(*args, **kwargs):
            raise AssertionError("solver.run was entered")

        monkeypatch.setattr(solver, "run", entered)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad value for {key}: DiffusionLaw"), err
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,key",
        [
            ("active_edges =\n", "active_edges"),
            ("active_edges = bottom,diagonal\n", "active_edges"),
            ("nx = abc\n", "nx"),
            ("dt = inf\n", "dt"),
            ("theta = 1.5\n", "theta"),
            ("bulk_law = constant\nbulk_law_param = 0\n", "bulk_law_param"),
            ("initial = two-blob\nblob_base_u = 0\n", "blob_base_u"),
            ("initial = two-blob\nblob_width = -0.1\n", "blob_width"),
            ("nx = 2\nny = 1\ninitial = file\ninitial_file = {state}\n", "initial_file"),
        ],
        ids=["no-edge", "unknown-edge", "not-a-number", "not-finite", "theta-above-1",
             "zero-constant-law", "blob-base-u", "blob-width", "file-size"],
    )
    def test_each_config_problem_names_its_key_and_is_exit_2(self, tmp_path, capsys, text, key):
        # the state file holds the 3 bulk cells of a 3x1 mesh, read on a 2x1 mesh
        state = write_state(tmp_path / "state.csv", build_mesh(3, 1, 1.0, 1.0, {"bottom"}), [1, 2, 3], [1, 1, 1])
        cfg = write(tmp_path, text.format(state=state))
        with pytest.raises(ConfigError) as info:
            build_problem(parse_config(cfg))
        assert [key in str(p) for p in info.value.problems] == [True]
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_argument_errors_and_help(self, capsys):
        assert main([]) == 2  # --config is required
        assert "--config" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: bulksurf")

    def test_a_run_without_quiet_prints_its_progress(self, tmp_path, capsys):
        cfg = write(tmp_path, BLOB_RUN)
        out = tmp_path / "results"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("mesh 8x8, 8 surface cells on bottom; equilibrium (u*, v*) = (")
        assert lines[1:4] == [f"wrote {out / name}" for name in
                              ("diagnostics.csv", "final_state.csv", "summary.json")]
        assert lines[4].startswith("completed 5 steps to t = 0.01 in ")
        assert len(lines) == 5

    def test_a_step_that_goes_negative_is_retried_not_a_traceback(self, tmp_path):
        # at the configured dt the first trapezoidal step leaves min u = -40;
        # run retries it with dt halved instead of recording a negative state
        cfg = write(tmp_path, "nx = 16\nny = 16\ninitial = two-blob\nblob_amplitude_1 = 50\n"
                              "blob_width = 0.03\nblob_base_u = 0.01\ntheta = 0.5\ndt = 0.05\n"
                              "t_final = 0.1\n")
        out = tmp_path / "out"
        proc = run_module("--config", str(cfg), "--out", str(out), "--quiet")
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        for name in ("diagnostics.csv", "final_state.csv", "summary.json"):
            assert (out / name).is_file()
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[6]) >= 0 and float(r.split(",")[7]) >= 0 for r in rows)

    def test_solver_failure_is_exit_3_with_partial_outputs(self, tmp_path, capsys):
        # deliberately impossible: one Newton iteration, huge dt, stiff law
        text = BLOB_RUN + (
            "bulk_law = exponential\nbulk_law_param = 3.0\n"
            "dt = 1e6\nt_final = 2e6\nnewton_max_iter = 1\nnewton_tol = 1e-16\n"
            "blob_amplitude_1 = 4.0\nblob_amplitude_2 = 3.0\n"
        )
        cfg = write(tmp_path, text)
        out = tmp_path / "partial"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "solver failed" in capsys.readouterr().err
        assert (out / "diagnostics.csv").is_file()
        assert (out / "final_state.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] is False

    def test_singular_newton_matrix_is_exit_3_with_partial_outputs(self, tmp_path, capsys):
        # dt*J overflows, so SuperLU finds the Newton matrix exactly singular
        # in either precision at every halving of dt
        text = (
            "nx = 4\nny = 4\nalpha = 3.0\nbeta = 2.0\ninitial = constant\n"
            "u0 = 1e100\nv0 = 1e100\ndt = 1e110\nt_final = 2e110\n"
        )
        cfg = write(tmp_path, text)
        out = tmp_path / "singular"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 3
        assert "solver failed" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["completed"] is False
        assert summary["steps"] == 0

    def test_mass_column_conserved(self, tmp_path):
        cfg = write(tmp_path, BLOB_RUN)
        out = tmp_path / "results"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        masses = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(masses - masses[0])) <= 1e-12 * masses[0]

    def test_determinism_bit_identical_csv(self, tmp_path):
        cfg = write(tmp_path, BLOB_RUN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "final_state.csv").read_bytes() == (out2 / "final_state.csv").read_bytes()

    def test_override_flag(self, tmp_path):
        cfg = write(tmp_path, BLOB_RUN)
        out = tmp_path / "results"
        code = main(
            ["--config", str(cfg), "--out", str(out), "--quiet", "--override", "t_final=0.004"]
        )
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.004)

    def test_equilibrium_initial_data_stays_constant(self, tmp_path):
        # constant data that is already the equilibrium of its own mass
        text = (
            "nx = 4\nny = 4\ninitial = constant\nu0 = 1.0\nv0 = 1.0\n"
            "dt = 1e-2\nt_final = 0.05\n"
        )
        cfg = write(tmp_path, text)
        out = tmp_path / "eq"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        entropies = [float(r.split(",")[2]) for r in rows]
        assert all(abs(e) < 1e-13 for e in entropies)

    def test_module_entry_point_reports_config_error(self, tmp_path):
        cfg = write(tmp_path, "alpha = 0.5\n", "bad.cfg")
        proc = run_module("--config", str(cfg))
        assert proc.returncode == 2
        assert "alpha" in proc.stderr

    @pytest.mark.parametrize(
        "text,code,err",
        [
            ("lx = 5e-324\n", 2, "config error: bad value for nx, ny, lx, ly: "
                                 "every faces.measure entry must be a positive normal float"),
            ("lx = 1e-320\n", 2, "config error: bad value for nx, ny, lx, ly: "
                                 "every faces.measure entry must be a positive normal float"),
            ("initial = two-blob\nblob_width = 1e200\n", 2, "config error: bad value for blob_width: "),
            ("initial = two-blob\nblob_width = 1e-160\n", 0, ""),
            ("initial = two-blob\nblob_x2 = 1e300\n", 0, ""),
            ("initial = two-blob\nblob_base_u = 1e200\nbeta = 1e300\n", 2,
             "config error: bad value for initial: equilibrium requires positive finite mass, got inf"),
            ("initial = two-blob\nblob_amplitude_1 = 1e308\nblob_amplitude_2 = 1e308\nblob_x1 = 0.5\n"
             "blob_y1 = 0.5\nblob_x2 = 0.5\nblob_y2 = 0.5\n", 2,
             "config error: bad value for initial: the two-blob u overflows"),
        ],
        ids=["side-to-0", "side-transmissibility-to-inf", "blob-width-huge", "blob-width-tiny",
             "blob-centre-far", "mass-to-inf", "bumps-to-inf"],
    )
    def test_module_entry_point_on_extreme_finite_keys_is_clean(self, tmp_path, text, code, err):
        # -W error turns a RuntimeWarning into a traceback and exit 1, like
        # the ZeroDivisionError of a cell side that rounds to 0
        cfg = write(tmp_path, "nx = 3\nny = 3\nt_final = 0.002\n" + text)
        proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(err) and proc.stderr.count("\n") == (code == 2), proc.stderr

    @pytest.mark.parametrize(
        "text,key",
        [
            ("lx = 5e-324\n", "nx, ny, lx, ly"),
            ("lx = 1e300\nly = 1e300\n", "nx, ny, lx, ly"),
            ("lx = 1e-160\nly = 1e-160\n", "nx, ny, lx, ly"),
            ("nx = 3\nny = 1\nlx = 1.7976931348623157e308\nly = 0.5\nactive_edges = right\n", "nx, ny, lx, ly"),
            ("kappa = 1e-310\n", "initial"),
            ("u0 = 1e-320\nv0 = 1e-320\n", "initial"),
            ("beta = 2\nv0 = 1e-300\n", "initial"),
            ("initial = two-blob\nalpha = 3000\n", "initial"),
            ("dt = 1e-15\nt_final = 0.05\n", "dt"),
            ("bulk_law = exponential\nbulk_law_param = 1000\n", "bulk_law"),
        ],
        ids=["mesh-side-to-0", "mesh-sides-to-inf", "mesh-area-subnormal", "mesh-centre-to-inf",
             "equilibrium-u-star-subnormal", "equilibrium-v-star-subnormal", "window-lower-to-0",
             "window-upper-to-inf", "clock", "bulk-law-slot"],
    )
    def test_every_core_check_the_cli_reaches_is_one_keyed_line(self, tmp_path, text, key):
        # the mesh, equilibrium, window, clock and law checks raise in their own
        # words; the CLI reports each under the key the check reads.  A cell
        # area (1e-160/3)**2 ~ 1.1e-321 is subnormal, and 1/area overflows in the
        # rate.  On the window cases p = (v/v*)**2 underflows to 0 and
        # (u/u*)**3000 overflows
        cfg = write(tmp_path, "nx = 3\nny = 3\nt_final = 0.002\n" + text)
        proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: bad value for {key}: "), proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
        assert not (tmp_path / "out").exists()

    def test_module_entry_point_reports_a_file_of_bare_values_as_a_config_error(self, tmp_path):
        # the former one-value-per-line format, 9 bulk and 3 surface values: exit 2, with no warning
        values = write(tmp_path, "1.0\n" * 12, "values.txt")
        cfg = write(tmp_path, f"nx = 3\nny = 3\ninitial = file\ninitial_file = {values}\n")
        proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("config error: bad value for initial_file: expected the header "
                               "field,index,x,y,value and 12 rows, one per cell\n")

    @pytest.mark.parametrize(
        "exponents", ["alpha = 3\nbeta = 2\n", "alpha = 1\nbeta = 2\n"],
        ids=["own-envelope", "own-envelope-alpha1"],
    )
    def test_module_entry_point_reports_huge_data_as_solver_failure(self, tmp_path, exponents):
        # finite but huge data: the initial record sits on its own envelope and
        # writes no dissipation; then the overflowing rate stops Newton.  With
        # alpha 1 and beta 2 the equilibrium's u* is near 1e200 and v* near
        # 1e100, which solve_equilibrium must reach without overflowing on the
        # way.  A window the data breach: TestRecord in test_diagnostics.py
        cfg = write(tmp_path, "nx = 4\nny = 4\n" + exponents + "initial = constant\n"
                              "u0 = 1e200\nv0 = 1e200\n", "huge.cfg")
        proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 3, proc.stderr
        assert "solver failed: Newton did not converge" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        first = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1].split(",")
        assert first[8] == "0"  # reaction_diss at t = 0
