import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bulksurf import build_mesh, solver
from bulksurf.cli import (
    BadValue,
    ConfigError,
    MissingKey,
    NonPositiveInitialData,
    build_problem,
    initial_state,
    main,
    parse_config,
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


def run_module(*args):
    """``python -m bulksurf.cli`` with args in a process of its own, on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "bulksurf.cli", *args],
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
        assert cfg.outputs == ("diagnostics", "final_state", "summary")

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
        assert any(isinstance(p, NonPositiveInitialData) for p in info.value.problems)

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
        assert any(isinstance(p, MissingKey) for p in info.value.problems)

    def test_file_initial_requires_paths(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            parse_config(write(tmp_path, "initial = file\n"))
        missing = {p.key for p in info.value.problems if isinstance(p, MissingKey)}
        assert {"initial_u_file", "initial_v_file"} <= missing

    def test_overrides_apply_before_validation(self, tmp_path):
        path = write(tmp_path, "nx = 4\n")
        cfg = parse_config(path, overrides=["nx=9", "kappa = 2.5"])
        assert cfg.nx == 9
        assert cfg.kappa == 2.5

    def test_clamp_bounds_must_come_together(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "clamp_lower = 0.1\n"))
        cfg = parse_config(write(tmp_path, "clamp_lower = 0.1\nclamp_upper = 5\n", "ok.cfg"))
        assert cfg.clamp_lower == 0.1 and cfg.clamp_upper == 5.0


class TestInitialData:
    def test_two_blob_background_is_balanced(self, tmp_path):
        cfg = parse_config(write(tmp_path, BLOB_RUN))
        mesh = build_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly, cfg.active_edges)
        state = initial_state(cfg, mesh)
        base_v = (cfg.blob_base_u**cfg.alpha / cfg.kappa) ** (1 / cfg.beta)
        assert np.min(state.u) >= cfg.blob_base_u  # positive bumps only add
        np.testing.assert_allclose(state.v, base_v)

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

    def test_file_initial_round_trip(self, tmp_path):
        mesh = build_mesh(3, 2, 1.0, 1.0, {"bottom"})
        u = np.linspace(1.0, 2.0, mesh.n_bulk)
        v = np.linspace(0.5, 0.8, mesh.n_surface)
        u_path = tmp_path / "u.txt"
        v_path = tmp_path / "v.txt"
        np.savetxt(u_path, u)
        np.savetxt(v_path, v)
        cfg = parse_config(
            write(
                tmp_path,
                f"nx = 3\nny = 2\ninitial = file\ninitial_u_file = {u_path}\n"
                f"initial_v_file = {v_path}\n",
            )
        )
        state = initial_state(cfg, mesh)
        np.testing.assert_allclose(state.u, u, rtol=1e-15)
        np.testing.assert_allclose(state.v, v, rtol=1e-15)

    def test_file_initial_rejects_nonpositive(self, tmp_path):
        mesh = build_mesh(2, 1, 1.0, 1.0, {"bottom"})
        np.savetxt(tmp_path / "u.txt", [1.0, -1.0])
        np.savetxt(tmp_path / "v.txt", [1.0, 1.0])
        cfg = parse_config(
            write(
                tmp_path,
                f"nx = 2\nny = 1\ninitial = file\n"
                f"initial_u_file = {tmp_path / 'u.txt'}\ninitial_v_file = {tmp_path / 'v.txt'}\n",
            )
        )
        with pytest.raises(ConfigError):
            initial_state(cfg, mesh)
        # non-finite values are reported under the key of the file that holds them
        np.savetxt(tmp_path / "u.txt", [1.0, 2.0])
        for bad in ("nan", "inf"):
            (tmp_path / "v.txt").write_text(f"1.0\n{bad}\n")
            with pytest.raises(ConfigError) as info:
                initial_state(cfg, mesh)
            assert [(type(p), p.key) for p in info.value.problems] == [(BadValue, "initial_v_file")]

    def test_missing_v_file_names_its_own_key(self, tmp_path):
        mesh = build_mesh(2, 1, 1.0, 1.0, {"bottom"})
        np.savetxt(tmp_path / "u.txt", [1.0, 2.0])
        cfg = parse_config(
            write(
                tmp_path,
                f"nx = 2\nny = 1\ninitial = file\n"
                f"initial_u_file = {tmp_path / 'u.txt'}\n"
                f"initial_v_file = {tmp_path / 'missing_v.txt'}\n",
            )
        )
        with pytest.raises(ConfigError) as info:
            initial_state(cfg, mesh)
        keys = {p.key for p in info.value.problems if isinstance(p, BadValue)}
        assert keys == {"initial_v_file"}
        assert "missing_v.txt" in str(info.value)

    def test_build_problem_window_defaults_from_data(self, tmp_path):
        cfg = parse_config(write(tmp_path, BLOB_RUN))
        mesh, kin, bulk_law, surf_law, state, eq, window, step_cfg = build_problem(cfg)
        assert window.u_star == eq.u_star
        assert 0 < window.lower <= window.upper
        assert surf_law.kind == "surface_cross"
        assert step_cfg.dt == cfg.dt


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

    def test_missing_config_path_is_exit_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "alpha = 0.5\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err

    @pytest.mark.parametrize(
        "removed", ["jacobian = fd", "clamp_v_exponent = beta", "max_dt_halvings = 5"]
    )
    def test_removed_key_is_exit_2(self, tmp_path, capsys, removed):
        cfg = write(tmp_path, removed + "\n")
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{removed.split()[0]}: unrecognized key" in err

    def test_dt_within_the_clocks_round_off_is_exit_2(self, tmp_path, capsys):
        # dt 1e-15 is below 2e-12 * t_final: run's clock check, reached before the loop
        cfg = write(tmp_path, "nx = 4\nny = 4\ndt = 1e-15\nt_final = 0.05\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: span 0.05 or dt 1e-15 is within round-off 5e-14\n"
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
        assert err.startswith("config error: bad value for out_dir: ") and "Traceback" not in err, err
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
            ("outputs = diagnostics,plots\n", "outputs"),
            ("nx = abc\n", "nx"),
            ("dt = inf\n", "dt"),
            ("theta = 1.5\n", "theta"),
            ("bulk_law = constant\nbulk_law_param = 0\n", "bulk_law_param"),
            ("initial = two-blob\nblob_base_u = 0\n", "blob_base_u"),
            ("initial = two-blob\nblob_width = -0.1\n", "blob_width"),
            ("clamp_lower = 2\nclamp_upper = 1\n", "clamp_upper"),
            ("nx = 2\nny = 1\ninitial = file\ninitial_u_file = {u}\ninitial_v_file = {v}\n",
             "initial_u_file"),
        ],
        ids=["no-edge", "unknown-output", "not-a-number", "not-finite", "theta-above-1",
             "zero-constant-law", "blob-base-u", "blob-width", "clamp-order", "file-size"],
    )
    def test_each_config_problem_names_its_key_and_is_exit_2(self, tmp_path, capsys, text, key):
        # the u file holds 3 values for the 2 bulk cells of a 2x1 mesh
        np.savetxt(tmp_path / "u.txt", [1.0, 2.0, 3.0])
        np.savetxt(tmp_path / "v.txt", [1.0, 1.0])
        cfg = write(tmp_path, text.format(u=tmp_path / "u.txt", v=tmp_path / "v.txt"))
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
        with np.errstate(all="ignore"):
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

    def test_output_cadence(self, tmp_path):
        cfg = write(tmp_path, BLOB_RUN + "output_every = 2\n")
        out = tmp_path / "results"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        # records at steps 0,2,4 plus the final one
        assert len(rows) == 4

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
        "exponents,window",
        [(s, w) for s in ("alpha = 3\nbeta = 2\n", "alpha = 1\nbeta = 2\n")
         for w in ("", "clamp_lower = 0.5\nclamp_upper = 0.9\n")],
        ids=["own-envelope", "breached", "own-envelope-alpha1", "breached-alpha1"],
    )
    def test_module_entry_point_reports_huge_data_as_solver_failure(self, tmp_path, exponents, window):
        # finite but huge data: the initial record sits on its own envelope and
        # writes no dissipation, or, under a tighter window, breaches it and
        # reports the reaction dissipation in units of u*^alpha, which overflow
        # to -inf; then the overflowing rate stops Newton.  With alpha 1 and
        # beta 2 the equilibrium's u* is near 1e200 and v* near 1e100, which
        # solve_equilibrium must reach without overflowing on the way
        cfg = write(tmp_path, "nx = 4\nny = 4\n" + exponents + "initial = constant\n"
                              "u0 = 1e200\nv0 = 1e200\n" + window, "huge.cfg")
        proc = run_module("--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 3, proc.stderr
        assert "solver failed: Newton did not converge" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        first = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1].split(",")
        assert first[8] == ("-inf" if window else "0")  # reaction_diss at t = 0
