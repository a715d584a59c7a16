"""End-to-end command-line checks: exit codes, artifacts, config plumbing."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stagwave import cli, core

ALL_COMMANDS = [
    "oscillator",
    "system",
    "wave1d",
    "wave1d-convergence",
    "wave2d",
    "wave3d",
    "maxwell",
    "transport",
    "diffusion",
    "verify",
    "convergence-table",
]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_report(tmp_path, prefix):
    with open(tmp_path / f"{prefix}_report.json") as fh:
        return json.load(fh)


def run_cli(args, tmp_path, prefix):
    return cli.main(args + ["--outdir", str(tmp_path), "--prefix", prefix])


def only_the_cfl_warning(caught) -> bool:
    """Whether the one RuntimeWarning among `caught` is the engine's CFL
    warning ("the march is unstable")."""
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return len(messages) == 1 and "unstable" in messages[0]


# ---------------------------------------------------------------------------
# experiment subcommands
# ---------------------------------------------------------------------------


class TestExperimentCommands:
    def test_oscillator_run_passes_and_writes_artifacts(self, tmp_path):
        code = run_cli(["oscillator", "--steps", "2000"], tmp_path, "osc")
        assert code == 0
        header, rows = read_csv(tmp_path / "osc_series.csv")
        assert header == ["step", "t", "C_n", "C_half"]
        assert len(rows) == 2000  # records start after the first step
        assert rows[0][0] == "1"
        report = read_report(tmp_path, "osc")
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} == {"C_n-drift", "C_half-drift"}
        assert all(c["measured"] <= 1e-12 for c in report["checks"])
        assert report["error_norms"]["max_dev_from_exact"] < 1e-3
        assert report["wall_time_s"] >= 0.0

    def test_oscillator_unstable_step_fails_the_checks(self, tmp_path):
        code = run_cli(
            ["oscillator", "--omega", "1.0", "--dt", "2.3", "--steps", "200"],
            tmp_path,
            "boom",
        )
        assert code == 1
        assert read_report(tmp_path, "boom")["passed"] is False

    def test_oscillator_overflow_writes_report_and_fails(self, tmp_path, capsys):
        # omega*dt = 2.5 grows u past the float range within 300 steps; the
        # run must still end in a report with failed drift checks (exit 1)
        with pytest.warns(RuntimeWarning, match="unstable"):
            code = run_cli(
                ["oscillator", "--omega", "1", "--dt", "2.5", "--steps", "300"],
                tmp_path,
                "overflow",
            )
        assert code == 1
        report = read_report(tmp_path, "overflow")
        assert report["passed"] is False
        drift = {c["name"]: c["passed"] for c in report["checks"]}
        assert drift == {"C_n-drift": False, "C_half-drift": False}
        assert (tmp_path / "overflow_series.csv").is_file()
        assert "[FAIL] C_n-drift" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["oscillator"], ["system", "--preset", "oscillator"]])
    def test_time_step_past_the_float_range_writes_report_and_fails(self, command, tmp_path):
        # (dt/2)**2 overflows a Python float: the Taylor start takes it as
        # inf, so the march runs into inf and NaN, and the run still ends in a
        # report, with the CFL warning as its only RuntimeWarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli([*command, "--dt", "1e308", "--steps", "3"], tmp_path, "huge")
        assert only_the_cfl_warning(caught)
        assert code == 1
        drift = {c["name"]: c["passed"] for c in read_report(tmp_path, "huge")["checks"]}
        assert drift == {"C_n-drift": False, "C_half-drift": False}
        _, rows = read_csv(tmp_path / "huge_series.csv")
        assert [r[0] for r in rows] == ["1", "2", "3"]

    def test_final_time_past_the_float_range_writes_report_and_fails(self, tmp_path):
        # a fixed --nt makes dt = 2e307: the march overflows and the mode's
        # phase at t_final is past the float range, so its error norm is NaN
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["wave2d", "--nx", "8", "--nt", "5", "--t-final", "1e308"],
                           tmp_path, "huge2d")
        assert only_the_cfl_warning(caught)
        assert code == 1
        report = read_report(tmp_path, "huge2d")
        assert report["passed"] is False
        assert np.isnan(report["error_norms"]["max_abs_u"])
        _, rows = read_csv(tmp_path / "huge2d_series.csv")
        assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]

    def test_no_checks_flag_reports_but_never_fails(self, tmp_path):
        code = run_cli(
            ["oscillator", "--dt", "2.3", "--steps", "200", "--no-checks"],
            tmp_path,
            "soft",
        )
        assert code == 0
        report = read_report(tmp_path, "soft")
        assert report["passed"] is True  # exit-code sense only
        assert any(not c["passed"] for c in report["checks"])  # still recorded

    def test_system_command_runs_both_presets(self, tmp_path):
        assert run_cli(["system", "--preset", "oscillator", "--steps", "400"], tmp_path, "so") == 0
        assert run_cli(
            ["system", "--preset", "cmp", "--nx", "33", "--steps", "200"], tmp_path, "sc"
        ) == 0
        report = read_report(tmp_path, "sc")
        assert report["settings"]["preset"] == "cmp"
        assert report["passed"] is True

    def test_wave1d_cmp_writes_error_profile(self, tmp_path):
        code = run_cli(
            ["wave1d", "--case", "cmp", "--nx", "33", "--t-final", "0.5"], tmp_path, "w1"
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "w1_errors.csv")
        assert header == ["x", "Er", "Er_over_dx2"]
        assert len(rows) == 33
        assert float(rows[0][1]) == 0.0  # pinned end has no error
        # scaled column is Er / dx^2 exactly
        x, er, er_s = (np.array([float(r[i]) for r in rows]) for i in range(3))
        np.testing.assert_allclose(er_s, er / (1 / 32) ** 2, rtol=1e-12)

    def test_wave1d_cmp_default_init_is_taylor(self, tmp_path):
        args = ["wave1d", "--case", "cmp", "--nx", "33", "--t-final", "0.5"]
        for prefix, init in (("unset", []), ("taylor", ["--init", "taylor"]),
                             ("exact", ["--init", "exact"])):
            assert run_cli(args + init, tmp_path, prefix) == 0
        series = {p: (tmp_path / f"{p}_series.csv").read_bytes()
                  for p in ("unset", "taylor", "exact")}
        assert series["unset"] == series["taylor"]
        assert series["unset"] != series["exact"]

    def test_wave1d_vmp_runs_named_preset(self, tmp_path):
        code = run_cli(
            ["wave1d", "--case", "vmp", "--material", "rho-jump-down", "--nx", "33",
             "--t-final", "0.5"],
            tmp_path,
            "w1v",
        )
        assert code == 0
        report = read_report(tmp_path, "w1v")
        assert report["settings"]["material"] == "rho-jump-down"
        assert report["artifacts"]["errors_csv"] is None  # no exact solution here

    def test_wave1d_case_material_mismatch_is_a_usage_error(self, tmp_path):
        code = run_cli(
            ["wave1d", "--case", "vmp", "--material", "cmp c=2.0"], tmp_path, "bad"
        )
        assert code == 2

    def test_wave2d_drift_and_mode_error(self, tmp_path):
        code = run_cli(["wave2d", "--nx", "16", "--t-final", "0.2"], tmp_path, "w2")
        assert code == 0
        report = read_report(tmp_path, "w2")
        assert report["passed"] is True
        assert report["error_norms"]["max_abs_u"] < 1e-2

    def test_wave3d_runs_diagonal_materials(self, tmp_path):
        code = run_cli(
            ["wave3d", "--grid", "8", "--materials", "diag3d", "--steps", "60"],
            tmp_path,
            "w3",
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "w3_series.csv")
        assert header == ["step", "t", "C_n", "C_half", "sq_f", "g_cross"]
        assert len(rows) == 60
        assert read_report(tmp_path, "w3")["passed"] is True

    def test_maxwell_audits_stay_constant(self, tmp_path):
        code = run_cli(["maxwell", "--grid", "8", "--steps", "60"], tmp_path, "mx")
        assert code == 0
        header, _ = read_csv(tmp_path / "mx_series.csv")
        assert header[-2:] == ["div_e", "div_h"]
        report = read_report(tmp_path, "mx")
        names = {c["name"] for c in report["checks"]}
        assert {"div_e-audit-constant", "div_h-audit-constant"} <= names
        assert report["passed"] is True

    @pytest.mark.parametrize("command", ["wave3d", "maxwell"])
    def test_record_interval_longer_than_the_run_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        code = run_cli(
            [command, "--grid", "4", "--steps", "3", "--record-every", "5"],
            tmp_path,
            "long",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--record-every" in err and "--steps" in err
        assert not (tmp_path / "long_report.json").exists()

    @pytest.mark.parametrize("command", ["transport", "diffusion"])
    def test_transport_record_interval_longer_than_the_run_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        code = run_cli([command, "--steps", "1", "--record-every", "5"], tmp_path, "long")
        assert code == 2
        err = capsys.readouterr().err
        assert "--record-every" in err and "--steps" in err
        assert not (tmp_path / "long_report.json").exists()
        assert not (tmp_path / "long_series.csv").exists()

    @pytest.mark.parametrize("command", ["wave3d", "maxwell"])
    def test_dt_with_t_final_is_a_usage_error(self, command, tmp_path, capsys):
        code = run_cli(
            [command, "--grid", "6", "--dt", "0.01", "--steps", "10", "--t-final", "1.0"],
            tmp_path,
            "both",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--dt" in err and "--t-final" in err
        assert not (tmp_path / "both_report.json").exists()

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["wave1d", "--nx", "2"], "--nx"),
            (["wave1d", "--nx", "1"], "--nx"),
            (["wave1d", "--case", "vmp", "--nx", "1"], "--nx"),
            (["system", "--preset", "cmp", "--nx", "2"], "--nx"),
            (["system", "--preset", "cmp", "--nx", "1"], "--nx"),
            (["wave2d", "--nx", "1"], "--nx"),
            (["wave2d", "--ny", "1"], "--ny"),
            (["wave3d", "--grid", "1"], "--grid"),
            (["maxwell", "--grid", "1"], "--grid"),
            (["wave1d-convergence", "--k", "0..2"], "--k"),
            (["convergence-table", "--case", "wave2d-mode", "--k", "0..2"], "--k"),
            (["convergence-table", "--case", "bump-p2-q2", "--k", "4,4"], "--k"),
            (["wave1d-convergence", "--final", "-1"], "--final"),
            (["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--final", "0"],
             "--final"),
            (["convergence-table", "--case", "maxwell-cavity", "--k", "2..3", "--final", "-1"],
             "--final"),
            (["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--final", "banana"],
             "--final"),
            (["convergence-table", "--case", "wave3d-cavity", "--k", "2..3",
              "--final", "half-period"], "--final"),
            (["oscillator", "--steps", "10", "--bogus"], "--bogus"),
            (["verify", "mimetic3d", "--sizes", "1"], "--sizes"),
            (["verify", "adjoint", "--sizes", "8", "1"], "--sizes"),
            (["wave1d", "--case", "vmp", "--material", "linear rho -2"], "--material"),
            (["wave1d-convergence", "--case", "linear rho -2"], "--case"),
            (["convergence-table", "--case", "linear tau -3"], "--case"),
            (["wave1d", "--t-final", "1e308"], "--t-final"),
            (["wave1d", "--case", "vmp", "--t-final", "1e308"], "--t-final"),
            (["wave2d", "--t-final", "1e308"], "--t-final"),
            (["wave3d", "--grid", "4", "--t-final", "1e308"], "--t-final"),
            (["maxwell", "--grid", "4", "--t-final", "1e308"], "--t-final"),
            (["wave1d", "--material", "cmp c=1e308"], "--material"),
            (["wave1d-convergence", "--case", "cmp", "--final", "1e308"], "--final"),
            (["convergence-table", "--case", "wave2d-mode", "--final", "1e308"], "--final"),
            (["convergence-table", "--case", "wave2d-mode", "--final", "1e308", "--jobs", "2"],
             "--final"),
            (["convergence-table", "--case", "bump-p2-q2", "--final", "1e308"], "--final"),
            # finite CFL step counts above cli.MAX_CFL_STEPS
            (["wave1d", "--t-final", "1e300"], "--t-final"),
            (["wave1d", "--case", "vmp", "--t-final", "1e300"], "--t-final"),
            (["wave1d-convergence", "--case", "cmp", "--final", "1e300", "--k", "4..5"],
             "--final"),
            (["wave1d-convergence", "--case", "bump-p2-q2", "--final", "1e300", "--k", "4..5"],
             "--final"),
            (["wave1d-convergence", "--case", "cmp", "--f", "200", "--k", "4..5"], "--f"),
            (["convergence-table", "--case", "bump-p2-q2", "--f", "200", "--jobs", "2"], "--f"),
            (["wave2d", "--t-final", "1e300"], "--t-final"),
            (["wave3d", "--grid", "4", "--t-final", "1e300"], "--t-final"),
            (["maxwell", "--grid", "4", "--t-final", "1e12"], "--t-final"),
            (["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--final", "1e12"],
             "--final"),
            (["convergence-table", "--case", "wave3d-cavity", "--k", "2..3", "--final", "1e300",
              "--jobs", "2"], "--final"),
            (["convergence-table", "--case", "maxwell-cavity", "--k", "2..3", "--final", "1e12"],
             "--final"),
            # 2D stars whose CFL time step is zero or undefined
            (["wave2d", "--nx", "8", "--a11", "inf"], "--a11"),
            (["wave2d", "--nx", "8", "--a", "inf"], "--a"),
            (["wave2d", "--nx", "8", "--a", "1e-320"], "--a"),
            # a safety factor so small that the CFL time step rounds to zero
            (["wave1d", "--nx", "8", "--safety", "5e-324"], "--safety"),
            (["wave1d", "--case", "vmp", "--nx", "8", "--safety", "5e-324"], "--safety"),
            (["wave2d", "--nx", "8", "--safety", "5e-324"], "--safety"),
            (["wave3d", "--grid", "4", "--safety", "5e-324", "--t-final", "1"], "--safety"),
            (["wave3d", "--grid", "4", "--safety", "5e-324", "--steps", "2"], "--safety"),
            (["maxwell", "--grid", "4", "--safety", "5e-324", "--t-final", "1"], "--safety"),
            (["system", "--preset", "cmp", "--safety", "5e-324", "--steps", "3"], "--safety"),
            (["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--safety", "5e-324"],
             "--safety"),
            (["convergence-table", "--case", "wave3d-cavity", "--k", "2..3", "--safety",
              "5e-324"], "--safety"),
            (["convergence-table", "--case", "maxwell-cavity", "--k", "2..3", "--safety",
              "5e-324"], "--safety"),
            # a sweep whose coarsest level takes no CFL step
            (["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--final", "5e-324",
              "--safety", "1e300"], "--final/--safety"),
            # a sweep level whose error is exactly zero: no order to measure
            (["convergence-table", "--case", "maxwell-cavity", "--k", "1..2", "--final",
              "1e-300"], "--final"),
            (["convergence-table", "--case", "wave2d-mode", "--k", "2..3", "--final", "1e-12"],
             "--final"),
            (["convergence-table", "--case", "bump-p2-q2", "--k", "1..2", "--final", "1e-300"],
             "--final"),
            (["wave1d-convergence", "--case", "cmp", "--k", "2..3", "--final", "1e-300"],
             "--final"),
            # an oscillator step omega * dt / 2 past the float range
            (["oscillator", "--omega", "1e308", "--dt", "10", "--steps", "3"], "--omega"),
            (["system", "--preset", "oscillator", "--omega", "inf"], "--omega/--dt"),
            (["system", "--preset", "oscillator", "--omega", "1e308", "--dt", "10"],
             "--omega/--dt"),
            # a 1D material spec with a token that is not a number
            (["wave1d", "--case", "vmp", "--material", "bump x 1"], "'x'"),
            (["wave1d", "--case", "vmp", "--material", "linear rho abc"], "'abc'"),
            (["wave1d-convergence", "--case", "piecewise-linear a .75 1 2"], "'a'"),
            (["convergence-table", "--case", "linear tau x"], "'x'"),
            # a linear spec with more numbers than its one slope
            (["wave1d", "--case", "vmp", "--material", "linear rho 1 2"], "'linear rho 1 2'"),
            (["wave1d", "--material", "cmp c=1.2.3"], "'1.2.3'"),
            # a radial transport profile with no cell centre on its plateau
            (["transport", "--velocity", "expand", "--n", "2"], "--n"),
            # a transport or diffusion time step that is zero or infinite
            (["transport", "--speed", "inf"], "--courant/--speed"),
            (["transport", "--courant", "inf"], "--courant/--speed"),
            (["transport", "--speed", "1e-320"], "--courant/--speed"),
            (["diffusion", "--courant", "inf"], "--courant/--diffusivity"),
            (["diffusion", "--diffusivity", "1e-320"], "--courant/--diffusivity"),
            (["diffusion", "--diffusivity", "inf"], "--courant/--diffusivity"),
            # a size no grid accepts, for a suite that builds no 3D grid
            (["verify", "wave1d-sbp", "--sizes", "1", "--trials", "5"], "--sizes"),
        ],
    )
    def test_out_of_range_input_is_a_usage_error(self, args, flag, tmp_path, capsys):
        assert run_cli(args, tmp_path, "bad") == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "bad_report.json").exists()

    @pytest.mark.parametrize(
        "args, text",
        [
            (["wave1d", "--case", "vmp", "--material", "bump x 1"],
             "bad number 'x' in material spec 'bump x 1'"),
            (["wave1d", "--case", "vmp", "--material", "linear rho abc"],
             "bad number 'abc' in material spec 'linear rho abc'"),
            (["wave1d", "--case", "vmp", "--material", "linear rho 1 2"],
             "linear takes at most one slope, got 'linear rho 1 2'"),
            (["wave1d", "--case", "vmp", "--material", "linear rho inf"],
             "linear needs a finite slope, got 'linear rho inf'"),
            (["wave1d-convergence", "--case", "piecewise-linear a .75 1 2"],
             "bad number 'a' in material spec 'piecewise-linear a .75 1 2'"),
            (["convergence-table", "--case", "linear tau x"],
             "bad number 'x' in material spec 'linear tau x'"),
            (["wave1d", "--case", "vmp", "--material", "linear rho -2"],
             "--material: material properties must be positive everywhere"),
            (["wave1d-convergence", "--case", "linear rho -2"],
             "--case: material properties must be positive everywhere"),
            (["wave3d", "--materials", "bogus"],
             "unknown 3D material 'bogus'; use one of ['diag3d', 'scalar3d', 'trivial3d']"),
            (["maxwell", "--materials", "bogus"],
             "unknown 3D material 'bogus'; use one of ['diag3d', 'scalar3d', 'trivial3d']"),
            (["transport", "--n", "10"],
             "--n 10: the square-wave profile needs at least 20 cells"),
            (["transport", "--velocity", "expand", "--n", "2"],
             "--n 2: no cell centre lies inside the radial profile's plateau |x| < 1/2, "
             "so it holds no mass"),
            (["verify", "nonsense"],
             "unknown verify suite 'nonsense'; use one of "
             "['adjoint', 'mimetic3d', 'wave1d-sbp', 'all']"),
            (["verify", "adjoint", "--sizes", "8", "1"],
             "--sizes: need at least 2 cells per axis"),
            (["verify", "wave1d-sbp", "--sizes", "1"],
             "--sizes: need at least 2 cells per axis"),
        ],
    )
    def test_usage_error_of_a_module_parser_is_its_whole_text(self, args, text, tmp_path,
                                                               capsys):
        # wave1d, wave3d, positivity and verify raise ValueError; the command
        # prints that text, with the flag it names, as its one stderr line
        assert run_cli(args, tmp_path, "bad") == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    @pytest.mark.parametrize("slope", ["inf", "-inf", "nan"])
    def test_non_finite_linear_slope_is_refused_before_any_arithmetic(self, slope, tmp_path,
                                                                      capsys):
        spec = f"linear rho {slope}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["wave1d", "--case", "vmp", "--material", spec], tmp_path,
                           "bad") == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert repr(spec) in err and "RuntimeWarning" not in err

    def test_transport_unit_courant_is_bit_exact(self, tmp_path):
        code = run_cli(["transport", "--steps", "10"], tmp_path, "tr")
        assert code == 0
        report = read_report(tmp_path, "tr")
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["unit-courant-bit-exact"]["passed"] is True
        assert by_name["mass-audit"]["measured"] == 0.0

    def test_transport_over_courant_fails_the_guard(self, tmp_path):
        code = run_cli(
            ["transport", "--courant", "1.2", "--steps", "40"], tmp_path, "trb"
        )
        assert code == 1
        by_name = {c["name"]: c for c in read_report(tmp_path, "trb")["checks"]}
        assert by_name["guard-held"]["passed"] is False

    @pytest.mark.parametrize("kind", ["collapse", "expand"])
    def test_transport_radial_fields_keep_positivity(self, tmp_path, kind):
        code = run_cli(
            ["transport", "--velocity", kind, "--steps", "150"], tmp_path, kind
        )
        assert code == 0
        report = read_report(tmp_path, kind)
        assert report["summary"]["guaranteed"] is True

    def test_diffusion_spike_conserves_mass(self, tmp_path):
        code = run_cli(["diffusion", "--steps", "300"], tmp_path, "df")
        assert code == 0
        report = read_report(tmp_path, "df")
        assert report["passed"] is True
        assert report["summary"]["mass_final"] == pytest.approx(
            report["summary"]["mass_initial"], rel=1e-13
        )


# ---------------------------------------------------------------------------
# convergence commands
# ---------------------------------------------------------------------------


class TestConvergenceCommands:
    def test_cmp_generic_final_is_second_order(self, tmp_path):
        code = run_cli(["wave1d-convergence", "--case", "cmp", "--k", "4..6"], tmp_path, "cv")
        assert code == 0
        report = read_report(tmp_path, "cv")
        assert 1.9 <= report["orders"]["endpoint"] <= 2.1
        header, rows = read_csv(tmp_path / "cv_table.csv")
        assert header == ["k", "Nx", "dx", "Er", "p"]
        assert [r[0] for r in rows] == ["4", "5", "6"]
        assert rows[0][4] == ""  # no order for the first level
        assert (tmp_path / "cv_errors.csv").exists()

    def test_cmp_half_period_superconverges(self, tmp_path):
        code = run_cli(
            ["wave1d-convergence", "--case", "cmp", "--k", "4..6", "--final", "half-period"],
            tmp_path,
            "cvh",
        )
        assert code == 0
        report = read_report(tmp_path, "cvh")
        assert report["orders"]["endpoint"] >= 3.5
        assert report["checks"][0]["name"] == "order-superconvergent"

    def test_vmp_preset_keeps_the_order_floor(self, tmp_path):
        code = run_cli(
            ["wave1d-convergence", "--case", "rho-jump-up", "--k", "4..5",
             "--final", "1.0"],
            tmp_path,
            "cvj",
        )
        assert code == 0
        report = read_report(tmp_path, "cvj")
        assert report["orders"]["endpoint"] >= 1.0
        assert {c["name"] for c in report["checks"]} == {"order-floor"}

    def test_vmp_rejects_named_final_times(self, tmp_path):
        code = run_cli(
            ["wave1d-convergence", "--case", "bump-p1-q1", "--final", "full-period"],
            tmp_path,
            "cvx",
        )
        assert code == 2

    def test_convergence_table_2d_case(self, tmp_path):
        code = run_cli(
            ["convergence-table", "--case", "wave2d-mode", "--k", "4..5"], tmp_path, "t2"
        )
        assert code == 0
        header, rows = read_csv(tmp_path / "t2_table.csv")
        assert [r[1] for r in rows] == ["16", "32"]  # Nx = 2^k cells
        assert 1.8 <= float(rows[1][4]) <= 2.2
        assert read_report(tmp_path, "t2")["checks"] == []  # tables never gate

    def test_parallel_jobs_give_identical_tables(self, tmp_path):
        for case in ("cmp", "bump-p2-q2"):
            assert run_cli(
                ["convergence-table", "--case", case, "--k", "4..6"], tmp_path, "seq"
            ) == 0
            assert run_cli(
                ["convergence-table", "--case", case, "--k", "4..6", "--jobs", "2"],
                tmp_path,
                "par",
            ) == 0
            seq = (tmp_path / "seq_table.csv").read_bytes()
            par = (tmp_path / "par_table.csv").read_bytes()
            assert seq == par

    @pytest.mark.parametrize("command", ["wave1d-convergence", "convergence-table"])
    def test_cmp_sweep_marches_each_level_once(self, command, tmp_path, monkeypatch):
        marched = []
        run_system = core.run_system

        def counted(f0, *args, **kwargs):
            marched.append(len(f0))
            return run_system(f0, *args, **kwargs)

        monkeypatch.setattr(core, "run_system", counted)
        assert run_cli([command, "--case", "cmp", "--k", "5,4,6"], tmp_path, "once") == 0
        assert marched == [33, 17, 65]
        _, rows = read_csv(tmp_path / "once_table.csv")
        assert [r[0] for r in rows] == ["5", "4", "6"]
        # a material level is compared with the next finer one, which is marched once too
        marched.clear()
        assert run_cli([command, "--case", "bump-p2-q2", "--k", "5,4,6"], tmp_path,
                       "once") == 0
        assert marched == [33, 17, 65, 129]
        _, rows = read_csv(tmp_path / "once_table.csv")
        assert [r[0] for r in rows] == ["5", "4", "6"]

    @pytest.mark.parametrize("command, case, ks", [
        ("convergence-table", "bump-p2-q2", "4,6"),
        ("wave1d-convergence", "rho-jump-up", "6,4"),
    ])
    def test_material_levels_need_not_be_consecutive(self, command, case, ks, tmp_path):
        assert run_cli([command, "--case", case, "--k", ks], tmp_path, "gap") == 0
        assert run_cli([command, "--case", case, "--k", "4..6"], tmp_path, "all") == 0
        _, gap = read_csv(tmp_path / "gap_table.csv")
        _, every = read_csv(tmp_path / "all_table.csv")
        by_k = {r[0]: r[:4] for r in every}  # k, Nx, dx, Er; p pairs other levels
        assert [r[:4] for r in gap] == [by_k[k] for k in ks.split(",")]

    def test_material_refused_on_a_finer_level_before_any_march(self, tmp_path, monkeypatch,
                                                                capsys):
        # tau = 1 - 1.01 x samples positive on the dual points of k = 4 and 5, not of k = 6
        monkeypatch.setattr(core, "run_system", lambda *args, **kwargs: pytest.fail("marched"))
        args = ["convergence-table", "--case", "linear tau -1.01", "--k", "4..6"]
        assert run_cli(args, tmp_path, "late") == 2
        assert "--case" in capsys.readouterr().err

    def test_material_sweep_starts_from_the_given_mode(self, tmp_path):
        args = ["wave1d-convergence", "--case", "bump-p2-q2", "--k", "4..6"]
        assert run_cli(args, tmp_path, "m1") == 0
        assert run_cli(args + ["--mode-m", "3"], tmp_path, "m3") == 0
        m1, m3 = read_report(tmp_path, "m1"), read_report(tmp_path, "m3")
        assert m3["settings"]["mode_m"] == 3
        # the third mode is resolved by fewer points per wavelength: larger errors
        assert all(e3 > e1 for e1, e3 in zip(m1["summary"]["errors"], m3["summary"]["errors"]))


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def test_cli_imports_verify_and_positivity_only_for_the_commands_that_use_them(tmp_path):
    # a fresh interpreter, so that no other test's imports count
    script = (
        "import sys\n"
        "import stagwave.cli as cli\n"
        "lazy = ('stagwave.verify', 'stagwave.positivity')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        f"out = ['--outdir', {str(tmp_path)!r}]\n"
        "print([cli.main([*argv, *out]) for argv in (['verify', 'all'], ['transport'], "
        "['diffusion'])])\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-2:] == ["[0, 0, 0]", "['stagwave.verify', 'stagwave.positivity']"]


class TestVerifyCommand:
    def test_mimetic3d_suite_passes(self, tmp_path, capsys):
        assert cli.main(["verify", "mimetic3d", "--sizes", "8", "16"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["suite"] == "mimetic3d"
        assert summary["passed"] is True
        names = [c["name"] for c in summary["checks"]]
        # exactness on both boundaries, round trips, and all six operator orders
        assert "curl-grad-zero-periodic-16" in names
        assert "star-div-curl-zero-pinned-8" in names
        assert "round-trip-diagonal-16" in names
        assert sum(n.startswith("order-") for n in names) == 6

    def test_adjoint_suite_passes(self, capsys):
        assert cli.main(["verify", "adjoint", "--sizes", "6", "--trials", "20"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"] is True
        assert {c["name"] for c in summary["checks"]} == {
            "adjoint-trivial-6",
            "adjoint-variable-scalar-6",
            "adjoint-variable-diagonal-6",
        }
        assert all(c["measured"] <= 1e-12 for c in summary["checks"])

    def test_broken_sign_fails_by_design(self, capsys):
        code = cli.main(
            ["verify", "adjoint", "--sizes", "6", "--trials", "5", "--broken-sign"]
        )
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"] is False
        assert summary["checks"][0]["measured"] > 0.1  # an O(1) residual, not noise

    def test_wave1d_sbp_suite_passes(self, capsys):
        assert cli.main(["verify", "wave1d-sbp", "--trials", "50"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"] is True
        assert {c["name"] for c in summary["checks"]} == {
            "sbp-random-trials",
            "sbp-generic-checker",
        }

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert cli.main(["verify", "nonsense"]) == 2
        assert cli.main(["verify"]) == 2

    def test_summary_file_written_when_outdir_given(self, tmp_path, capsys):
        code = cli.main(
            ["verify", "wave1d-sbp", "--trials", "10", "--outdir", str(tmp_path)]
        )
        assert code == 0
        on_disk = json.loads((tmp_path / "verify_wave1d_sbp.json").read_text())
        assert on_disk == json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# config files, schema dumps, determinism
# ---------------------------------------------------------------------------


class TestConfigAndSchema:
    def test_config_file_merges_and_flags_win(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nomega = 2.0\nsteps = 400\ndt = 0.05\n")
        code = run_cli(
            ["oscillator", "--config", str(ini), "--dt", "0.005"], tmp_path, "cfg"
        )
        assert code == 0
        settings = read_report(tmp_path, "cfg")["settings"]
        assert settings["omega"] == 2.0  # from the file
        assert settings["steps"] == 400  # from the file
        assert settings["dt"] == 0.005  # flag beats file

    def test_config_booleans_and_dashed_keys(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nexact-init = yes\nno-checks = true\nsteps = 50\n")
        assert run_cli(["oscillator", "--config", str(ini)], tmp_path, "cb") == 0
        assert read_report(tmp_path, "cb")["settings"]["steps"] == 50

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[run]\nbogus = 1\n")
        assert cli.main(["oscillator", "--config", str(ini)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_duplicate_key_across_sections_is_a_usage_error(self, tmp_path):
        ini = tmp_path / "dup.ini"
        ini.write_text("[a]\nsteps = 5\n[b]\nsteps = 6\n")
        assert cli.main(["oscillator", "--config", str(ini)]) == 2

    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "badval.ini"
        ini.write_text("[run]\ndt = banana\n")
        assert cli.main(["oscillator", "--config", str(ini)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, key",
        [("transport", "velocity"), ("wave1d", "case"), ("wave1d", "init"), ("wave2d", "init")],
    )
    def test_config_value_outside_choices_is_a_usage_error(self, command, key, tmp_path, capsys):
        ini = tmp_path / "choice.ini"
        ini.write_text(f"[run]\n{key} = bogus\n")
        assert run_cli([command, "--config", str(ini)], tmp_path, "choice") == 2
        assert f"argument --{key}: invalid choice: 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "choice_report.json").exists()

    def test_config_positional_and_boolean_keys(self, tmp_path, capsys):
        ini = tmp_path / "verify.ini"
        ini.write_text("[run]\nsuite = wave1d-sbp\ntrials = 10\nbroken-sign = yes\n")
        assert cli.main(["verify", "--config", str(ini)]) == 1  # the broken sign must fail
        summary = json.loads(capsys.readouterr().out)
        assert (summary["suite"], summary["trials"], summary["passed"]) == (
            "wave1d-sbp", 10, False
        )
        # a suite named on the command line wins over the file's
        assert cli.main(["verify", "adjoint", "--sizes", "6", "--config", str(ini)]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert (summary["suite"], summary["trials"]) == ("adjoint", 10)

    @pytest.mark.parametrize(
        "ini, args",
        [
            ("[run]\nsizes = 6\n", ["verify", "adjoint"]),
            ("[run]\nsizes = 6\nsuite = adjoint\n", ["verify"]),
        ],
        ids=["suite-on-command-line", "sizes-before-suite-in-file"],
    )
    def test_config_list_key_does_not_take_the_positional(self, ini, args, tmp_path, capsys):
        path = tmp_path / "verify.ini"
        path.write_text(ini)
        assert cli.main([*args, "--config", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["suite"], summary["sizes"], summary["passed"]) == ("adjoint", [6], True)

    def test_config_list_key_and_flag_override(self, tmp_path):
        ini = tmp_path / "w3.ini"
        ini.write_text("[run]\ngrid = 4\nsteps = 3\nmodes = 1 2 1\n")
        assert run_cli(["wave3d", "--config", str(ini)], tmp_path, "file") == 0
        assert read_report(tmp_path, "file")["settings"]["modes"] == [1, 2, 1]
        args = ["wave3d", "--config", str(ini), "--modes", "2", "1", "1"]
        assert run_cli(args, tmp_path, "flag") == 0
        assert read_report(tmp_path, "flag")["settings"]["modes"] == [2, 1, 1]

    def test_bad_flag_value_is_a_usage_error(self, tmp_path, capsys):
        assert cli.main(["oscillator", "--dt", "-0.5"]) == 2
        assert cli.main(["wave1d-convergence", "--k", "8..4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_every_command_dumps_a_schema(self, command, capsys):
        assert cli.main([command, "--schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["command"] == command
        names = {o["name"] for o in schema["options"]}
        assert {"seed", "outdir", "prefix", "config", "no_checks"} <= names
        for option in schema["options"]:
            assert option["flags"] and option["type"]

    def test_outdir_env_var_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STAGWAVE_OUTDIR", str(tmp_path / "envdir"))
        assert cli.main(["oscillator", "--steps", "50", "--prefix", "env"]) == 0
        assert (tmp_path / "envdir" / "env_series.csv").exists()
        # an explicit --outdir still wins over the environment
        assert run_cli(["oscillator", "--steps", "50"], tmp_path, "exp") == 0
        assert (tmp_path / "exp_series.csv").exists()

    def test_identical_configs_give_byte_identical_csv(self, tmp_path):
        args = ["wave1d", "--case", "cmp", "--nx", "33", "--t-final", "0.5"]
        assert run_cli(args, tmp_path / "a", "run") == 0
        assert run_cli(args, tmp_path / "b", "run") == 0
        for stem in ("run_series.csv", "run_errors.csv"):
            assert (tmp_path / "a" / stem).read_bytes() == (
                tmp_path / "b" / stem
            ).read_bytes()

    def test_report_json_is_deterministic_up_to_wall_time(self, tmp_path):
        args = ["transport", "--steps", "25"]
        assert run_cli(args, tmp_path / "a", "run") == 0
        assert run_cli(args, tmp_path / "b", "run") == 0
        reports = []
        for sub in ("a", "b"):
            report = json.loads((tmp_path / sub / "run_report.json").read_text())
            report.pop("wall_time_s")
            report.pop("artifacts")  # holds the differing directories
            reports.append(report)
        assert reports[0] == reports[1]
