import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import wedgeflow as wf
from wedgeflow import cli
from conftest import run_fresh


def run_capture(capsys, argv):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    rc, out, _err = run_capture(capsys, ["--help"])
    assert rc == 0
    assert "wedgeflow" in out


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _out, _err = run_capture(capsys, ["frobnicate"])
    assert rc == 2


def test_missing_subcommand_is_usage_error(capsys):
    rc, _out, _err = run_capture(capsys, [])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha-deg", "95"],
        ["solve", "--alpha-deg", "0"],
        ["solve", "--order", "7", "--nelem", "4"],
        ["table", "--nelem", "0"],
        ["fields", "--r1", "0", "--r2", "1", "--nr", "2", "--ntheta", "3", "--nu", "1e-3", "--rho", "1.0"],
        ["table", "--eta-step", "0"],
        ["table", "--eta-step", "-0.1"],
        ["convergence", "--orders", "5..3"],
        ["model", "--orders", "4..2"],
        ["table", "--eta-step", "0.3"],
        ["table", "--eta-step", "5e-324"],
        ["table", "--eta-step", "1e-9"],
        ["fields", "--r1", "nan", "--r2", "2", "--nr", "2", "--ntheta", "3", "--nu", "1e-3", "--rho", "1.0"],
        ["fields", "--r1", "1", "--r2", "nan", "--nr", "2", "--ntheta", "3", "--nu", "1e-3", "--rho", "1.0"],
        ["fields", "--r1", "1", "--r2", "inf", "--nr", "2", "--ntheta", "3", "--nu", "1e-3", "--rho", "1.0"],
        ["fields", "--r1", "1", "--r2", "2", "--nr", "2", "--ntheta", "3", "--nu", "nan", "--rho", "1.0"],
        ["fields", "--r1", "1", "--r2", "2", "--nr", "2", "--ntheta", "3", "--nu", "1e-3", "--rho", "nan"],
        ["fields", "--r1", "1", "--r2", "2", "--nr", "2", "--ntheta", "3", "--nu", "inf", "--rho", "1.0"],
        ["fields", "--r1", "1", "--r2", "2", "--nr", "2", "--ntheta", "3", "--nu", "1e-3", "--rho", "1.0", "--pin", "nan"],
        ["solve", "--newton-tol", "inf"],
        ["solve", "--newton-tol", "nan"],
        ["solve", "--newton-tol", "-1"],
        ["table", "--newton-tol", "inf"],
        ["convergence", "--newton-tol", "nan"],
        ["model", "--newton-tol", "inf"],
        ["check", "--newton-tol", "-1"],
        ["fields", "--r1", "1", "--r2", "2", "--nr", "2", "--ntheta", "3", "--nu", "1e-3", "--rho", "1.0", "--newton-tol", "nan"],
        ["reference", "--re", "30", "--newton-tol", "nan"],
        ["reference", "--re", "30", "--shoot-tol", "inf"],
        ["reference", "--re", "30", "--shoot-tol", "nan"],
        ["convergence", "--shoot-tol", "inf"],
        ["model", "--shoot-tol", "nan"],
    ],
)
def test_bad_arguments_exit_two(capsys, argv):
    rc, out, err = run_capture(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "error" in err.lower() or err == ""
    if "--eta-step" in argv:
        assert "--eta-step" in err


@pytest.mark.parametrize("command", ["solve", "table", "fields", "check"])
def test_bad_order_and_nelem_are_reported_by_the_library(capsys, command):
    # build_mesh checks --nelem before hermite_family checks --order; stdout stays empty
    extra = ["--r1", "1", "--r2", "2", "--nr", "2", "--ntheta", "3", "--nu", "1e-3", "--rho", "1"]
    for flags, message in [
        (["--order", "6"], "hermite_c1 family supports p in (3, 4, 5), got 6"),
        (["--nelem", "0"], "n_elem must be a positive integer, got 0"),
        (["--order", "6", "--nelem", "0"], "n_elem must be a positive integer, got 0"),
    ]:
        argv = [command, *flags, *(extra if command == "fields" else [])]
        assert run_capture(capsys, argv) == (2, "", f"error: {message}\n")


class _Solved(Exception):
    """Raised by a patched `_fem_solve`: the command got past its argument checks."""


def _no_solve(*_args, **_kwargs):
    raise _Solved


def test_fields_rows_are_bounded_before_the_solve(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_fem_solve", _no_solve)
    fields = ["fields", "--r1", "1", "--r2", "2", "--nu", "1e-3", "--rho", "1.0"]
    rc, out, err = run_capture(capsys, fields + ["--nr", "100000", "--ntheta", "100000"])
    assert (rc, out) == (2, "")
    assert err == "error: need nr * ntheta <= 1000000 points, got 10000000000\n"
    with pytest.raises(_Solved):  # 10**6 points pass
        cli.run(fields + ["--nr", "1000", "--ntheta", "1000"])
    # `table` applies the same bound to its steps, with its own message
    rc, out, err = run_capture(capsys, ["table", "--eta-step", "1e-9"])
    assert (rc, out) == (2, "")
    assert err == "error: --eta-step must be at least 1e-06 (at most 1000000 steps), got 1e-09\n"


@pytest.mark.parametrize(
    "argv, listed",
    [
        (["convergence", "--orders", "3", "--nelems", "10,10,10"], "10,10,10"),
        (["convergence", "--orders", "3", "--nelems", "10,10,20"], "10,10,20"),
        (["convergence", "--orders", "3,3", "--output", "json"], "3,3"),
        (["model", "--orders", "1", "--nelems", "8,8,16"], "8,8,16"),
        (["model", "--orders", "2,1,2"], "2,1,2"),
    ],
)
def test_repeated_study_levels_are_a_usage_error_before_any_solve(capsys, monkeypatch, argv, listed):
    for name in ("_fem_solve", "shoot", "model_convergence"):
        monkeypatch.setattr(cli, name, _no_solve)
    rc, out, err = run_capture(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == f"error: repeated value in list {listed!r}\n"


SMALL_SOLVE = ["solve", "--nelem", "8", "--order", "3"]
SMALL_MODEL = ["model", "--orders", "1", "--nelems", "4,8,16"]


@pytest.mark.parametrize(
    "argv, out, written, reason",
    [
        (SMALL_SOLVE, "no-dir/x.csv", "no-dir/x.csv", "No such file or directory"),
        (SMALL_SOLVE, ".", ".", "Is a directory"),
        (SMALL_MODEL, "no-dir/m.csv", "no-dir/m_galerkin_p1.csv", "No such file or directory"),
        # a path ending in a separator names a directory for every command
        (SMALL_SOLVE, "", "", "Is a directory"),
        (SMALL_MODEL, "", "", "Is a directory"),
    ],
)
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, out, written, reason):
    rc, stdout, err = run_capture(capsys, argv + ["--out", os.path.join(tmp_path, out)])
    assert (rc, stdout) == (2, "")
    assert err == f"error: cannot write {os.path.join(tmp_path, written)}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def _unconverged_solution():
    return wf.FemSolution(
        dofmap=wf.build_dofmap(wf.build_mesh(4), wf.hermite_family(3)),
        coeffs=np.zeros(10),
        converged=False,
        newton_iters=2,
        final_residual_norm=0.5,
        norm_history=(1.0, 0.5),
        stop_reason="stagnated",
    )


def test_nonconvergence_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "newton_solve", lambda *a, **k: _unconverged_solution())
    case = ["--re", "30", "--nelem", "4", "--order", "3"]
    for argv in (
        ["solve", *case],
        ["table", *case],
        ["fields", *case, "--r1", "1", "--r2", "2", "--nr", "2", "--ntheta", "3",
         "--nu", "1e-3", "--rho", "1.0"],
        ["convergence", "--re", "30", "--orders", "3", "--nelems", "4,8,16"],
    ):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 1 and out == "", argv
        first, *history = err.splitlines()
        assert "did not converge at p=3, N=4" in first, argv
        assert "stop reason: stagnated" in first, argv
        assert history == ["  iter 0: 1.000e+00", "  iter 1: 5.000e-01"], argv


def test_check_reports_failed_solve(capsys, monkeypatch):
    monkeypatch.setattr(cli, "newton_solve", lambda *a, **k: _unconverged_solution())
    rc, out, _err = run_capture(capsys, ["check", "--re", "30", "--nelem", "4", "--order", "3"])
    assert rc == 1
    assert out.splitlines()[-1] == "FAIL duality pairing identity: solve did not converge"


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--re", "30"],
        ["model", "--shoot-tol", "1e-13"],
        ["model", "--newton-tol", "1e-12"],
        ["reference", "--order", "4"],
        ["reference", "--newton-tol", "1e-12"],
        ["convergence", "--nelem", "40"],
        ["solve", "--shoot-tol", "1e-13"],
        ["check", "--out", "PATH"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, tmp_path, argv):
    path = tmp_path / "out.txt"
    argv = [str(path) if a == "PATH" else a for a in argv]
    rc, out, err = run_capture(capsys, argv)
    assert rc == 2
    assert out == ""
    # the usage shown is the subcommand's, so it lists the flags it does take
    assert err.startswith(f"usage: wedgeflow {argv[0]} [-h]")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert not path.exists()


SOLVE_FLAGS = {"--re", "--alpha-deg", "--order", "--nelem", "--newton-tol", "--output", "--out"}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("solve", SOLVE_FLAGS),
        ("reference", {"--re", "--alpha-deg", "--shoot-tol", "--output", "--out"}),
        ("table", SOLVE_FLAGS | {"--eta-step"}),
        ("convergence", {"--re", "--alpha-deg", "--newton-tol", "--shoot-tol", "--output",
                         "--out", "--orders", "--nelems"}),
        ("model", {"--output", "--out", "--orders", "--nelems", "--formulation"}),
        ("fields", SOLVE_FLAGS | {"--r1", "--r2", "--nr", "--ntheta", "--nu", "--rho", "--pin"}),
        ("check", {"--re", "--alpha-deg", "--order", "--nelem", "--newton-tol"}),
    ],
)
def test_help_lists_the_flags_each_command_reads(capsys, command, flags):
    rc, out, _err = run_capture(capsys, [command, "--help"])
    assert rc == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out)) == flags | {"--help"}


# ------------------------------------------------------------------- solve


def test_solve_pretty_matches_benchmark(capsys):
    rc, out, _err = run_capture(capsys, ["solve", "--re", "30", "--alpha-deg", "15"])
    assert rc == 0
    assert "-9.7822146450e+00" in out  # K at 11 significant digits
    assert "962" in out  # DOF count for N=320 quartics


def test_roundoff_stop_is_noted_on_stderr(capsys):
    # p=3, N=2560 ends on roundoff-level steps with the residual above tol
    argv = ["solve", "--re", "30", "--alpha-deg", "15", "--order", "3", "--nelem", "2560"]
    rc, out, err = run_capture(capsys, argv + ["--output", "csv"])
    assert rc == 0
    header, values = out.splitlines()
    residual = float(dict(zip(header.split(","), values.split(",")))["residual_norm"])
    assert residual > 1e-12
    (note,) = err.splitlines()
    assert "stop reason: roundoff" in note
    assert f"residual {residual:.3e}" in note and "--newton-tol 1e-12" in note
    # a solve that ends on the residual test prints nothing on stderr
    _rc, _out, err = run_capture(capsys, argv[:3] + ["--output", "csv"])
    assert err == ""


@pytest.mark.parametrize("order, max_f", [(3, "3.61209"), (4, "1.1866")])
def test_unresolved_solve_is_a_numerical_failure(capsys, order, max_f):
    """At (-1e5, 30 deg) N=40 is far too coarse: Newton converges to a profile that
    overshoots f(0) = 1, which `solve` reports instead of printing its K."""
    argv = ["solve", "--re", "-100000", "--alpha-deg", "30", "--order", str(order),
            "--nelem", "40"]
    rc, out, err = run_capture(capsys, argv)
    assert (rc, out) == (1, "")
    assert err == (f"numerical failure: max f = {max_f} exceeds f(0) = 1 at p={order}, N=40: "
                   "the mesh does not resolve the solution; use a finer mesh\n")


def test_convergence_reports_a_level_that_solve_rejects(capsys):
    """At (-80, 5 deg) one p=3 element overshoots f(0) = 1: `solve` exits 1 there,
    but a study keeps that pre-asymptotic level as a row, with no note on stderr."""
    case = ["--re", "-80", "--alpha-deg", "5"]
    rc, out, err = run_capture(capsys, ["solve", *case, "--order", "3", "--nelem", "1"])
    assert (rc, out) == (1, "") and err.startswith("numerical failure: max f = 1.01831 exceeds")
    argv = ["convergence", *case, "--orders", "3", "--nelems", "1,2,4", "--output", "csv"]
    rc, out, err = run_capture(capsys, argv)
    assert (rc, err) == (0, "p3: slope_l2 = 3.917, slope_h1 = 3.088\n")  # csv puts the fit there
    assert [line.split(",")[0] for line in out.splitlines()[2:5]] == ["1", "2", "4"]


def test_reverse_flow_is_noted_and_keeps_stdout(capsys):
    """Just past the separation boundary at 15 deg, Newton converges to a profile with
    reverse flow at the walls: the same stdout as before the note, and one stderr line."""
    argv = ["solve", "--re", "57.38", "--alpha-deg", "15", "--order", "4", "--nelem", "160"]
    rc, out, err = run_capture(capsys, argv)
    assert rc == 0
    parent_stdout = [  # as printed before the note existed, each cell right-justified to 18
        ["re", "alpha_deg", "order", "n_elem", "n_dofs", "n_constrained", "newton_iters",
         "residual_norm", "fp1", "K"],
        ["5.7380000000e+01", "1.5000000000e+01", "4", "160", "482", "3", "5",
         "4.3021142204e-15", "7.3598126410e-01", "-1.7776736529e+01"],
    ]
    assert out == "".join("  ".join(v.rjust(18) for v in row) + "\n" for row in parent_stdout)
    (note,) = err.splitlines()
    assert re.fullmatch(
        r"note: reverse flow at the walls \(min f = -5\.56\de-02\) at p=4, N=160; "
        r"the solution is past the separation boundary", note
    )


def test_fields_notes_roundoff_stop_and_keeps_stdout(capsys, monkeypatch):
    argv = ["fields", "--re", "30", "--alpha-deg", "15", "--order", "3", "--nelem", "2560",
            "--r1", "1", "--r2", "2", "--nr", "1", "--ntheta", "2", "--nu", "1e-3", "--rho", "1"]
    rc, out, err = run_capture(capsys, argv)
    assert rc == 0
    (note,) = err.splitlines()
    assert "stop reason: roundoff" in note and "p=3, N=2560" in note
    # the same solution without the roundoff stop prints the same stdout and no note
    solve = cli.newton_solve
    monkeypatch.setattr(
        cli, "newton_solve", lambda *a, **k: dataclasses.replace(solve(*a, **k), stop_reason="residual")
    )
    rc, out_without_note, err = run_capture(capsys, argv)
    assert rc == 0 and err == ""
    assert out == out_without_note


def test_solve_json_echoes_config(capsys):
    rc, out, _err = run_capture(
        capsys,
        ["solve", "--re", "30", "--alpha-deg", "15", "--nelem", "20", "--order", "3", "--output", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    cfg = payload["config"]
    assert cfg["command"] == "solve"
    assert cfg["re"] == 30.0 and cfg["alpha_deg"] == 15.0
    assert cfg["order"] == 3 and cfg["n_elem"] == 20
    (row,) = payload["rows"]
    assert set(row) == {
        "re", "alpha_deg", "order", "n_elem", "n_dofs", "n_constrained",
        "newton_iters", "residual_norm", "fp1", "K",
    }
    assert row["n_constrained"] == 3


def test_reference_json_config_echo(capsys):
    rc, out, _err = run_capture(
        capsys, ["reference", "--re", "30", "--alpha-deg", "15", "--output", "json"]
    )
    assert rc == 0
    cfg = json.loads(out)["config"]
    assert list(cfg.items()) == [
        ("command", "reference"),
        ("re", 30.0),
        ("alpha_deg", 15.0),
        ("shoot_tol", 1e-13),
        ("output", "json"),
        ("out_path", None),
    ]


@pytest.mark.parametrize(
    "argv",
    [
        SMALL_SOLVE,
        ["reference"],
        ["table", "--nelem", "8", "--order", "3", "--eta-step", "0.5"],
        ["convergence", "--orders", "3", "--nelems", "4,8,16"],
        SMALL_MODEL,
        ["fields", "--nelem", "8", "--order", "3", "--r1", "1", "--r2", "2", "--nr", "1",
         "--ntheta", "2", "--nu", "1", "--rho", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_config_echoes_exactly_the_flags_a_command_takes(capsys, argv):
    _rc, usage, _err = run_capture(capsys, [argv[0], "--help"])
    flags = dict.fromkeys(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", usage))  # usage order
    del flags["--help"]
    names = [flag[2:].replace("-", "_") for flag in flags]
    rc, out, _err = run_capture(capsys, argv + ["--output", "json"])
    assert rc == 0
    renamed = {"nelem": "n_elem", "out": "out_path"}
    assert list(json.loads(out)["config"]) == ["command"] + [renamed.get(n, n) for n in names]


def test_solve_closed_form_coarse_mesh(capsys):
    # At Re = 0 the exact K is cos(2a)/(1 - cos(2a)) = 3 + 2 sqrt(3) for a = 15 deg.
    # Four cubic elements land within 4e-3 of it; quartics at N = 64 within 1e-9.
    k_exact = 3.0 + 2.0 * math.sqrt(3.0)
    rc, out, _err = run_capture(
        capsys, ["solve", "--re", "0", "--alpha-deg", "15", "--order", "3", "--nelem", "4", "--output", "json"]
    )
    assert rc == 0
    assert abs(json.loads(out)["rows"][0]["K"] - k_exact) < 5e-3
    rc, out, _err = run_capture(
        capsys, ["solve", "--re", "0", "--alpha-deg", "15", "--order", "4", "--nelem", "64", "--output", "json"]
    )
    assert rc == 0
    assert abs(json.loads(out)["rows"][0]["K"] - k_exact) < 1e-9


# ----------------------------------------------------------- table/reference


def test_table_hits_published_value(capsys):
    rc, out, _err = run_capture(
        capsys, ["table", "--re", "110", "--alpha-deg", "3", "--output", "csv"]
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eta,f"
    assert len(lines) == 12  # header + 11 eta stations
    eta, f = (float(tok) for tok in lines[10].split(","))
    assert eta == 0.9
    assert abs(f - 9.1230421098e-2) < 1e-8


def test_table_row_count_follows_step(capsys):
    rc, out, _err = run_capture(
        capsys,
        ["table", "--re", "0", "--alpha-deg", "15", "--nelem", "8", "--order", "3",
         "--eta-step", "0.25", "--output", "csv"],
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert float(lines[1].split(",")[1]) == 1.0  # f(0) exact


def test_csv_output_is_deterministic(capsys):
    argv = ["table", "--re", "30", "--alpha-deg", "15", "--nelem", "20", "--order", "3", "--output", "csv"]
    _rc, first, _err = run_capture(capsys, argv)
    _rc, second, _err = run_capture(capsys, argv)
    assert first == second


def test_reference_csv_roundtrips_exactly(capsys, oracles):
    ref = oracles[(30.0, 15.0)]
    rc, out, _err = run_capture(capsys, ["reference", "--re", "30", "--alpha-deg", "15"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eta,f,fp,fpp"
    assert len(lines) == 1 + ref.grid.size
    parsed = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    # 17 significant digits round-trip float64 exactly
    np.testing.assert_array_equal(parsed[:, 0], ref.grid)
    np.testing.assert_array_equal(parsed[:, 1:], ref.states[:, :3])


def test_output_file_writing(tmp_path, capsys):
    path = tmp_path / "row.csv"
    rc, out, _err = run_capture(
        capsys,
        ["table", "--re", "0", "--alpha-deg", "15", "--nelem", "8", "--order", "3",
         "--output", "csv", "--out", str(path)],
    )
    assert rc == 0
    assert out == ""
    assert path.read_text().startswith("eta,f\n")


# ---------------------------------------------------------------- studies


def test_convergence_writes_suffixed_reports(tmp_path, capsys):
    out_path = tmp_path / "conv.csv"
    rc, out, _err = run_capture(
        capsys,
        ["convergence", "--re", "30", "--alpha-deg", "15", "--orders", "3",
         "--nelems", "10,20,40", "--out", str(out_path)],
    )
    assert rc == 0
    report = tmp_path / "conv_p3.csv"
    assert report.exists()
    lines = report.read_text().strip().split("\n")
    assert lines[0] == "n_elem,n_nodes,l2_error,h1_error"
    assert len(lines) == 4
    assert "slope_l2" in out  # summary goes to stdout when files carry the data


def test_default_convergence_shows_optimal_rates(capsys):
    # (Re, alpha) = (0, 15 deg), N = 20..320: the p = 4 errors fall to 1e-15,
    # so the oracle must be exact to roundoff for the fit to see h^4
    rc, out, _err = run_capture(capsys, ["convergence", "--output", "json"])
    assert rc == 0
    reports = json.loads(out)["reports"]
    assert abs(reports["p3"]["slope_l2"] - 2.0) <= 0.1
    assert abs(reports["p3"]["slope_h1"] - 2.0) <= 0.1
    assert reports["p4"]["slope_l2"] >= 3.7


def test_model_study_range_syntax(capsys):
    rc, out, err = run_capture(
        capsys,
        ["model", "--orders", "1..2", "--nelems", "4,8,16", "--output", "csv"],
    )
    assert rc == 0
    assert "# galerkin_p1" in out and "# galerkin_p2" in out
    assert "n_elem,n_nodes,l2_error,h1_error" in out
    assert "slope_l2" in err  # summary moves to stderr when csv goes to stdout


def test_model_least_squares_formulation(capsys):
    rc, out, _err = run_capture(
        capsys,
        ["model", "--orders", "2", "--nelems", "4,8,16", "--formulation", "least-squares",
         "--output", "csv"],
    )
    assert rc == 0
    assert "# least_squares_p2" in out


def test_default_least_squares_model_study_is_optimal_at_p5(capsys):
    # every level is refined to roundoff, so the N = 128 error is the
    # discretisation error (a 1e-12 residual tolerance leaves a fitted 5.37)
    argv = ["model", "--formulation", "least-squares", "--orders", "5", "--output", "json"]
    rc, out, _err = run_capture(capsys, argv)
    assert rc == 0
    assert abs(json.loads(out)["reports"]["least_squares_p5"]["slope_l2"] - 6.0) < 0.05


@pytest.mark.parametrize(
    "argv, labels",
    [
        (["model", "--orders", "1..2", "--nelems", "4,8,16"], ["galerkin_p1", "galerkin_p2"]),
        (["convergence", "--re", "30", "--alpha-deg", "15", "--orders", "3,4",
          "--nelems", "10,20,40"], ["p3", "p4"]),
    ],
)
def test_studies_emit_one_json_document(capsys, argv, labels):
    rc, csv_out, csv_err = run_capture(capsys, [*argv, "--output", "csv"])
    assert rc == 0
    rc, out, err = run_capture(capsys, [*argv, "--output", "json"])
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["config"]["command"] == argv[0]
    assert payload["config"]["orders"] == argv[argv.index("--orders") + 1]
    assert list(payload["reports"]) == labels
    # the same rows as the CSV tables (17 digits round-trip) and the same slopes
    tables = {}
    for block in csv_out.split("# ")[1:]:
        label, header, *lines = block.strip().splitlines()
        tables[label] = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    for label, report in payload["reports"].items():
        assert report["rows"] == tables[label]
        summary = f"{label}: slope_l2 = {report['slope_l2']:.3f}, slope_h1 = {report['slope_h1']:.3f}"
        assert summary in csv_err.splitlines()


@pytest.mark.parametrize("command", ["reference", "convergence"])
@pytest.mark.parametrize(
    "reynolds, alpha_deg, min_f, fp1",
    [("-100", "15", "-2.235e+00", "6.986430e+00"), ("-500", "5", "-2.038e+00", "7.847304e+00")],
)
def test_non_physical_oracle_root_is_a_numerical_failure(
    capsys, command, reynolds, alpha_deg, min_f, fp1
):
    argv = [command, "--re", reynolds, "--alpha-deg", alpha_deg]
    if command == "convergence":
        argv += ["--orders", "3", "--nelems", "10,20,40"]
    rc, out, err = run_capture(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("numerical failure: non-physical root")
    assert f"min f = {min_f}" in err and f"f'(1) = {fp1}" in err


# ----------------------------------------------------------------- fields


def test_fields_csv_identities(capsys):
    fields = ["fields", "--re", "30", "--alpha-deg", "15", "--nelem", "40", "--order", "4",
              "--r1", "0.5", "--r2", "1.0", "--nr", "2", "--ntheta", "5",
              "--nu", "1e-3", "--rho", "900", "--pin", "5.0"]
    rc, out, _err = run_capture(capsys, fields + ["--output", "csv"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,theta,u_r,p"
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    assert rows.shape == (10, 4)
    alpha = math.radians(15.0)
    lam = 30.0 * 1e-3 / alpha
    walls = rows[np.abs(np.abs(rows[:, 1]) - alpha) < 1e-12]
    np.testing.assert_allclose(walls[:, 2], 0.0, atol=1e-15)  # no-slip
    center = rows[np.abs(rows[:, 1]) < 1e-12]
    np.testing.assert_allclose(center[:, 0] * center[:, 2], lam, rtol=1e-12)
    # (p - p*) r^2 is constant along each ray
    for theta in np.unique(rows[:, 1]):
        ray = rows[np.abs(rows[:, 1] - theta) < 1e-12]
        vals = (ray[:, 3] - 5.0) * ray[:, 0] ** 2
        np.testing.assert_allclose(vals, vals[0], rtol=1e-10)
    # r-major: every theta, in increasing order, for each r
    np.testing.assert_array_equal(rows[:, 0], np.repeat([0.5, 1.0], 5))
    np.testing.assert_array_equal(rows[:, 1], np.tile(rows[:5, 1], 2))
    assert np.all(np.diff(rows[:5, 1]) > 0)
    # json carries the same numbers; pretty the same to its 11 digits
    rc, out, _err = run_capture(capsys, fields + ["--output", "json"])
    assert rc == 0
    json_rows = [list(row.values()) for row in json.loads(out)["rows"]]
    np.testing.assert_array_equal(json_rows, rows)
    rc, out, _err = run_capture(capsys, fields + ["--output", "pretty"])
    assert rc == 0
    header, *cells = [line.split() for line in out.splitlines()]
    assert header == ["r", "theta", "u_r", "p"]
    assert cells == [[f"{v:.10e}" for v in row] for row in rows.tolist()]
    # solve's integer columns print as integers in every format
    ints = ["order", "n_elem", "n_dofs", "n_constrained", "newton_iters"]
    rc, out, _err = run_capture(capsys, SMALL_SOLVE + ["--output", "json"])
    row = json.loads(out)["rows"][0]
    assert rc == 0 and all(type(row[name]) is int for name in ints)
    assert [row[name] for name in ints[:3]] == [3, 8, 18]
    for output, sep in (("csv", ","), ("pretty", None)):
        rc, out, _err = run_capture(capsys, SMALL_SOLVE + ["--output", output])
        names, values = [line.split(sep) for line in out.splitlines()]
        text = dict(zip(names, values))
        assert rc == 0 and [text[name] for name in ints] == [str(row[name]) for name in ints]


# ------------------------------------------------------------------ check


def test_check_command_passes(capsys):
    rc, out, _err = run_capture(capsys, ["check", "--re", "30", "--alpha-deg", "15", "--nelem", "20"])
    assert rc == 0
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


def test_check_fails_an_unresolved_profile_on_its_own_line(capsys):
    """Where `solve` exits 1 on max f > 1, `check` prints a FAIL line for it and
    still runs its duality and boundary-condition lines."""
    argv = ["check", "--re", "-100000", "--alpha-deg", "30", "--order", "3", "--nelem", "40"]
    rc, out, err = run_capture(capsys, argv)
    assert (rc, err) == (1, "")
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "PASS quadrature exactness", "PASS jacobian finite differences",
        "FAIL profile bounded by f(0) = 1", "FAIL duality pairing identity",
        "PASS boundary conditions",
    ]
    assert "FAIL profile bounded by f(0) = 1: max f = 3.61209" in out.splitlines()


@pytest.mark.parametrize(
    "bcs, wrong_value",
    [
        ({(wf.VALUE, 0): 1.0, (wf.VALUE, 1): 0.0}, None),  # f'(0) left free
        (None, 0.5),  # f'(0) prescribed, but to the wrong value, which lifts f above 1
        (None, -0.5),
    ],
    ids=["two-prescribed", "wrong-slope", "wrong-falling-slope"],
)
def test_check_boundary_conditions_can_fail(capsys, monkeypatch, bcs, wrong_value):
    """`check` compares the solution with `jh_constraints()`, not with the
    map the solve built, so a solve that prescribes other DOFs or values FAILs."""
    real_solve = cli.newton_solve

    def solve_with_wrong_map(problem, mesh, family, opts=None):
        fem = real_solve(problem, mesh, family, opts)
        dofmap = fem.dofmap if bcs is None else wf.build_dofmap(mesh, family, bcs)
        coeffs = fem.coeffs.copy()
        if wrong_value is not None:
            coeffs[dofmap.endpoint(wf.SLOPE, 0)] = wrong_value
        return dataclasses.replace(fem, dofmap=dofmap, coeffs=coeffs)

    monkeypatch.setattr(cli, "newton_solve", solve_with_wrong_map)
    rc, out, err = run_capture(capsys, ["check", "--re", "30", "--nelem", "20"])
    assert (rc, err) == (1, "")
    assert out.splitlines()[-1] == "FAIL boundary conditions: direct DOF reads"
    # a profile above f(0) = 1 FAILs a line of its own; the duality and BC lines still run
    bounded = [line for line in out.splitlines() if line.startswith("FAIL profile bounded")]
    assert bounded == (["FAIL profile bounded by f(0) = 1: max f = 1.00273"]
                       if wrong_value == 0.5 else [])


# ------------------------------------------------------------ import graph

# Runs in a fresh interpreter, so no earlier test has loaded scipy.integrate
# or scipy.linalg.  Prints one JSON line per command: argv, exit code, and
# whether scipy.integrate and scipy.linalg were in sys.modules after the
# command returned.  No command loads either: solves load LAPACK's compiled
# extension by itself, and shooting integrates with its own Taylor method.
IMPORT_GRAPH_SCRIPT = """
import contextlib, io, json, sys
from wedgeflow import cli

def loaded():
    return ["scipy.integrate" in sys.modules, "scipy.linalg" in sys.modules]

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(argv)
    print(json.dumps([argv, rc, *loaded()]))

print(json.dumps([["import"], 0, *loaded()]))
for argv in json.loads(sys.argv[1]):
    run(argv)
"""

CASE = ["--re", "30", "--alpha-deg", "15"]
COMMANDS = [
    ["solve", *CASE, "--order", "3", "--nelem", "20"],
    ["table", *CASE, "--order", "3", "--nelem", "20"],
    ["model", "--orders", "1..2", "--nelems", "8,16,32"],
    ["check", *CASE, "--nelem", "20"],
    ["fields", *CASE, "--nelem", "20", "--r1", "0.5", "--r2", "1", "--nr", "2",
     "--ntheta", "3", "--nu", "1e-3", "--rho", "1000"],
    ["convergence", *CASE, "--orders", "3", "--nelems", "10,20,40"],
    ["reference", *CASE],
]


def test_only_shooting_commands_load_the_integrator():
    proc = run_fresh(IMPORT_GRAPH_SCRIPT, json.dumps(COMMANDS))
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert records == [[argv, 0, False, False] for argv in [["import"], *COMMANDS]]


# Like IMPORT_GRAPH_SCRIPT: after the import and after each command, whether
# numpy.random is in sys.modules.
NUMPY_RANDOM_SCRIPT = """
import ast, contextlib, io, sys
from wedgeflow import cli

def loaded():
    return ["numpy.random" in sys.modules]

print(repr([["import"], 0, *loaded()]))
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(argv)
    print(repr([argv, rc, *loaded()]))
"""


def test_no_command_loads_numpy_random():
    json_solve = ["solve", *CASE, "--order", "3", "--nelem", "20", "--output", "json"]
    proc = run_fresh(NUMPY_RANDOM_SCRIPT, repr([*COMMANDS, json_solve]))
    records = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
    assert records == [[argv, 0, False] for argv in [["import"], *COMMANDS, json_solve]]


# `solve` loads LAPACK without scipy.linalg; a later `import scipy.linalg` in
# the same process must still bind `_flapack` and solve, and a shooting
# command after that import must still work.
SCIPY_LINALG_AFTER_SOLVE_SCRIPT = """
import contextlib, io, json, sys
import numpy as np
from wedgeflow import cli

with contextlib.redirect_stdout(io.StringIO()):
    rc_solve = cli.run(["solve", "--re", "30", "--alpha-deg", "15", "--nelem", "20"])
before = "scipy.linalg" in sys.modules
import scipy.linalg
ab = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 3.0], [1.0, 0.0]])  # [[2, 1], [1, 3]], kl = ku = 1
_lu, _piv, x, info = scipy.linalg.lapack.dgbsv(1, 1, ab, np.array([3.0, 4.0]))
with contextlib.redirect_stdout(io.StringIO()):
    rc_reference = cli.run(["reference", "--re", "30", "--alpha-deg", "15"])
print(json.dumps([rc_solve, before, hasattr(scipy.linalg, "_flapack"), info, x.tolist(), rc_reference]))
"""


def test_scipy_linalg_imports_normally_after_a_solve():
    proc = run_fresh(SCIPY_LINALG_AFTER_SOLVE_SCRIPT)
    assert json.loads(proc.stdout) == [0, False, True, 0, [1.0, 1.0], 0]


# `python -W error::RuntimeWarning -m wedgeflow.cli solve --nelem 4`, run as
# runpy runs it: `import wedgeflow` must leave `cli` (which runpy would warn it
# is about to execute a second time) and argparse unimported.
MODULE_MAIN_SCRIPT = """
import json, runpy, sys, warnings
warnings.simplefilter("error", RuntimeWarning)
import wedgeflow
print(json.dumps(sorted({"wedgeflow.cli", "argparse"} & set(sys.modules))))
runpy.run_module("wedgeflow.cli", run_name="__main__", alter_sys=True)
"""


def test_python_m_cli_runs_without_warnings():
    proc = run_fresh(MODULE_MAIN_SCRIPT, "solve", "--nelem", "4")
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[0] == "[]"


# ----------------------------------------------------------- process entry

# The `wedgeflow` console script's launch, as perfbench's cli_cold runs it.
CLI_LAUNCH = "import sys; from wedgeflow.cli import main; sys.argv[0] = 'wedgeflow'; main()"


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--orders", "3", "--nelems", "10,20,40"],
        ["check", "--nelem", "8"],
        ["solve", "--order", "6"],
    ],
)
def test_process_entry_prints_what_run_prints(capsys, monkeypatch, argv):
    """`main()` sets the thread default and freezes the heap around `run`; the
    process must still print the same bytes and exit with the same code.  The
    child's stdout is block-buffered, as a console script's is, so output that
    exit failed to flush would be missing."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    try:
        proc = run_fresh(CLI_LAUNCH, *argv)
    except subprocess.CalledProcessError as exc:  # a non-zero exit code
        proc = exc
    assert (proc.returncode, proc.stdout, proc.stderr) == run_capture(capsys, argv)
    if argv[0] == "solve":
        assert proc.returncode == 2 and proc.stdout == ""


def test_check_prints_the_same_in_two_fresh_processes():
    """`check` draws its finite-difference probes from a seeded stream."""
    first, second = (run_fresh(CLI_LAUNCH, "check", "--nelem", "8") for _ in range(2))
    assert (first.stdout, first.stderr) == (second.stdout, second.stderr)
    assert "PASS jacobian finite differences" in first.stdout


def run_module_fresh(*argv: str) -> subprocess.CompletedProcess:
    """`python -W error -m wedgeflow.cli ARGV` in a fresh interpreter, whatever its exit code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error", "-m", "wedgeflow.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


FIELDS_PAST_FLOAT64 = ["fields", "--re", "1", "--alpha-deg", "1e-150", "--nelem", "8",
                       "--r1", "1", "--r2", "2", "--nr", "1", "--ntheta", "2",
                       "--nu", "1", "--rho", "1"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["solve", "--alpha-deg", "1e-300"], 2,
         "error: alpha must lie in [7.46e-155, pi/2) rad, got 1.7453292519943295e-302"),
        (["solve", "--alpha-deg", "1e-160"], 2,
         "error: alpha must lie in [7.46e-155, pi/2) rad, got 1.7453292519943295e-162"),
        (FIELDS_PAST_FLOAT64, 1, "numerical failure: column p holds a non-finite value"),
    ],
    ids=["solve-1e-300", "solve-1e-160", "fields-p-overflows"],
)
def test_a_subnormal_angle_or_a_non_finite_result_prints_nothing(argv, code, message):
    """A half-angle whose 4 alpha^2 is subnormal is a usage error; a table column that
    overflows float64 is a numerical failure.  Neither prints a number on stdout, a
    traceback or a warning."""
    proc = run_module_fresh(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message + "\n")


def test_the_smallest_angles_still_solve():
    proc = run_module_fresh("solve", "--alpha-deg", "5e-153", "--nelem", "8", "--output", "csv")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1].endswith(",-2.0000000000000000e+00,6.5656127000234882e+307")


# Clears the three variables OpenBLAS reads, presets those in argv[1], then
# records the environment after `import wedgeflow.cli` and the one that `run`
# sees under `main()`, and whether LAPACK was loaded before `main()`.
THREAD_DEFAULT_SCRIPT = """
import json, os, sys
VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
for name in VARS:
    os.environ.pop(name, None)
os.environ.update(json.loads(sys.argv[1]))
before = dict(os.environ)
from wedgeflow import cli, solver
unchanged = dict(os.environ) == before
lapack_loaded = solver._dgbsv.cache_info().currsize
seen = {}
def stub(argv=None):
    seen.update({name: os.environ.get(name) for name in VARS})
    return 0
cli.run = stub
try:
    cli.main()
except SystemExit as exc:
    code = exc.code
print(json.dumps([unchanged, lapack_loaded, code, seen]))
"""


@pytest.mark.parametrize(
    "preset, seen",
    [
        ({}, {"OPENBLAS_NUM_THREADS": "1"}),
        ({"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "3"}),
        ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}),
        ({"GOTO_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}),
    ],
)
def test_main_defaults_openblas_to_one_thread_unless_a_variable_is_set(preset, seen):
    proc = run_fresh(THREAD_DEFAULT_SCRIPT, json.dumps(preset))
    expected = {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    assert json.loads(proc.stdout) == [True, 0, 0, {**expected, **seen}]


# ----------------------------------------------------------------- helpers


def test_parse_int_list():
    assert cli._parse_int_list("3,4") == [3, 4]
    assert cli._parse_int_list("1..5") == [1, 2, 3, 4, 5]
    assert cli._parse_int_list(" 8, 16 ") == [8, 16]
    assert cli._parse_int_list("2..2") == [2]
    for empty in ("5..3", ",", ""):
        with pytest.raises(ValueError, match="no integers"):
            cli._parse_int_list(empty)
