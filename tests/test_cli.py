import json
import math

import numpy as np
import pytest

import wedgeflow as wf
from wedgeflow import cli


def run_capture(capsys, argv):
    rc = wf.run(argv)
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
    ],
)
def test_bad_arguments_exit_two(capsys, argv):
    rc, out, err = run_capture(capsys, argv)
    assert rc == 2
    assert out == ""
    assert "error" in err.lower() or err == ""
    if "--eta-step" in argv:
        assert "--eta-step" in err


def test_nonconvergence_exits_one(capsys, monkeypatch):
    mesh = wf.build_mesh(4)
    family = wf.hermite_family(3)
    fake = wf.FemSolution(
        mesh=mesh,
        family=family,
        coeffs=np.zeros(10),
        converged=False,
        newton_iters=2,
        final_residual_norm=0.5,
        norm_history=(1.0, 0.5),
    )
    monkeypatch.setattr(cli, "newton_solve", lambda *a, **k: fake)
    rc, _out, err = run_capture(capsys, ["solve", "--re", "30", "--nelem", "4", "--order", "3"])
    assert rc == 1
    assert "did not converge" in err
    assert "iter 0" in err


# ------------------------------------------------------------------- solve


def test_solve_pretty_matches_benchmark(capsys):
    rc, out, _err = run_capture(capsys, ["solve", "--re", "30", "--alpha-deg", "15"])
    assert rc == 0
    assert "-9.7822146450e+00" in out  # K at 11 significant digits
    assert "962" in out  # DOF count for N=320 quartics


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
        ("order", 4),
        ("n_elem", 320),
        ("newton_tol", 1e-12),
        ("shoot_tol", 1e-13),
        ("output", "json"),
        ("out_path", None),
    ]


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


# ----------------------------------------------------------------- fields


def test_fields_csv_identities(capsys):
    rc, out, _err = run_capture(
        capsys,
        ["fields", "--re", "30", "--alpha-deg", "15", "--nelem", "40", "--order", "4",
         "--r1", "0.5", "--r2", "1.0", "--nr", "2", "--ntheta", "5",
         "--nu", "1e-3", "--rho", "900", "--pin", "5.0", "--output", "csv"],
    )
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


# ------------------------------------------------------------------ check


def test_check_command_passes(capsys):
    rc, out, _err = run_capture(capsys, ["check", "--re", "30", "--alpha-deg", "15", "--nelem", "20"])
    assert rc == 0
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


# ----------------------------------------------------------------- helpers


def test_parse_int_list():
    assert cli._parse_int_list("3,4") == [3, 4]
    assert cli._parse_int_list("1..5") == [1, 2, 3, 4, 5]
    assert cli._parse_int_list(" 8, 16 ") == [8, 16]
    assert cli._parse_int_list("2..2") == [2]
    for empty in ("5..3", ",", ""):
        with pytest.raises(ValueError, match="no integers"):
            cli._parse_int_list(empty)
