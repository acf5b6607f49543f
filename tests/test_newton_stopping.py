"""Newton stopping rule and precision schedule: residual tolerance, roundoff-level
steps, stagnation, float64 residuals far from the root."""

import numpy as np
import pytest
from conftest import CASES, make_problem
from test_acceptance import K_BENCH

import wedgeflow as wf
from wedgeflow import solver


def _diagonal(n: int, value: float) -> wf.BandedMatrix:
    mat = wf.BandedMatrix(n, 0)
    mat.data[0, :] = value
    return mat


def _floor_loop(max_iter: int):
    """Newton on J (x - 1) plus a residual floor 1e-9 that flips sign per call.

    J = 1e6, so the floor moves the Newton step by only 2e-15: the iterate
    reaches x = 1 to roundoff while the residual never drops below 1e-9.
    """
    n = 3
    jac = _diagonal(n, 1e6)
    calls = []

    def residual(x):
        calls.append(None)
        return 1e6 * (x - 1) + (-1) ** len(calls) * np.longdouble(1e-9)

    return wf.newton_loop(
        residual, lambda _x: jac, np.zeros(n), np.ones(n, dtype=bool),
        wf.SolverOptions(tol=1e-12, max_iter=max_iter),
    )


def test_residual_floor_ends_on_roundoff_step():
    coeffs, converged, iters, rnorm, history, reason = _floor_loop(max_iter=25)
    assert converged and reason == "roundoff"
    assert iters == 2  # one full step, then one step at roundoff level
    assert len(history) == 3 and min(history) > 1e-12
    assert rnorm == history[-1]
    assert np.max(np.abs(coeffs - 1)) <= 1e-14


@pytest.mark.parametrize("max_iter", [1, 2])
def test_max_iter_wins_over_roundoff(max_iter):
    # at max_iter = 2 the last step is at roundoff level, but no further step
    # would be taken anyway, so the loop reports max_iter as before
    _coeffs, converged, iters, _rnorm, history, reason = _floor_loop(max_iter=max_iter)
    assert not converged and reason == "max_iter"
    assert iters == max_iter and len(history) == max_iter + 1


def test_tiny_non_contracting_steps_stagnate():
    # Newton with a Jacobian five times too large creeps toward x = 1 with
    # steps shrinking by 0.8 each: never a contraction by half.
    n = 3
    jac = _diagonal(n, 1.0)

    def residual(x):
        return np.longdouble(0.2) * (x - 1)

    x0 = np.full(n, 1 + 1e-12, dtype=np.longdouble)
    coeffs, converged, iters, rnorm, history, reason = wf.newton_loop(
        residual, lambda _x: jac, x0, np.ones(n, dtype=bool),
        wf.SolverOptions(tol=1e-16, max_iter=25),
    )
    assert not converged and reason == "stagnated"
    # steps 2.0, 1.6, 1.3, 1.02 (all above 1e-13) and then 0.82e-13
    assert iters == 5
    assert rnorm == min(history)  # the best iterate is returned
    assert np.all(np.abs(coeffs - 1) < 1e-12)


def test_exact_residual_stops_on_tolerance():
    n = 4
    jac = _diagonal(n, 2.0)
    _c, converged, iters, rnorm, _h, reason = wf.newton_loop(
        lambda x: 2 * x - 6, lambda _x: jac, np.zeros(n), np.ones(n, dtype=bool),
        wf.SolverOptions(),
    )
    assert converged and reason == "residual" and iters == 1 and rnorm == 0.0


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("case", CASES)
def test_fine_mesh_solves_converge(case, p, oracles):
    # at N = 2560 the residual floor (about 3 N^2 longdouble ulps) sits above
    # tol = 1e-12; the roundoff step test ends these solves after <= 6 steps
    prob = make_problem(*case)
    fem = wf.newton_solve(prob, wf.build_mesh(2560), wf.hermite_family(p))
    assert fem.converged and fem.stop_reason in ("residual", "roundoff")
    assert fem.newton_iters <= 6
    k = wf.compute_K(prob, fem.fp_right())
    assert abs(k - K_BENCH[case]) <= 1e-6 * abs(K_BENCH[case])
    fp_ref = oracles[case].fp_right()
    assert abs(fem.fp_right() - fp_ref) <= 1e-6 * abs(fp_ref)


@pytest.mark.parametrize("n", [320, 640])
@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("case", CASES)
def test_step_test_leaves_residual_converged_solves_alone(case, p, n, monkeypatch):
    prob = make_problem(*case)
    fem = wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(p))
    assert fem.converged and fem.stop_reason == "residual"
    assert fem.newton_iters == 4
    # with the step test switched off the loop is the plain residual test
    monkeypatch.setattr(solver, "ROUNDOFF_STEP", 0.0)
    plain = wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(p))
    assert fem.norm_history == plain.norm_history
    assert np.array_equal(fem.coeffs, plain.coeffs)


def test_model_solve_records_stop_reason():
    fem = wf.solve_model(3, 16)
    assert fem.converged and fem.stop_reason == "residual"


@pytest.mark.parametrize("p", [4, 5])
def test_residual_stop_waits_for_a_small_predicted_step(p, oracles):
    # At N = 1280 the residual falls below tol after three steps while the
    # next step would still be about 1.4e-11, which would leave f'(1) 1.2e-11
    # off and the L2 error above the N = 640 one.  At p = 5 both meshes sit
    # at the ~1e-13 floor of the solve against the oracle (N = 2560 reads
    # 1.0e-13), so there N = 1280 must only stay below that floor.
    case = (-80.0, 5.0)
    prob = make_problem(*case)
    ref = oracles[case]
    fems = {n: wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(p)) for n in (640, 1280)}
    l2 = {n: wf.error_norms(fem, ref, wf.gauss_legendre(p + 4)).l2 for n, fem in fems.items()}
    assert l2[1280] <= max(l2[640], 1e-13)
    assert abs(fems[1280].fp_right() - ref.fp_right()) <= 1e-12


def _record_residual_dtypes(monkeypatch):
    dtypes = []
    assemble = solver.assemble_residual

    def recording(problem, dofmap, coeffs, rule):
        dtypes.append(coeffs.dtype)
        return assemble(problem, dofmap, coeffs, rule)

    monkeypatch.setattr(solver, "assemble_residual", recording)
    return dtypes


@pytest.mark.parametrize("n, n_float64, n_extended", [(320, 3, 2), (2560, 3, 3)])
def test_far_residuals_run_in_float64(n, n_float64, n_extended, monkeypatch):
    dtypes = _record_residual_dtypes(monkeypatch)
    fem = wf.newton_solve(make_problem(30.0, 15.0), wf.build_mesh(n), wf.hermite_family(3))
    assert fem.converged
    assert dtypes == [np.dtype(np.float64)] * n_float64 + [np.dtype(np.longdouble)] * n_extended


@pytest.mark.parametrize("n", [320, 2560])
@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("case", CASES)
def test_mixed_precision_matches_all_longdouble(case, p, n, monkeypatch):
    prob = make_problem(*case)
    dtypes = _record_residual_dtypes(monkeypatch)
    mixed = wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(p))
    assert dtypes[-1] == np.longdouble
    # no step exceeds inf * s: every residual is evaluated in longdouble
    monkeypatch.setattr(solver, "FLOAT64_STEP", np.inf)
    dtypes.clear()
    plain = wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(p))
    assert set(dtypes) == {np.dtype(np.longdouble)}
    assert mixed.converged and plain.converged
    scale = np.maximum(1.0, np.abs(plain.coeffs))
    assert np.all(np.abs(mixed.coeffs - plain.coeffs) <= 1e-13 * scale)
    ends = {(fem.stop_reason, fem.newton_iters) for fem in (mixed, plain)}
    if len(ends) > 1:
        # where the residual floor sits at tol (p = 5, N = 2560), roundoff in
        # the iterate decides whether "residual" fires one step before
        # "roundoff" does
        (reason_a, iters_a), (reason_b, iters_b) = sorted(ends)
        assert (reason_a, reason_b) == ("residual", "roundoff") and iters_b == iters_a + 1
        tol = wf.SolverOptions().tol
        assert max(mixed.final_residual_norm, plain.final_residual_norm) <= 2 * tol


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="longdouble is float64 here"
)
def test_float64_residual_below_tol_is_rechecked_in_longdouble():
    # the root 1 + 2^-60 rounds to 1 in float64, so at x = 1 the float64
    # residual reads 0 while the longdouble one is 1e9 * 2^-60 = 8.7e-10
    n = 2
    root = np.full(n, 1 + np.longdouble(2) ** -60)
    jac = _diagonal(n, 1e9)
    dtypes = []

    def residual(x):
        dtypes.append(x.dtype)
        return 1e9 * (x - root.astype(x.dtype))

    coeffs, converged, iters, rnorm, history, reason = wf.newton_loop(
        residual, lambda _x: jac, np.ones(n), np.ones(n, dtype=bool), wf.SolverOptions()
    )
    assert dtypes == [np.dtype(np.float64), np.dtype(np.longdouble), np.dtype(np.longdouble)]
    assert history[0] == pytest.approx(1e9 * 2.0**-60)
    assert converged and reason == "residual" and iters == 1
    assert rnorm == 0.0 and np.all(coeffs == root)


def test_unconverged_loop_reports_longdouble_residuals():
    # Newton on arctan(x) = 0 diverges from x = 2, so every step is far from
    # the root and the best iterate is the first, evaluated in float64
    dtypes = []

    def residual(x):
        dtypes.append(x.dtype)
        return np.arctan(x)

    def jacobian(x):
        mat = wf.BandedMatrix(1, 0)
        mat.data[0, :] = 1 / (1 + x * x)
        return mat

    coeffs, converged, iters, rnorm, history, reason = wf.newton_loop(
        residual, jacobian, np.full(1, 2.0), np.ones(1, dtype=bool), wf.SolverOptions(max_iter=2)
    )
    assert not converged and reason == "max_iter" and iters == 2
    # iterates 0-2 in float64, iterate 2 again before the max_iter stop, then
    # the returned best iterate 0
    f64, ld = np.dtype(np.float64), np.dtype(np.longdouble)
    assert dtypes == [f64, f64, f64, ld, ld]
    assert len(history) == 3 and history[-1] > history[0]
    assert coeffs.dtype == ld and coeffs[0] == 2
    assert rnorm == float(np.arctan(np.longdouble(2)))
