"""Newton stopping rule: residual tolerance, roundoff-level steps, stagnation."""

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
    fem = wf.solve_model(wf.ModelConfig(degree=3, n_elem=16))
    assert fem.converged and fem.stop_reason == "residual"
