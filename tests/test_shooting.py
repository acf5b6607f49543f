import math

import numpy as np
import pytest
from conftest import CASES, make_problem

import wedgeflow as wf
from wedgeflow import shooting
from wedgeflow.shooting import integrate

# Regression pins for the converged initial curvature s = f''(0).
S_PINS = {
    (30.0, 15.0): -5.446287625332322,
    (110.0, 3.0): -4.1928240295022405,
    (-80.0, 5.0): -0.7985673510358869,
}


def closed_form_re0(alpha, eta):
    c2a = math.cos(2 * alpha)
    return (np.cos(2 * alpha * np.asarray(eta)) - c2a) / (1 - c2a)


def test_poiseuille_limit():
    # alpha -> 0 reduces the system to f''' = 0 with solution 1 - eta^2
    prob = wf.JhProblem(0.0, 1e-8)
    ref = wf.shoot(prob)
    assert abs(ref.s + 2.0) < 1e-12
    assert np.max(np.abs(ref.states[:, 0] - (1 - ref.grid**2))) < 1e-13
    assert np.max(np.abs(ref.states[:, 1] + 2 * ref.grid)) < 1e-13
    assert np.max(np.abs(ref.states[:, 2] + 2.0)) < 1e-13


def test_closed_form_re0_alpha15():
    # one Taylor step spans [0, 1] here; DOP853 at the same tolerances was 2.3e-13 off
    alpha = math.radians(15.0)
    prob = wf.JhProblem(0.0, alpha)
    ref = wf.shoot(prob)
    assert ref.states.shape == (4097, 3)
    f_exact = closed_form_re0(alpha, ref.grid)
    assert np.max(np.abs(ref.states[:, 0] - f_exact)) < 1e-14
    s_exact = -4 * alpha**2 / (1 - math.cos(2 * alpha))
    assert abs(ref.s - s_exact) < 1e-14


@pytest.mark.parametrize("case", CASES)
def test_first_integral_is_conserved(case, oracles):
    # f''' + 2 Re alpha f f' + 4 alpha^2 f' = 0 is the eta-derivative of
    # f'' + Re alpha f^2 + 4 alpha^2 f, which is thus constant on any exact solution
    ref = oracles[case]
    re_alpha, a2 = ref.problem.reynolds * ref.problem.alpha, 4 * ref.problem.alpha**2
    f, fp, fpp = ref.states.T
    first_integral = fpp + re_alpha * f**2 + a2 * f
    assert np.max(np.abs(first_integral - first_integral[0])) < 1e-12
    # each step's cubic Taylor coefficient is the right-hand side over 3!
    coeffs = ref.trajectory.coeffs
    rhs = -2 * re_alpha * coeffs[:, 0] * coeffs[:, 1] - a2 * coeffs[:, 1]
    np.testing.assert_allclose(6 * coeffs[:, 3], rhs, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("case", CASES)
def test_s_regression_pins(case, oracles):
    assert abs(oracles[case].s - S_PINS[case]) < 1e-9


def test_trajectory_f_half(oracles):
    ref = oracles[(30.0, 15.0)]
    f, _, _ = wf.evaluate_reference(ref, 0.5)
    assert abs(f - 4.9758671435e-1) < 1e-9


@pytest.mark.parametrize("case", CASES)
def test_reference_invariants(case, oracles):
    ref = oracles[case]
    assert ref.states[0, 0] == 1.0
    assert ref.states[0, 1] == 0.0
    assert ref.states[0, 2] == ref.s
    assert abs(ref.states[-1, 0]) <= ref.achieved_tol
    assert ref.achieved_tol <= 1e-13
    assert ref.grid.size == 4097


def test_self_convergence(oracles):
    ref = oracles[(30.0, 15.0)]
    tight = wf.shoot(make_problem(30.0, 15.0), end_tol=1e-13, rtol=0.5e-13, atol=0.5e-14)
    assert np.max(np.abs(ref.states[:, 0] - tight.states[:, 0])) < 1e-11


def test_evaluate_reference_grid_points_exact(oracles):
    ref = oracles[(110.0, 3.0)]
    idx = [0, 17, 2048, 4096]
    f, fp, fpp = wf.evaluate_reference(ref, ref.grid[idx])
    np.testing.assert_array_equal(f, ref.states[idx, 0])
    np.testing.assert_array_equal(fp, ref.states[idx, 1])
    np.testing.assert_array_equal(fpp, ref.states[idx, 2])


@pytest.mark.parametrize("case", CASES)
def test_evaluate_reference_on_grid_is_states(case, oracles):
    ref = oracles[case]
    f, fp, fpp = wf.evaluate_reference(ref, ref.grid)
    np.testing.assert_array_equal(np.column_stack([f, fp, fpp]), ref.states)


def test_shoot_integrates_once_per_secant_evaluation(monkeypatch):
    calls = []
    real_solve_ivp = shooting.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        sol = real_solve_ivp(*args, **kwargs)
        calls.append((args[1], sol))
        return sol

    monkeypatch.setattr(shooting, "solve_ivp", counting_solve_ivp)
    ref = wf.shoot(make_problem(30.0, 15.0))
    # every secant evaluation integrates a new s, and none is integrated twice
    s_values = [s for s, _sol in calls]
    assert len(calls) >= 3
    assert len(set(s_values)) == len(s_values)
    # the result is the best secant pass itself, not a fresh integration
    best = min(calls, key=lambda call: abs(call[1].y[0, -1]))
    assert ref.s == best[0]
    assert ref.trajectory is best[1].sol


def test_evaluate_reference_interpolation_error():
    alpha = math.radians(15.0)
    ref = wf.shoot(wf.JhProblem(0.0, alpha))
    rng = np.random.default_rng(2)
    eta = rng.uniform(0.0, 1.0, 10_000)
    f, _, _ = wf.evaluate_reference(ref, eta)
    assert np.max(np.abs(f - closed_form_re0(alpha, eta))) < 1e-12


def test_evaluate_reference_bounds(oracles):
    ref = oracles[(30.0, 15.0)]
    with pytest.raises(ValueError):
        wf.evaluate_reference(ref, 1.1)
    with pytest.raises(ValueError):
        wf.evaluate_reference(ref, [-0.2, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluate_reference_rejects_non_finite(oracles, bad):
    ref = oracles[(30.0, 15.0)]
    for eta in (bad, [0.5, bad]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            wf.evaluate_reference(ref, eta)


def test_monotone_profile(oracles):
    ref = oracles[(30.0, 15.0)]
    assert np.all(np.diff(ref.states[:, 0]) < 0.0)


def test_interpolated_ode_residual(oracles):
    ref = oracles[(30.0, 15.0)]
    prob = ref.problem
    eta = np.linspace(0.01, 0.99, 1000)
    step = 1e-5
    f, fp, _ = wf.evaluate_reference(ref, eta)
    _, _, fpp_up = wf.evaluate_reference(ref, eta + step)
    _, _, fpp_dn = wf.evaluate_reference(ref, eta - step)
    fppp = (fpp_up - fpp_dn) / (2 * step)
    resid = fppp + 2 * prob.reynolds * prob.alpha * f * fp + 4 * prob.alpha**2 * fp
    assert np.max(np.abs(resid)) < 1e-6


def test_end_tol_validation():
    for bad in (1e-14, 0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="end_tol"):
            wf.shoot(make_problem(30.0, 15.0), end_tol=bad)


def test_integrate_argument_validation():
    prob = make_problem(30.0, 15.0)
    with pytest.raises(ValueError):
        integrate(prob, -2.0, rtol=0.0)
    for bad in (math.nan, math.inf):  # these made the integrator spin without end
        for kw in ({"rtol": bad}, {"atol": bad}):
            with pytest.raises(ValueError, match="positive and finite"):
                integrate(prob, -2.0, **kw)
            with pytest.raises(ValueError, match="positive and finite"):
                wf.shoot(prob, **kw)
    # below 100 eps the steps shrink to roundoff; at 1e-300 the integration crawls
    with pytest.raises(ValueError, match="rtol must be at least 100 eps"):
        wf.shoot(prob, rtol=1e-300, atol=1e-300)
    with pytest.raises(ValueError, match="rtol must be at least 100 eps"):
        integrate(prob, -2.0, rtol=0.5 * shooting.MIN_RTOL)


def test_integration_failure_reports_location():
    # runaway growth overflows the Taylor coefficients partway through the interval
    prob = wf.JhProblem(-1e4, math.radians(15.0))
    with pytest.raises(wf.ShootingError) as exc:
        integrate(prob, 100.0)
    assert "eta" in str(exc.value)


@pytest.mark.parametrize(
    "case, min_f, fp1",
    [((-100.0, 15.0), "-2.235e+00", "6.986430e+00"), ((-500.0, 5.0), "-2.038e+00", "7.847304e+00")],
)
def test_non_physical_root_is_refused(case, min_f, fp1):
    # the secant iteration converges here to a root with reverse flow (f < 0)
    with pytest.raises(wf.ShootingError) as exc:
        wf.shoot(make_problem(*case))
    message = str(exc.value)
    assert message.startswith("non-physical root")
    assert f"min f = {min_f}" in message and f"f'(1) = {fp1}" in message
    assert exc.value.history  # the secant history is attached
