"""The Taylor-series pass (`shooting.solve_ivp`) against SciPy's DOP853 at its
tightest settings, and the shooting oracle's import footprint."""

import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import CASES, make_problem, run_fresh
from scipy.integrate import solve_ivp as scipy_solve_ivp
from test_shooting import S_PINS

import wedgeflow as wf
from wedgeflow import shooting

RUNS = [(*case, s) for case in (*CASES, (0.0, 15.0)) for s in (-2.0, -2.5, -3.7)]
RUNS += [(*case, s) for case, s in S_PINS.items()]
GRID = np.linspace(0.0, 1.0, 1001)


def scipy_dop853(problem, s, rtol=2.3e-14, atol=1e-16):
    """SciPy's DOP853 pass from (1, 0, s); rtol 2.3e-14 is just above its 100 eps floor."""
    c = 2 * problem.reynolds * problem.alpha
    a2 = 4 * problem.alpha**2

    def fun(_t, y):
        return [y[1], y[2], -c * y[0] * y[1] - a2 * y[1]]

    return scipy_solve_ivp(
        fun, (0.0, 1.0), [1.0, 0.0, s], method="DOP853", rtol=rtol, atol=atol, dense_output=True
    )


def ours(problem, s, rtol=shooting.DEFAULT_RTOL, atol=shooting.DEFAULT_ATOL):
    return shooting.solve_ivp(problem, s, rtol, atol)


@pytest.mark.parametrize("reynolds, alpha_deg, s", RUNS)
def test_agrees_with_scipy_dop853(reynolds, alpha_deg, s):
    problem = make_problem(reynolds, alpha_deg)
    sol = ours(problem, s)
    np.testing.assert_array_equal(sol.sol(sol.sol.ts), sol.y)  # step ends are dense output
    theirs = scipy_dop853(problem, s).sol(GRID)
    diff = np.abs(sol.sol(GRID) - theirs).max(axis=1)
    # 1e-12 in f, f' and f'' (the anchors' f'' stays below 10); where a
    # component grows larger, SciPy's own error does too: off the root at
    # (-80, 5 deg), f'' reaches 18 and SciPy's first integral drifts by 9e-13.
    scale = np.maximum(10.0, np.abs(theirs).max(axis=1))
    assert np.all(diff <= 1e-13 * scale), diff


def test_agrees_with_scipy_at_loose_tolerances():
    problem = make_problem(30.0, 15.0)
    loose = ours(problem, -5.0, rtol=1e-6, atol=1e-9)
    assert loose.nfev < ours(problem, -5.0).nfev  # longer steps...
    diff = np.abs(loose.sol(GRID) - scipy_dop853(problem, -5.0).sol(GRID))
    assert diff.max() < 1e-6  # ...within the asked tolerance


def test_step_choice_follows_ode_solution():
    # Two steps that disagree where they meet: f = 2 tau on [0, 0.5], f = 5 on
    # [0.5, 1].  As in SciPy's OdeSolution, a shared end takes the earlier step,
    # and points outside [0, 1] the first or last one.
    coeffs = np.array([[0.0, 2.0, 0.0], [5.0, 0.0, 0.0]])
    trajectory = shooting.DenseTrajectory(np.array([0.0, 0.5, 1.0]), coeffs)
    t = np.array([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
    np.testing.assert_array_equal(
        trajectory(t), [[-1.0, 0.0, 0.5, 1.0, 5.0, 5.0, 5.0], [2.0] * 4 + [0.0] * 3, [0.0] * 7]
    )
    np.testing.assert_array_equal(trajectory(0.5), [1.0, 2.0, 0.0])


def test_failure_where_scipy_fails_raises_shooting_error_quietly():
    # runaway growth: SciPy's step shrinks below 10 ulps of t near eta = 0.1,
    # and the Taylor coefficients overflow there too
    problem = wf.JhProblem(-1e4, math.radians(15.0))
    with np.errstate(all="ignore"):  # SciPy's pass overflows on its way to failing
        theirs = scipy_dop853(problem, 100.0, shooting.DEFAULT_RTOL, shooting.DEFAULT_ATOL)
    assert not theirs.success and 0.09 < theirs.t[-1] < 0.11
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wf.ShootingError) as exc:
            shooting.integrate(problem, 100.0)
    eta = float(re.fullmatch(r"integration failed near eta = (\S+): .*", str(exc.value))[1])
    assert 0.09 < eta < 0.11


# Runs in a fresh interpreter, so no earlier test has imported scipy.integrate.
SHOOT_SCRIPT = """
import hashlib, json, math, sys
import wedgeflow as wf

ref = wf.shoot(wf.JhProblem(30.0, math.radians(15.0)))
digest = hashlib.sha256(ref.states.tobytes()).hexdigest()
print(json.dumps([ref.s, digest, "scipy.integrate" in sys.modules]))
"""


def test_shoot_loads_no_scipy_integrate(oracles):
    ref = oracles[(30.0, 15.0)]
    s, digest, loaded = json.loads(run_fresh(SHOOT_SCRIPT).stdout)
    assert [s, digest] == [ref.s, hashlib.sha256(ref.states.tobytes()).hexdigest()]
    assert not loaded
