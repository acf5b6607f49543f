"""The in-repo DOP853 (`shooting.solve_ivp`) repeats SciPy's arithmetic, so
its steps, states, evaluation count and dense output match
`scipy.integrate.solve_ivp(method="DOP853", dense_output=True)` bit for bit."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from conftest import CASES, make_problem, run_fresh
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp
from test_shooting import S_PINS

import wedgeflow as wf
from wedgeflow import shooting

RUNS = [(*case, s) for case in (*CASES, (0.0, 15.0)) for s in (-2.0, -2.5, -3.7)]
RUNS += [(*case, s) for case, s in S_PINS.items()]


def integrate_both(problem, s, rtol=shooting.DEFAULT_RTOL, atol=shooting.DEFAULT_ATOL):
    def fun(_t, y):
        return shooting.ivp_rhs(problem, y)

    ours = shooting.solve_ivp(fun, (0.0, 1.0), [1.0, 0.0, s], rtol=rtol, atol=atol)
    theirs = scipy_solve_ivp(
        fun, (0.0, 1.0), [1.0, 0.0, s], method="DOP853", rtol=rtol, atol=atol, dense_output=True
    )
    return ours, theirs


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("reynolds, alpha_deg, s", RUNS)
def test_bit_identical_to_scipy(reynolds, alpha_deg, s):
    ours, theirs = integrate_both(make_problem(reynolds, alpha_deg), s)
    assert ours.success and theirs.success
    assert ours.message == theirs.message
    assert ours.nfev == theirs.nfev
    assert same_bits(ours.t, theirs.t)
    assert same_bits(ours.y, theirs.y)
    grid = np.linspace(0.0, 1.0, shooting.DEFAULT_DENSE_POINTS)
    points = np.random.default_rng(len(ours.t)).uniform(0.0, 1.0, 1000)
    for eta in (grid, points, ours.t):  # ours.t: every step boundary
        assert same_bits(ours.sol(eta), theirs.sol(eta))
    assert same_bits(ours.sol(points[0]), theirs.sol(points[0]))


def test_bit_identical_to_scipy_at_loose_tolerances():
    ours, theirs = integrate_both(make_problem(30.0, 15.0), -5.0, rtol=1e-6, atol=1e-9)
    assert len(ours.t) < 10  # a few long steps, so the interpolants matter
    assert ours.nfev == theirs.nfev and same_bits(ours.y, theirs.y)
    points = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
    assert same_bits(ours.sol(points), theirs.sol(points))


def test_step_choice_follows_ode_solution():
    # Two steps that disagree where they meet: y = t / 0.5 on [0, 0.5], y = 5 on
    # [0.5, 1].  As in SciPy's OdeSolution, a shared end takes the earlier step,
    # and points outside [0, 1] the first or last one.
    F = np.zeros((2, 7, 1))
    F[0, 0] = 1.0  # the rise over step 0
    trajectory = shooting.DenseTrajectory(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [5.0]]), F)
    t = np.array([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
    np.testing.assert_array_equal(trajectory(t), [[-1.0, 0.0, 0.5, 1.0, 5.0, 5.0, 5.0]])
    assert trajectory(0.5).shape == (1,) and trajectory(0.5)[0] == 1.0


def test_tableau_matches_scipy_dop853():
    tableau = shooting.dop853_tableau()
    for name in shooting.Dop853Tableau._fields:
        assert same_bits(getattr(tableau, name), getattr(DOP853, name)), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failure_matches_scipy_and_raises_shooting_error():
    # runaway growth overflows the state, and the step shrinks below 10 ulps of t
    problem = wf.JhProblem(-1e4, math.radians(15.0))
    ours, theirs = integrate_both(problem, 100.0)
    assert not ours.success and not theirs.success
    assert ours.message == theirs.message == shooting.TOO_SMALL_STEP
    assert ours.nfev == theirs.nfev
    assert same_bits(ours.t, theirs.t) and same_bits(ours.y, theirs.y)
    assert ours.sol is None
    with pytest.raises(wf.ShootingError, match=re.escape(f"integration failed near eta = {ours.t[-1]}:")):
        shooting.integrate(problem, 100.0)


# Runs in a fresh interpreter, so the tableau cache is empty and no earlier
# test has imported scipy.integrate.  argv[1] "fallback" hides SciPy's
# coefficient file, so the tableau comes from `scipy.integrate.DOP853`.
TABLEAU_PATH_SCRIPT = """
import hashlib, json, math, sys
import wedgeflow as wf
from wedgeflow import solver

if sys.argv[1] == "fallback":
    solver.SOURCE_SUFFIXES = [".no-such-suffix"]
ref = wf.shoot(wf.JhProblem(30.0, math.radians(15.0)))
digest = hashlib.sha256(ref.states.tobytes() + ref.trajectory.F.tobytes()).hexdigest()
print(json.dumps([ref.s, digest, "scipy.integrate" in sys.modules]))
"""


def test_tableau_loading_paths_shoot_bit_identically(oracles):
    ref = oracles[(30.0, 15.0)]
    in_process = [ref.s, hashlib.sha256(ref.states.tobytes() + ref.trajectory.F.tobytes()).hexdigest()]
    results = {
        path: json.loads(run_fresh(TABLEAU_PATH_SCRIPT, path).stdout)
        for path in ("file", "fallback")
    }
    for s, digest, _loaded in results.values():
        assert [s, digest] == in_process
    assert {path: r[2] for path, r in results.items()} == {"file": False, "fallback": True}
