"""Shooting-method reference solver for the wedge-flow profile.

Rewrites the third-order boundary value problem as the first-order system

    y0' = y1,  y1' = y2,  y2' = -2 Re alpha y0 y1 - 4 alpha^2 y1,
    y0(0) = 1, y1(0) = 0, y2(0) = s,

and iterates on the unknown initial curvature s with the secant method until
y0(1) = 0.  The best secant pass is kept whole: its continuous extension
gives (f, f', f'') anywhere in [0, 1] and is sampled on a dense uniform grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .solver import JhProblem, evaluate_on_unit_interval

if TYPE_CHECKING:
    from scipy.integrate import OdeSolution

DEFAULT_DENSE_POINTS = 4097
DEFAULT_END_TOL = 1e-13
DEFAULT_RTOL = 1e-13
DEFAULT_ATOL = 1e-14


class ShootingError(RuntimeError):
    """Raised when the secant iteration or the IVP integration fails."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = tuple(history)


class IvpState(NamedTuple):
    y0: float
    y1: float
    y2: float


def ivp_rhs(problem: JhProblem, y) -> IvpState:
    """Right-hand side of the first-order system at state y = (y0, y1, y2)."""
    c = 2.0 * problem.reynolds * problem.alpha
    a2 = 4.0 * problem.alpha**2
    return IvpState(y[1], y[2], -c * y[0] * y[1] - a2 * y[1])


def _check_settings(rtol: float, atol: float, n_dense: int):
    if not (0.0 < rtol < np.inf and 0.0 < atol < np.inf):  # false for NaN too
        raise ValueError(f"tolerances must be positive and finite, got rtol={rtol!r}, atol={atol!r}")
    if n_dense < 2:
        raise ValueError("dense grid needs at least two points")


def solve_ivp(*args, **kwargs):
    """Forward to `scipy.integrate.solve_ivp`, importing it on the first call.

    `scipy.integrate` and what it pulls in (`scipy.special`, `scipy.optimize`,
    `scipy.sparse`) take longer to import than a whole non-shooting CLI
    command runs, so only callers that integrate load it.  `_solve` looks
    this name up at call time, so it can still be wrapped or replaced.
    """
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


def _solve(problem: JhProblem, s: float, rtol: float, atol: float):
    """One DOP853 pass from (1, 0, s) over [0, 1], keeping its continuous extension."""
    sol = solve_ivp(
        lambda _t, y: ivp_rhs(problem, y),
        (0.0, 1.0),
        [1.0, 0.0, s],
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
    )
    if not sol.success:
        raise ShootingError(f"integration failed near eta = {sol.t[-1] if sol.t.size else 0.0}: {sol.message}")
    return sol


def _sample(trajectory: OdeSolution, n_dense: int) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(0.0, 1.0, n_dense)
    return grid, trajectory(grid).T.copy()


def integrate(
    problem: JhProblem,
    s: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_dense: int = DEFAULT_DENSE_POINTS,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the IVP with initial curvature s over eta in [0, 1].

    Uses an adaptive 8th-order embedded Runge-Kutta scheme; the trajectory is
    reported on a uniform dense grid of `n_dense` points via the integrator's
    continuous extension.

    Returns
    -------
    (grid, states)
        `grid` has n_dense uniform samples; `states` is (n_dense, 3) holding
        (y0, y1, y2) per sample.
    """
    _check_settings(rtol, atol, n_dense)
    return _sample(_solve(problem, s, rtol, atol).sol, n_dense)


@dataclass(frozen=True)
class ReferenceSolution:
    """Shooting trajectory at the converged initial curvature s.

    `trajectory` is the integrator's continuous extension, mapping eta to the
    rows (f, f', f''); `grid` and `states` sample it uniformly.
    """

    problem: JhProblem
    s: float
    grid: np.ndarray
    states: np.ndarray
    achieved_tol: float
    trajectory: OdeSolution

    def fp_right(self) -> float:
        return float(self.states[-1, 1])


def shoot(
    problem: JhProblem,
    end_tol: float = DEFAULT_END_TOL,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    n_dense: int = DEFAULT_DENSE_POINTS,
) -> ReferenceSolution:
    """Find s with y0(1; s) = 0 by secant iteration and return the trajectory.

    Starts from s = -2 (the Poiseuille value) and s = -2.5; fails with the
    iteration history attached if 50 secant steps cannot reach `end_tol`.
    The returned trajectory is the secant pass with the smallest |y0(1)|.
    """
    if not 1e-13 <= end_tol < np.inf:  # false for NaN too
        raise ValueError(
            f"end_tol must be finite and at least 1e-13 (the integration error), got {end_tol!r}"
        )
    _check_settings(rtol, atol, n_dense)

    def end_value(s):
        sol = _solve(problem, s, rtol, atol)
        return float(sol.y[0, -1]), sol.sol

    s_prev, s_curr = -2.0, -2.5
    g_prev, traj_prev = end_value(s_prev)
    g_curr, traj_curr = end_value(s_curr)
    history = [(s_prev, g_prev), (s_curr, g_curr)]
    if abs(g_prev) <= abs(g_curr):
        best_s, best_g, trajectory = s_prev, g_prev, traj_prev
    else:
        best_s, best_g, trajectory = s_curr, g_curr, traj_curr
    # Polish well below end_tol so the reported trajectory is limited by
    # integration error, not by the secant stopping point.
    target = end_tol * 1e-2
    for _ in range(50):
        if abs(best_g) <= target:
            break
        if g_curr == g_prev:
            break
        s_next = s_curr - g_curr * (s_curr - s_prev) / (g_curr - g_prev)
        g_next, traj_next = end_value(s_next)
        history.append((s_next, g_next))
        s_prev, g_prev, s_curr, g_curr = s_curr, g_curr, s_next, g_next
        if abs(g_next) < abs(best_g):
            best_s, best_g, trajectory = s_next, g_next, traj_next
    if abs(best_g) > end_tol:
        raise ShootingError(
            f"secant iteration stalled at |f(1)| = {abs(best_g):.3e} > {end_tol:.3e}",
            history,
        )
    grid, states = _sample(trajectory, n_dense)
    return ReferenceSolution(
        problem=problem,
        s=best_s,
        grid=grid,
        states=states,
        achieved_tol=abs(float(states[-1, 0])),
        trajectory=trajectory,
    )


def evaluate_reference(ref: ReferenceSolution, eta):
    """Evaluate (f, f', f'') of the shooting trajectory at eta in [0, 1].

    Uses the integrator's continuous extension, so the dense-grid points
    reproduce the stored states exactly.
    """
    return evaluate_on_unit_interval(eta, ref.trajectory)
