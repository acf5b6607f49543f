"""Shooting-method reference solver for the wedge-flow profile.

Rewrites the third-order boundary value problem as the initial value problem

    f''' = -2 Re alpha f f' - 4 alpha^2 f',  f(0) = 1, f'(0) = 0, f''(0) = s,

and iterates on the unknown initial curvature s with the secant method until
f(1) = 0.  The best secant pass is kept whole: its step polynomials give
(f, f', f'') anywhere in [0, 1] and are sampled on a dense uniform grid.

Each pass is integrated by `solve_ivp`, a Taylor-series method of degree
TAYLOR_ORDER.  The right-hand side is quadratic: f''' = -(c/2) (f^2)' - a2 f'
with c = 2 Re alpha and a2 = 4 alpha^2.  Matching powers of tau in
f(eta + tau) = sum_k f_k tau^k gives the recurrence

    f_{k+3} = -((c/2) S_{k+1} + a2 f_{k+1}) / ((k + 2)(k + 3)),
    S_n = sum_{j=0..n} f_j f_{n-j},

from f_0 = f, f_1 = f', f_2 = f''/2.  A step's polynomial gives both the
state at its end and the dense output inside it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .solver import JhProblem, evaluate_on_unit_interval

DENSE_POINTS = 4097
DEFAULT_END_TOL = 1e-13
DEFAULT_RTOL = 1e-13
DEFAULT_ATOL = 1e-14
#: A smaller rtol asks for a truncation error below roundoff, which shorter
#: steps cannot deliver; they only multiply (at rtol = atol = 1e-300 the
#: steps are 1e-14 long, so a pass would take some 1e14 of them).  It is refused.
MIN_RTOL = 100 * np.finfo(np.float64).eps
#: A root whose profile dips below -NEGATIVE_F_TOL has reverse flow: it is not
#: the unidirectional profile, whose only negative values are roundoff at eta = 1.
NEGATIVE_F_TOL = 1e-12


class ShootingError(RuntimeError):
    """Raised when the secant iteration or the IVP integration fails."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = tuple(history)


def check_end_tol(end_tol: float):
    """Reject an `end_tol` for |f(1)| that is not finite or lies below the integration error."""
    if not 1e-13 <= end_tol < np.inf:  # false for NaN too
        raise ValueError(
            f"end_tol must be finite and at least 1e-13 (the integration error), got {end_tol!r}"
        )


def _check_settings(rtol: float, atol: float):
    if not (0.0 < rtol < np.inf and 0.0 < atol < np.inf):  # false for NaN too
        raise ValueError(f"tolerances must be positive and finite, got rtol={rtol!r}, atol={atol!r}")
    if rtol < MIN_RTOL:
        raise ValueError(f"rtol must be at least 100 eps = {MIN_RTOL:.3g}, got {rtol!r}")


#: Degree of each step's Taylor polynomial.
TAYLOR_ORDER = 24


def _taylor_coefficients(problem: JhProblem, y) -> list[float]:
    """Coefficients f_0..f_M of f's Taylor polynomial about a point with state y = (f, f', f'')."""
    half_c = float(problem.reynolds * problem.alpha)
    a2 = float(4.0 * problem.alpha**2)
    f = [y[0], y[1], 0.5 * y[2]]
    for k in range(TAYLOR_ORDER - 2):
        # fsum, unlike sum (compensated since Python 3.12), rounds alike on every version
        cauchy = math.fsum(map(operator.mul, f[: k + 2], f[k + 1 :: -1]))
        f.append(-(half_c * cauchy + a2 * f[k + 1]) / ((k + 2) * (k + 3)))
    return f


def _taylor_states(coeffs, tau) -> tuple:
    """(f, f', f'') at offset tau of the polynomial sum_k coeffs[k] tau^k, by Horner's rule.

    `tau` and each coeffs[k] are floats, or arrays of one shape; the
    arithmetic is the same either way, so a step's end state is bit-identical
    to its dense output there.
    """
    f, d1, d2 = coeffs[-1], 0.0, 0.0
    for c in coeffs[-2::-1]:
        d2 = d2 * tau + d1
        d1 = d1 * tau + f
        f = f * tau + c
    return f, d1, 2.0 * d2


class DenseTrajectory(NamedTuple):
    """The continuous extension of an integration: one Taylor polynomial per step.

    Step i covers [ts[i], ts[i + 1]], and coeffs[i] holds the Taylor
    coefficients of f about ts[i].
    """

    ts: np.ndarray
    coeffs: np.ndarray

    def __call__(self, eta) -> np.ndarray:
        """States at the points eta, one row per component (one state for a scalar).

        A point on a step boundary takes the earlier step, and points outside
        [ts[0], ts[-1]] the first or last one.
        """
        t = np.atleast_1d(np.asarray(eta, dtype=np.float64))
        step = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.coeffs) - 1)
        y = np.array(_taylor_states(self.coeffs[step].T, t - self.ts[step]))
        return y if np.ndim(eta) else y[:, 0]


class IvpResult(NamedTuple):
    y: np.ndarray  # (3, steps + 1) states at the step ends sol.ts
    sol: DenseTrajectory
    nfev: int  # Taylor steps taken


def solve_ivp(problem: JhProblem, s: float, rtol: float, atol: float) -> IvpResult:
    """Integrate from (f, f', f'') = (1, 0, s) over eta in [0, 1], keeping the
    continuous extension in `sol`.

    Each step expands f about its start to degree M = TAYLOR_ORDER and takes

        h = 1/2 min over k in {M - 1, M} of (tol / (k (k - 1) |f_k|))^(1 / (k - 2)),

    with tol = atol + rtol max|y|: the last two terms then change f'' by at
    most tol / 2^(k-2) each, and f and f' by less.  The arithmetic is on
    Python floats, which overflow to inf or NaN without a warning; a pass
    that blows up, so that a coefficient is not finite or h falls below 10
    ulps of eta, raises ShootingError.  `shoot` and `integrate` look this
    name up at call time, so it can be wrapped or replaced.
    """
    t, y = 0.0, (1.0, 0.0, float(s))
    ts, ys, polys = [t], [y], []
    while t < 1.0:
        coeffs = _taylor_coefficients(problem, y)
        tol = float(atol + rtol * max(map(abs, y)))
        h = 0.5 * min(
            (tol / (k * (k - 1) * abs(coeffs[k]))) ** (1.0 / (k - 2)) if coeffs[k] else math.inf
            for k in (TAYLOR_ORDER - 1, TAYLOR_ORDER)
        )
        if not (all(map(math.isfinite, coeffs)) and h >= 10 * math.ulp(t)):
            raise ShootingError(f"integration failed near eta = {t}: the solution blows up")
        t_new = min(t + h, 1.0)
        t, y = t_new, _taylor_states(coeffs, t_new - t)
        ts.append(t)
        ys.append(y)
        polys.append(coeffs)
    return IvpResult(np.array(ys).T, DenseTrajectory(np.array(ts), np.array(polys)), len(polys))


def _sample(trajectory: DenseTrajectory) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(0.0, 1.0, DENSE_POINTS)
    return grid, trajectory(grid).T.copy()


def integrate(
    problem: JhProblem,
    s: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the IVP with initial curvature s over eta in [0, 1].

    Uses the Taylor-series method of `solve_ivp`; the trajectory is reported
    on a uniform dense grid of DENSE_POINTS points via its step polynomials.

    Returns
    -------
    (grid, states)
        `grid` has DENSE_POINTS uniform samples; `states` is
        (DENSE_POINTS, 3) holding (f, f', f'') per sample.
    """
    _check_settings(rtol, atol)
    return _sample(solve_ivp(problem, s, rtol, atol).sol)


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """Shooting trajectory at the converged initial curvature s.

    `trajectory` is the integrator's continuous extension, mapping eta to the
    rows (f, f', f''); `grid` and `states` sample it uniformly; compared by identity.
    """

    problem: JhProblem
    s: float
    grid: np.ndarray
    states: np.ndarray
    achieved_tol: float
    trajectory: DenseTrajectory

    def fp_right(self) -> float:
        return float(self.states[-1, 1])


def shoot(
    problem: JhProblem,
    end_tol: float = DEFAULT_END_TOL,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ReferenceSolution:
    """Find s with f(1; s) = 0 by secant iteration and return the trajectory.

    Starts from s = -2 (the Poiseuille value) and s = -2.5; fails with the
    iteration history attached if 50 secant steps cannot reach `end_tol`.
    The returned trajectory is the secant pass with the smallest |f(1)|.
    A root whose sampled f falls below -NEGATIVE_F_TOL is refused with
    ShootingError too: it lies on a branch with reverse flow.
    """
    check_end_tol(end_tol)
    _check_settings(rtol, atol)
    history = []  # (s, f(1; s)) of every pass
    best = None  # (|f(1)|, s, trajectory) of the first pass with the smallest |f(1)|

    def end_value(s):
        nonlocal best
        sol = solve_ivp(problem, s, rtol, atol)
        g = float(sol.y[0, -1])
        history.append((s, g))
        if best is None or abs(g) < best[0]:
            best = (abs(g), s, sol.sol)
        return g

    s_prev, s_curr = -2.0, -2.5
    g_prev, g_curr = end_value(s_prev), end_value(s_curr)
    # Polish well below end_tol so the reported trajectory is limited by
    # integration error, not by the secant stopping point.
    for _ in range(50):
        if best[0] <= end_tol * 1e-2 or g_curr == g_prev:
            break
        s_next = s_curr - g_curr * (s_curr - s_prev) / (g_curr - g_prev)
        s_prev, g_prev, s_curr, g_curr = s_curr, g_curr, s_next, end_value(s_next)
    best_g, best_s, trajectory = best
    if best_g > end_tol:
        raise ShootingError(
            f"secant iteration stalled at |f(1)| = {best_g:.3e} > {end_tol:.3e}", history
        )
    grid, states = _sample(trajectory)
    min_f = float(states[:, 0].min())
    if min_f < -NEGATIVE_F_TOL:
        raise ShootingError(
            f"non-physical root at s = {best_s!r}: min f = {min_f:.3e} < 0 "
            f"(reverse flow), f'(1) = {float(states[-1, 1]):.6e}",
            history,
        )
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
