"""Shooting-method reference solver for the wedge-flow profile.

Rewrites the third-order boundary value problem as the first-order system

    y0' = y1,  y1' = y2,  y2' = -2 Re alpha y0 y1 - 4 alpha^2 y1,
    y0(0) = 1, y1(0) = 0, y2(0) = s,

and iterates on the unknown initial curvature s with the secant method until
y0(1) = 0.  The best secant pass is kept whole: its continuous extension
gives (f, f', f'') anywhere in [0, 1] and is sampled on a dense uniform grid.

Each pass is integrated by `solve_ivp`, a NumPy port of SciPy's DOP853
(Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.10) that repeats SciPy's
arithmetic step for step, so its results are bit-identical to
`scipy.integrate.solve_ivp(..., method="DOP853", dense_output=True)`.  The
Butcher tableau is read from SciPy's own coefficient file; `scipy.integrate`,
whose import takes several times longer than a whole shooting command runs,
is not imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .solver import JhProblem, evaluate_on_unit_interval, load_scipy_module

DEFAULT_DENSE_POINTS = 4097
DEFAULT_END_TOL = 1e-13
DEFAULT_RTOL = 1e-13
DEFAULT_ATOL = 1e-14
#: A smaller rtol asks DOP853 for a local error below roundoff: the steps
#: shrink until the integration fails, or it crawls (at rtol = atol = 1e-300
#: it had not finished after two minutes).  SciPy raises such an rtol to this
#: floor; here it is refused.
MIN_RTOL = 100 * np.finfo(np.float64).eps
#: A root whose profile dips below -NEGATIVE_F_TOL has reverse flow: it is not
#: the unidirectional profile, whose only negative values are roundoff at eta = 1.
NEGATIVE_F_TOL = 1e-12


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


def check_end_tol(end_tol: float):
    """Reject an `end_tol` for |f(1)| that is not finite or lies below the integration error."""
    if not 1e-13 <= end_tol < np.inf:  # false for NaN too
        raise ValueError(
            f"end_tol must be finite and at least 1e-13 (the integration error), got {end_tol!r}"
        )


def _check_settings(rtol: float, atol: float, n_dense: int):
    if not (0.0 < rtol < np.inf and 0.0 < atol < np.inf):  # false for NaN too
        raise ValueError(f"tolerances must be positive and finite, got rtol={rtol!r}, atol={atol!r}")
    if rtol < MIN_RTOL:
        raise ValueError(f"rtol must be at least 100 eps = {MIN_RTOL:.3g}, got {rtol!r}")
    if n_dense < 2:
        raise ValueError("dense grid needs at least two points")


# Step-size control of SciPy's RungeKutta solvers, with DOP853's error
# estimator order 7.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 8
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
REACHED_END = "The solver successfully reached the end of the integration interval."


class Dop853Tableau(NamedTuple):
    """DOP853's coefficients, sliced as the attributes of `scipy.integrate.DOP853`.

    `A`, `B`, `C`: the 12-stage method; `E3`, `E5`: its 3rd- and 5th-order
    error estimators; `A_EXTRA`, `C_EXTRA`: the three extra stages of the
    dense output; `D`: the rows of its 7-term interpolating polynomial.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E3: np.ndarray
    E5: np.ndarray
    D: np.ndarray
    A_EXTRA: np.ndarray
    C_EXTRA: np.ndarray


@lru_cache(maxsize=None)
def dop853_tableau() -> Dop853Tableau:
    """SciPy's DOP853 coefficients, read from the one file that holds them.

    `scipy/integrate/_ivp/dop853_coefficients.py` imports only NumPy, while
    `import scipy.integrate` takes several times longer than a whole shooting
    command runs.  Without that file the coefficients come from
    `scipy.integrate.DOP853`; they are the same arrays either way.
    """
    coeffs = load_scipy_module("integrate._ivp.dop853_coefficients")
    if coeffs is None:
        from scipy.integrate import DOP853

        return Dop853Tableau(*(getattr(DOP853, name) for name in Dop853Tableau._fields))
    n = coeffs.N_STAGES
    return Dop853Tableau(
        coeffs.A[:n, :n], coeffs.B, coeffs.C[:n], coeffs.E3, coeffs.E5, coeffs.D,
        coeffs.A[n + 1:], coeffs.C[n + 1:],
    )


class DenseTrajectory(NamedTuple):
    """The continuous extension of an integration: one polynomial per step.

    Step i covers [ts[i], ts[i + 1]], starts from the state y_old[i] and has
    the coefficient rows F[i] of DOP853's 7-term interpolant.
    """

    ts: np.ndarray
    y_old: np.ndarray
    F: np.ndarray

    def __call__(self, eta) -> np.ndarray:
        """States at the points eta, one row per component (one state for a scalar).

        A point on a step boundary takes the earlier step, and points outside
        [ts[0], ts[-1]] the first or last one, as in SciPy's `OdeSolution`.
        """
        t = np.atleast_1d(np.asarray(eta, dtype=np.float64))
        step = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.F) - 1)
        t_old = self.ts[step]
        x = ((t - t_old) / (self.ts[step + 1] - t_old))[:, None]
        coeffs = self.F[step]
        y = np.zeros((t.size, self.y_old.shape[1]))
        for i in range(coeffs.shape[1]):
            y += coeffs[:, -1 - i]
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old[step]
        return y.T if np.ndim(eta) else y[0]


class IvpResult(NamedTuple):
    t: np.ndarray  # accepted step ends, t[0] = t_span[0]
    y: np.ndarray  # (n, len(t)) states at t
    sol: DenseTrajectory | None  # None when the integration failed
    nfev: int
    success: bool
    message: str


def _rms(x) -> float:
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """First step size, by Hairer, Norsett & Wanner's rule (Solving ODEs I, Sec. II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _stages(fun, t, y, h, a_rows, c_values, K, first):
    """Fill K[first:] with the stages whose coefficients are a_rows and c_values."""
    for s, (a, c) in enumerate(zip(a_rows, c_values), start=first):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)


def _error_norm(tab: Dop853Tableau, K, h, scale) -> float:
    """DOP853's combined 5th/3rd-order error estimate, in units of `scale`."""
    err5_norm_2 = np.linalg.norm(np.dot(K.T, tab.E5) / scale) ** 2
    err3_norm_2 = np.linalg.norm(np.dot(K.T, tab.E3) / scale) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense_coefficients(fun, tab, K_ext, t_old, y_old, y, f, h) -> np.ndarray:
    """The 7 coefficient rows of the interpolant over the step [t_old, t_old + h]."""
    _stages(fun, t_old, y_old, h, tab.A_EXTRA, tab.C_EXTRA, K_ext, len(tab.B) + 1)
    f_old = K_ext[0]
    delta_y = y - y_old
    F = np.empty((3 + len(tab.D), y.size))
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(tab.D, K_ext)
    return F


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> IvpResult:
    """Integrate y' = fun(t, y) forward over t_span with DOP853, keeping its
    continuous extension in `sol`.

    The arithmetic is that of `scipy.integrate.solve_ivp(..., method="DOP853",
    dense_output=True)` for a scalar `atol` and `rtol >= MIN_RTOL`: the same
    initial step, stage sums, error norm and step-size control, and the same
    extra stages and interpolant.  Steps, states, `nfev` and dense output are
    bit-identical to SciPy's, and so is a failure: a step that would have to
    be smaller than 10 ulps of t ends the integration with `success` False.
    `_solve` looks this name up at call time, so it can be wrapped or replaced.
    """
    tab = dop853_tableau()
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError(f"need t_span[0] < t_span[1], got {t_span!r}")
    y = np.asarray(y0, dtype=float)
    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_bound, rtol, atol)
    K_ext = np.empty((tab.D.shape[1], y.size))
    K = K_ext[: len(tab.B) + 1]
    ts, ys, polys = [t], [y], []
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return IvpResult(np.array(ts), np.vstack(ys).T, None, nfev, False, TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            _stages(rhs, t, y, h, tab.A[1:], tab.C[1:], K, 1)
            y_new = y + h * np.dot(K[:-1].T, tab.B)
            f_new = K[-1] = rhs(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(tab, K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
        polys.append(_dense_coefficients(rhs, tab, K_ext, t, y, y_new, f_new, h))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    ts = np.array(ts)
    trajectory = DenseTrajectory(ts, np.array(ys[:-1]), np.array(polys))
    return IvpResult(ts, np.vstack(ys).T, trajectory, nfev, True, REACHED_END)


def _solve(problem: JhProblem, s: float, rtol: float, atol: float) -> IvpResult:
    """One DOP853 pass from (1, 0, s) over [0, 1], keeping its continuous extension."""
    sol = solve_ivp(
        lambda _t, y: ivp_rhs(problem, y), (0.0, 1.0), [1.0, 0.0, s], rtol=rtol, atol=atol
    )
    if not sol.success:
        raise ShootingError(f"integration failed near eta = {sol.t[-1]}: {sol.message}")
    return sol


def _sample(trajectory: DenseTrajectory, n_dense: int) -> tuple[np.ndarray, np.ndarray]:
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

    Uses DOP853, an adaptive 8th-order embedded Runge-Kutta scheme (see
    `solve_ivp`); the trajectory is reported on a uniform dense grid of
    `n_dense` points via the integrator's continuous extension.

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
    trajectory: DenseTrajectory

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
    A root whose sampled f falls below -NEGATIVE_F_TOL is refused with
    ShootingError too: it lies on a branch with reverse flow.
    """
    check_end_tol(end_tol)
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
