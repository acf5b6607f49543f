"""Post-processing: error norms, convergence rates, K, wedge fields, identity checks."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import HERMITE
from .quadrature import QuadratureRule, gauss_legendre
from .shooting import ReferenceSolution, evaluate_reference
from .solver import FemSolution, FluidProps, JhProblem

RATE_WINDOW = 4  # convergence slopes are fitted over this many of the finest meshes


@dataclass(frozen=True)
class ErrorNorms:
    """L2 and full H1 (= sqrt(L2^2 + |e'|^2)) errors for one (N, p) solve."""

    l2: float
    h1: float
    n_elem: int


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple
    slope_l2: float
    slope_h1: float


def _profile_at(solution, x) -> tuple:
    """(f, f', ...) at the points `x` of a FemSolution, a ReferenceSolution, or a
    callable mapping points to them."""
    if isinstance(solution, ReferenceSolution):
        return evaluate_reference(solution, x)
    if isinstance(solution, FemSolution):
        return solution.evaluate(x)
    if callable(solution):
        return solution(x)
    raise TypeError("solution must be a FemSolution, ReferenceSolution or callable x -> (f, f')")


def error_norms(fem: FemSolution, ref, rule: QuadratureRule) -> ErrorNorms:
    """Measure ||f_h - f_ref|| in L2 and full H1 by element-wise quadrature.

    `ref` is a FemSolution (read at `fem`'s own points on as many elements, so fem against
    itself is exactly 0), a shooting ReferenceSolution or any callable of eta giving (f, f', ...).
    """
    p = fem.family.degree
    if rule.exactness < 2 * p + 4:
        raise ValueError(f"rule exactness {rule.exactness} below 2p + 4 = {2 * p + 4}")
    n = fem.dofmap.n_elem
    h = 1.0 / n
    fh, fph, _ = fem.at_rule(rule)
    if isinstance(ref, FemSolution) and ref.dofmap.n_elem == n:
        fr, fpr, _ = ref.at_rule(rule)
    else:  # x = (e + t) h does not always map back to (e, t) bit for bit
        ref_vals = _profile_at(ref, ((np.arange(n)[:, None] + rule.points) * h).ravel())
        fr, fpr = (np.asarray(v).reshape(n, -1) for v in ref_vals[:2])
    w = rule.weights
    e2 = float(np.sum((fh - fr) ** 2 @ w) * h)
    d2 = float(np.sum((fph - fpr) ** 2 @ w) * h)
    return ErrorNorms(l2=math.sqrt(e2), h1=math.sqrt(e2 + d2), n_elem=n)


def fit_rates(rows) -> tuple[float, float]:
    """Fit log-log convergence slopes over the finest RATE_WINDOW meshes.

    Rows with an exactly zero error are excluded (with a warning) because the
    corresponding rate is undefined.  A repeated n_elem raises ValueError.
    """
    if len({r.n_elem for r in rows}) < max(3, len(rows)):
        raise ValueError("rate fitting needs at least 3 distinct mesh levels")
    rows = sorted(rows, key=lambda r: r.n_elem)

    def fit(errs):
        keep = [(r.n_elem, e) for r, e in zip(rows, errs) if e > 0.0]
        if len(keep) < len(rows):
            warnings.warn("zero error rows excluded from rate fit", stacklevel=2)
        keep = keep[-RATE_WINDOW:]
        if len(keep) < 2:
            raise ValueError("not enough nonzero errors to fit a rate")
        ns = np.array([k[0] for k in keep], dtype=float)
        es = np.array([k[1] for k in keep])
        a = np.vstack([np.log(1.0 / ns), np.ones_like(ns)]).T
        slope, _ = np.linalg.lstsq(a, np.log(es), rcond=None)[0]
        return float(slope)

    return fit([r.l2 for r in rows]), fit([r.h1 for r in rows])


def make_report(rows) -> ConvergenceReport:
    slope_l2, slope_h1 = fit_rates(rows)
    return ConvergenceReport(tuple(rows), slope_l2, slope_h1)


def compute_K(problem: JhProblem, fp1: float) -> float:
    """Pressure constant K from the wall-side slope f'(1)."""
    a = problem.alpha
    return (0.5 * fp1**2 - a * problem.reynolds / 3.0 - 2.0 * a**2) / (4.0 * a**2)


@dataclass(frozen=True)
class WedgeFieldConfig:
    """Everything needed to map the profile to dimensional (u_r, p) fields."""

    problem: JhProblem
    fluid: FluidProps
    p_star: float
    K: float
    lam: float

    def __post_init__(self):
        re_implied = self.lam * self.problem.alpha / self.fluid.nu
        if abs(re_implied - self.problem.reynolds) > 1e-12 * max(abs(self.problem.reynolds), 1.0):
            raise ValueError("lambda inconsistent with Re * nu / alpha")


def wedge_fields(cfg: WedgeFieldConfig, solution, points) -> np.ndarray:
    """Evaluate (u_r, p) at (r, theta) samples inside the wedge.

    u_r = (lambda / r) f(theta/alpha) and
    p = p* + (2 mu lambda / r^2) (f(theta/alpha) + K); the profile is even in
    theta, so only |theta|/alpha is evaluated.  `solution` is any profile
    `error_norms` takes as its reference.  A sample past float64's range reads
    inf or NaN, without a warning.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != 2:
        raise ValueError("points must be (r, theta) pairs")
    r = pts[:, 0]
    theta = pts[:, 1]
    if np.any(r <= 0.0):
        raise ValueError("r must be positive (the origin is singular)")
    if np.any(np.abs(theta) > cfg.problem.alpha * (1 + 1e-14)):
        raise ValueError("theta outside the wedge |theta| <= alpha")
    eta = np.minimum(np.abs(theta) / cfg.problem.alpha, 1.0)
    f = _profile_at(solution, eta)[0]
    mu = cfg.fluid.mu
    with np.errstate(all="ignore"):
        u_r = cfg.lam * f / r
        p = cfg.p_star + (2.0 * mu * cfg.lam / r**2) * (f + cfg.K)
    return np.column_stack([u_r, p])


def duality_pairing_check(fem: FemSolution, problem: JhProblem) -> tuple[float, float, float]:
    """Evaluate both sides of the boundary-pairing identity for f_h.

    lhs integrates f'(f'' + 2 Re alpha f^2 + 4 alpha^2 f) with a rule exact to
    degree 3p and adds the boundary terms [f'' f] - [(f')^2]; with the wall
    and centreline conditions imposed exactly the closed form

        rhs = -1/2 f'(1)^2 - 2 Re alpha / 3 - 2 alpha^2 - f''(0+)

    must match up to quadrature-free roundoff.
    """
    if fem.family.kind != HERMITE:
        raise ValueError("identity check requires the Hermite family")
    p = fem.family.degree
    rule = gauss_legendre(math.ceil((3 * p + 1) / 2))
    h = 1.0 / fem.dofmap.n_elem
    f, fp, fpp = fem.at_rule(rule)
    c, a2 = problem.coefficients()
    integrand = fp * (fpp + c * f**2 + a2 * f)
    integral = float(np.sum(integrand @ rule.weights) * h)
    f_ends, fp_ends, fpp_ends = fem.evaluate(np.array([0.0, 1.0]))
    lhs = (
        integral
        + (fpp_ends[1] * f_ends[1] - fpp_ends[0] * f_ends[0])
        - (fp_ends[1] ** 2 - fp_ends[0] ** 2)
    )
    rhs = -0.5 * fp_ends[1] ** 2 - c / 3.0 - a2 / 2.0 - fpp_ends[0]
    return float(lhs), float(rhs), float(lhs - rhs)
