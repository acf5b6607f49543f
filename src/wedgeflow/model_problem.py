"""First-order non-coercive model problem with hierarchic C0 elements.

Solves u' + u = g on (0, 1), u(0) = 1, with g chosen so the exact solution is
u(x) = cos(5 pi x / 2), in both a Galerkin formulation (integrated by parts,
with the outflow boundary term) and a least-squares formulation.
`solve_model(degree, n_elem, formulation)` hands the one assembled matrix, its
prescribed rows made identity rows, to the Newton driver; at the default
tolerance a single iteration solves the system, while further passes act as
iterative refinement of the float64 factorisation.  `model_convergence`
refines every level until its correction is roundoff.
"""

from __future__ import annotations

import numpy as np

from .analysis import error_norms, make_report
from .basis import HIERARCHIC, eval_hierarchic, hierarchic_family
from .meshing import build_dofmap, build_mesh, model_constraints
from .quadrature import gauss_legendre
from .solver import BandedMatrix, FemSolution, SolverOptions, _reference_tables, newton_loop

_LD = np.longdouble
_PI_LD = _LD("3.141592653589793238462643383279502884")

GALERKIN = "galerkin"
LEAST_SQUARES = "least_squares"

#: Fixed high-order rule: the forcing is trigonometric, so a 10-point rule
#: (exact to degree 19 >= 2p + 8 for every supported p) covers all integrands.
MODEL_RULE_POINTS = 10


def _pi_for(x: np.ndarray):
    return _PI_LD if x.dtype == _LD else np.pi


def exact_solution(x):
    x = np.asarray(x)
    return np.cos(2.5 * _pi_for(x) * x)


def exact_derivative(x):
    x = np.asarray(x)
    pi = _pi_for(x)
    return -2.5 * pi * np.sin(2.5 * pi * x)


def forcing(x):
    """g(x) = cos(5 pi x / 2) - (5 pi / 2) sin(5 pi x / 2), so u' + u = g."""
    return exact_derivative(x) + exact_solution(x)


def assemble_model(formulation: str, dofmap, rule):
    """Extended-precision system (A, b) of `formulation` on `dofmap`, before constraints.

    The degree and N are the hierarchic map's.  Least squares gives a symmetric A, SPD on
    the constrained subspace; the constraints are applied by `solve_model`.
    """
    if formulation not in (GALERKIN, LEAST_SQUARES):
        raise ValueError(f"unknown formulation {formulation!r}")
    if dofmap.family.kind != HIERARCHIC:
        raise ValueError("model-problem assembly requires the hierarchic family")
    n = dofmap.n_elem
    h = _LD(1) / n
    pts = rule.points.astype(_LD)
    wts = rule.weights.astype(_LD)
    shapes = _reference_tables(dofmap.family, rule, np.dtype(_LD))
    v, dx = shapes.values, shapes.first_derivs / h  # the hierarchic slope factors are 1
    mat = BandedMatrix(dofmap.n_global, dofmap.half_bandwidth, dtype=_LD)
    rhs = np.zeros(dofmap.n_global, dtype=_LD)
    if formulation == GALERKIN:
        # A_ij = int(-phi_j phi_i' + phi_j phi_i) + phi_j(1) phi_i(1)
        block = (np.einsum("jq,iq,q->ij", v, -dx, wts) + np.einsum("jq,iq,q->ij", v, v, wts)) * h
        test = v
    else:
        w = dx + v
        block = np.einsum("jq,iq,q->ij", w, w, wts) * h
        test = w
    local = np.repeat(block[None], n, axis=0)
    if formulation == GALERKIN:  # the outflow term phi_j(1) phi_i(1) is the last element's
        end = eval_hierarchic(dofmap.family.degree, np.array([1.0], dtype=_LD)).values[:, 0]
        local[-1] += np.outer(end, end)
    mat.add_elements(dofmap, local)
    x = (np.arange(n, dtype=_LD)[:, None] + pts[None, :]) * h
    g = forcing(x)
    dofmap.scatter_add(rhs, np.einsum("nq,iq,q->ni", g, test, wts) * h)
    return mat, rhs


def solve_model(degree: int, n_elem: int, formulation: str = GALERKIN,
                opts: SolverOptions | None = None) -> FemSolution:
    """Solve the model problem via the shared Newton driver.

    The prescribed rows of the assembled matrix become identity rows, so the
    residual A c - b reads c_i - u_i there and the same matrix is the
    Jacobian.  One iteration suffices at the default tolerance; a tighter
    one, or tol 0 as `model_convergence` uses, makes further iterations
    refine the float64 solve against the extended-precision residual.
    """
    opts = opts or SolverOptions(max_iter=10)
    dofmap = build_dofmap(build_mesh(n_elem), hierarchic_family(degree), model_constraints())
    mat, rhs = assemble_model(formulation, dofmap, gauss_legendre(MODEL_RULE_POINTS))
    mat.set_identity_rows(dofmap)
    rhs[dofmap.fixed] = dofmap.fixed_values
    coeffs0 = np.zeros(dofmap.n_global, dtype=_LD)
    coeffs0[dofmap.fixed] = dofmap.fixed_values
    result = newton_loop(lambda c: mat.matvec(c) - rhs, lambda _c: mat, coeffs0,
                         dofmap.free_mask(), opts)
    return FemSolution.from_newton(dofmap, result)


def exact_pair(x):
    """Reference callable for error measurement: x -> (u, u')."""
    return exact_solution(x), exact_derivative(x)


def model_convergence(degrees, n_elems, formulation: str = GALERKIN):
    """Run the refinement study; returns one ConvergenceReport per degree.

    Each level is refined until its correction is roundoff (`SolverOptions`
    tol 0, the driver's "roundoff" stop), which takes 2-3 passes: the first
    float64 solve leaves coefficient error above the discretisation error on
    fine meshes, and no fixed residual tolerance removes it on every mesh.
    """
    rule = gauss_legendre(12)
    reports = []
    for p in degrees:
        rows = []
        for n in n_elems:
            fem = solve_model(p, n, formulation, SolverOptions(tol=0.0, max_iter=10))
            rows.append(error_norms(fem, exact_pair, rule))
        reports.append(make_report(rows))
    return reports
