"""First-order non-coercive model problem with hierarchic C0 elements.

Solves u' + u = g on (0, 1), u(0) = 1, with g chosen so the exact solution is
u(x) = cos(5 pi x / 2), in both a Galerkin formulation (integrated by parts,
with the outflow boundary term) and a least-squares formulation.  The linear
systems reuse the Newton driver; at the default tolerance a single iteration
solves them, while tighter tolerances trigger extra passes that act as
iterative refinement of the float64 factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import error_norms, make_report
from .basis import HIERARCHIC, ElementFamily, eval_hierarchic, hierarchic_family
from .meshing import build_dofmap, build_mesh, model_constraints
from .quadrature import gauss_legendre
from .solver import BandedMatrix, FemSolution, SolverOptions, _reference_tables, basis_tables, newton_loop

_LD = np.longdouble
_PI_LD = _LD("3.141592653589793238462643383279502884")

GALERKIN = "galerkin"
LEAST_SQUARES = "least_squares"

#: Fixed high-order rule: the forcing is trigonometric, so a 10-point rule
#: (exact to degree 19 >= 2p + 8 for every supported p) covers all integrands.
MODEL_RULE_POINTS = 10


def _pi_for(x: np.ndarray):
    return _PI_LD if x.dtype == _LD else np.pi


@dataclass(frozen=True)
class ModelConfig:
    degree: int
    n_elem: int
    formulation: str = GALERKIN

    def __post_init__(self):
        degrees = ElementFamily.DEGREES[HIERARCHIC]
        if self.degree not in degrees:
            raise ValueError(f"degree must be in {degrees}, got {self.degree}")
        if self.n_elem < 1:
            raise ValueError(f"n_elem must be positive, got {self.n_elem}")
        if self.formulation not in (GALERKIN, LEAST_SQUARES):
            raise ValueError(f"unknown formulation {self.formulation!r}")


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


def assemble_model(cfg: ModelConfig, dofmap, rule):
    """Extended-precision system (A, b) of `cfg.formulation`, before constraints.

    Least squares gives a symmetric A, SPD on the constrained subspace; the
    constraints are applied by the solve driver.
    """
    n = cfg.n_elem
    h = _LD(1) / n
    pts = rule.points.astype(_LD)
    wts = rule.weights.astype(_LD)
    shapes = _reference_tables(dofmap.family, rule, np.dtype(_LD))
    v, dx, _ = basis_tables(dofmap.family, shapes, h)
    mat = BandedMatrix(dofmap.n_global, dofmap.half_bandwidth, dtype=_LD)
    rhs = np.zeros(dofmap.n_global, dtype=_LD)
    if cfg.formulation == GALERKIN:
        # A_ij = int(-phi_j phi_i' + phi_j phi_i) + phi_j(1) phi_i(1)
        block = (np.einsum("jq,iq,q->ij", v, -dx, wts) + np.einsum("jq,iq,q->ij", v, v, wts)) * h
        test = v
    else:
        w = dx + v
        block = np.einsum("jq,iq,q->ij", w, w, wts) * h
        test = w
    local = np.repeat(block[None], n, axis=0)
    if cfg.formulation == GALERKIN:  # the outflow term phi_j(1) phi_i(1) is the last element's
        end = eval_hierarchic(cfg.degree, np.array([1.0], dtype=_LD)).values[:, 0]
        local[-1] += np.outer(end, end)
    mat.add_elements(dofmap, local)
    x = (np.arange(n, dtype=_LD)[:, None] + pts[None, :]) * h
    g = forcing(x)
    dofmap.scatter_add(rhs, np.einsum("nq,iq,q->ni", g, test, wts) * h)
    return mat, rhs


def solve_model(cfg: ModelConfig, opts: SolverOptions | None = None) -> FemSolution:
    """Solve the model problem via the shared Newton driver.

    One iteration suffices at the default tolerance; requesting tighter
    tolerances makes further iterations refine the float64 solve against the
    extended-precision residual.
    """
    opts = opts or SolverOptions(max_iter=10)
    mesh = build_mesh(cfg.n_elem)
    dofmap = build_dofmap(mesh, hierarchic_family(cfg.degree), model_constraints())
    rule = gauss_legendre(MODEL_RULE_POINTS)
    mat, rhs = assemble_model(cfg, dofmap, rule)
    jac = BandedMatrix(mat.n, mat.k, dtype=np.float64)
    jac.data[:] = mat.data.astype(np.float64)
    jac.set_identity_rows(dofmap)

    def res_fn(c):
        out = mat.matvec(c) - rhs
        out[dofmap.fixed] = c[dofmap.fixed] - dofmap.fixed_values.astype(_LD)
        return out

    coeffs0 = np.zeros(dofmap.n_global, dtype=_LD)
    coeffs0[dofmap.fixed] = dofmap.fixed_values
    result = newton_loop(res_fn, lambda _c: jac, coeffs0, dofmap.free_mask(), opts)
    return FemSolution.from_newton(dofmap, result)


def exact_pair(x):
    """Reference callable for error measurement: x -> (u, u')."""
    return exact_solution(x), exact_derivative(x)


def model_convergence(
    degrees,
    n_elems,
    formulation: str = GALERKIN,
    newton_tol: float = 1e-14,
):
    """Run the refinement study; returns one ConvergenceReport per degree.

    The study solves at `newton_tol` = 1e-14 by default: on the finest
    least-squares meshes the first float64 solve leaves coefficient error
    above the discretisation error, and the extra refinement pass removes it.
    """
    rule = gauss_legendre(12)
    reports = []
    for p in degrees:
        rows = []
        for n in n_elems:
            cfg = ModelConfig(degree=p, n_elem=n, formulation=formulation)
            fem = solve_model(cfg, SolverOptions(tol=newton_tol, max_iter=10))
            rows.append(error_norms(fem, exact_pair, rule))
        reports.append(make_report(f"model-{formulation}", p, rows))
    return reports
