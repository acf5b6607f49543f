"""Planar wedge-flow (Jeffery-Hamel) profiles with C1 Hermite finite elements.

Solves f''' + 2 Re alpha f f' + 4 alpha^2 f' = 0 on [0, 1] with f(0) = 1,
f'(0) = 0, f(1) = 0, cross-validated against a high-order shooting integrator,
plus a first-order non-coercive model problem in Galerkin and least-squares
form with hierarchic C0 elements.
"""

from .analysis import (
    ConvergenceReport,
    ErrorNorms,
    WedgeFieldConfig,
    compute_K,
    duality_pairing_check,
    error_norms,
    fit_rates,
    make_report,
    wedge_fields,
)
from .basis import (
    HERMITE,
    HIERARCHIC,
    ElementFamily,
    ShapeEval,
    eval_family,
    eval_hermite,
    eval_hierarchic,
    hermite_family,
    hierarchic_family,
)
from .meshing import (
    SLOPE,
    VALUE,
    DofMap,
    Mesh1D,
    build_dofmap,
    build_mesh,
    jh_constraints,
    model_constraints,
)
from .model_problem import (
    GALERKIN,
    LEAST_SQUARES,
    assemble_model,
    exact_derivative,
    exact_pair,
    exact_solution,
    forcing,
    model_convergence,
    solve_model,
)
from .quadrature import QuadratureRule, gauss_legendre, required_points
from .shooting import (
    ReferenceSolution,
    ShootingError,
    evaluate_reference,
    integrate,
    shoot,
)
from .solver import (
    BandedMatrix,
    FemSolution,
    FluidProps,
    JhProblem,
    SingularMatrixError,
    SolverOptions,
    assemble_jacobian,
    assemble_residual,
    newton_loop,
    newton_solve,
    poiseuille_guess,
    solve_banded,
)

__version__ = "0.1.0"
