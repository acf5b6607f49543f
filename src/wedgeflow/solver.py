"""Wedge-flow weak-form assembly and the Newton/banded-LU nonlinear solver.

The radial-profile unknown f(eta) on [0, 1] satisfies

    f''' + 2 Re alpha f f' + 4 alpha^2 f' = 0,
    f(0) = 1,  f'(0) = 0,  f(1) = 0,

discretised with C1 Hermite elements.  Weak residual rows are

    R_i = int_0^1 f'(phi_i'' + 2 Re alpha f phi_i + 4 alpha^2 phi_i) dx
          - f'(1) phi_i'(1).

Newton iterates and residuals are kept in extended precision (longdouble)
while Jacobians are factorised in float64; the value rows of the Jacobian
scale like 1/h^2, so float64 iterates alone cannot push the residual norm
to the default tolerance on fine meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .basis import HERMITE, ElementFamily, eval_family
from .meshing import SLOPE, VALUE, DofMap, Mesh1D, build_dofmap, build_mesh, jh_constraints
from .quadrature import QuadratureRule, gauss_legendre, required_points

_LD = np.longdouble


class SingularMatrixError(RuntimeError):
    """Raised when banded LU meets an (almost) zero pivot."""


@dataclass(frozen=True)
class FluidProps:
    """Dimensional fluid constants; mu defaults to rho * nu."""

    nu: float
    rho: float
    mu: float | None = None

    def __post_init__(self):
        if self.nu <= 0 or self.rho <= 0:
            raise ValueError("nu and rho must be positive")
        if self.mu is None:
            object.__setattr__(self, "mu", self.rho * self.nu)
        elif abs(self.mu - self.rho * self.nu) > 1e-14 * abs(self.mu):
            raise ValueError("mu must equal rho * nu")


@dataclass(frozen=True)
class JhProblem:
    """Parameter pair (Re, alpha); alpha is the wedge half-angle in radians."""

    reynolds: float
    alpha: float
    fluid: FluidProps | None = None

    def __post_init__(self):
        if not np.isfinite(self.reynolds):
            raise ValueError(f"reynolds must be finite, got {self.reynolds!r}")
        if not (0.0 < self.alpha < np.pi / 2):
            raise ValueError(f"alpha must lie in (0, pi/2) radians, got {self.alpha!r}")

    @property
    def lam(self) -> float:
        """The constant r * u_max = Re * nu / alpha (requires fluid props)."""
        if self.fluid is None:
            raise ValueError("lambda requires fluid properties")
        return self.reynolds * self.fluid.nu / self.alpha


class BandedMatrix:
    """Square banded matrix in LAPACK general-band storage (kl = ku = k).

    Entry (i, j) lives at data[2k + i - j, j]; the top k rows are fill-in
    workspace for the LU factorisation.
    """

    def __init__(self, n: int, k: int, dtype=np.float64):
        self.n = n
        self.k = k
        self.data = np.zeros((3 * k + 1, n), dtype=dtype)

    def add_at(self, rows, cols, values):
        """Scatter-add entries; all |rows - cols| must be within the band."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        if np.any(np.abs(rows - cols) > self.k):
            raise ValueError("entry outside declared half-bandwidth")
        np.add.at(self.data, (2 * self.k + rows - cols, cols), values)

    def add_elements(self, element_dofs: np.ndarray, local: np.ndarray):
        """Scatter-add local[e, a, b] at (element_dofs[e, a], element_dofs[e, b]).

        `local` is (n_elem, m, m) or one (m, m) block shared by every element.
        Only neighbouring elements share DOFs, so the even and the odd
        elements each go in one fancy-index pass without repeated indices,
        which adds exactly and keeps the dtype of `data`.
        """
        rows = element_dofs[:, :, None]
        cols = element_dofs[:, None, :]
        if np.any(np.abs(rows - cols) > self.k):
            raise ValueError("entry outside declared half-bandwidth")
        diag = 2 * self.k + rows - cols
        cols = np.broadcast_to(cols, diag.shape)
        local = np.broadcast_to(local, diag.shape)
        for first in (0, 1):
            sel = slice(first, None, 2)
            self.data[diag[sel], cols[sel]] += local[sel]

    def set_identity_row(self, i: int):
        j = np.arange(max(0, i - self.k), min(self.n, i + self.k + 1))
        self.data[2 * self.k + i - j, j] = 0.0
        self.data[2 * self.k, i] = 1.0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.n, dtype=np.result_type(self.data, x))
        for d in range(-self.k, self.k + 1):  # d = row - col
            j0 = max(0, -d)
            j1 = min(self.n, self.n - d)
            if j0 >= j1:
                continue
            y[j0 + d : j1 + d] += self.data[2 * self.k + d, j0:j1] * x[j0:j1]
        return y

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=self.data.dtype)
        for j in range(self.n):
            i0 = max(0, j - self.k)
            i1 = min(self.n, j + self.k + 1)
            rows = np.arange(i0, i1)
            a[rows, j] = self.data[2 * self.k + rows - j, j]
        return a

    def inf_norm(self) -> float:
        rowsum = np.zeros(self.n, dtype=np.float64)
        for d in range(-self.k, self.k + 1):
            j0 = max(0, -d)
            j1 = min(self.n, self.n - d)
            if j0 >= j1:
                continue
            rowsum[j0 + d : j1 + d] += np.abs(self.data[2 * self.k + d, j0:j1]).astype(np.float64)
        return float(rowsum.max()) if self.n else 0.0


def solve_banded(a: BandedMatrix, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by banded LU with partial pivoting.

    Raises SingularMatrixError (naming the pivot index) when a pivot is zero
    or falls below 1e-14 * ||a||_inf.
    """
    if b.shape[0] != a.n:
        raise ValueError("right-hand side length mismatch")
    ab = a.data.astype(np.float64, copy=True)
    anorm = a.inf_norm()
    lub, _piv, x, info = lapack.dgbsv(a.k, a.k, ab, np.asarray(b, dtype=np.float64))
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded solver")
    if info > 0:
        raise SingularMatrixError(f"zero pivot at index {info - 1}")
    udiag = np.abs(lub[2 * a.k, :])
    small = udiag < 1e-14 * max(anorm, 1e-300)
    if np.any(small):
        raise SingularMatrixError(f"near-zero pivot at index {int(np.argmin(udiag))}")
    return x


def _scaled_tables(family: ElementFamily, rule: QuadratureRule, h, dtype):
    """Basis tables at the rule points with physical-slope scaling applied.

    Hermite slope DOFs store df/d(eta); the corresponding reference functions
    are scaled by h so evaluation against physical-derivative operators needs
    only the 1/h and 1/h^2 chain factors.
    """
    dtype = np.dtype(dtype)
    shapes = eval_family(family, rule.points.astype(dtype))
    h = dtype.type(h)
    scale = np.ones(family.degree + 1, dtype=dtype)
    if family.kind == HERMITE:
        scale[1] = h
        scale[3] = h
    v = shapes.values * scale[:, None]
    d1 = shapes.first_derivs * scale[:, None] / h
    d2 = None
    if shapes.second_derivs is not None:
        d2 = shapes.second_derivs * scale[:, None] / h**2
    return v, d1, d2


def quadrature_fields(
    dofmap: DofMap, coeffs: np.ndarray, rule: QuadratureRule, h, n_derivs: int = 1
):
    """Basis tables and the field `coeffs` at the rule points of every element.

    Returns (tables, fields): `tables` is (v, d1, d2), each (p+1, nq) with the
    physical-slope scaling applied (d2 is None for C0 families), and `fields`
    is (f, f', ...) up to derivative `n_derivs`, each (n_elem, nq).  All
    arithmetic follows the dtype of `coeffs`.
    """
    tables = _scaled_tables(dofmap.family, rule, h, coeffs.dtype)
    ce = coeffs[dofmap.element_dofs]  # (n, p+1)
    return tables, tuple(ce @ t for t in tables[: n_derivs + 1])


def _check_rule(dofmap: DofMap, rule: QuadratureRule):
    if dofmap.family.kind != HERMITE:
        raise ValueError("wedge-flow assembly requires the Hermite family")
    need = 3 * dofmap.family.degree - 1
    if rule.exactness < need:
        raise ValueError(
            f"rule exactness {rule.exactness} below required degree {need}"
        )


def assemble_residual(
    problem: JhProblem, dofmap: DofMap, coeffs: np.ndarray, rule: QuadratureRule
) -> np.ndarray:
    """Assemble the weak-form residual at `coeffs`.

    Constrained rows carry (current value - prescribed value); all arithmetic
    follows the dtype of `coeffs`.
    """
    _check_rule(dofmap, rule)
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != dofmap.n_global:
        raise ValueError("coefficient vector length mismatch")
    dtype = coeffs.dtype if np.issubdtype(coeffs.dtype, np.floating) else np.dtype(np.float64)
    scal = dtype.type
    coeffs = coeffs.astype(dtype, copy=False)
    n = dofmap.n_elem
    h = scal(1.0) / n
    (v, _, d2), (f, fp) = quadrature_fields(dofmap, coeffs, rule, h)
    wts = rule.weights.astype(dtype)
    c = scal(2.0) * scal(problem.reynolds) * scal(problem.alpha)
    a2 = scal(4.0) * scal(problem.alpha) ** 2
    oper = d2[None, :, :] + (c * f + a2)[:, None, :] * v[None, :, :]
    local = np.einsum("niq,nq->ni", oper, fp * wts) * h
    out = np.zeros(dofmap.n_global, dtype=dtype)
    np.add.at(out, dofmap.element_dofs, local)
    s1 = dofmap.endpoint(SLOPE, 1)
    out[s1] -= coeffs[s1]  # boundary term -f'(1) phi_i'(1)
    for i, val in dofmap.constraints.items():
        out[i] = coeffs[i] - scal(val)
    return out


def assemble_jacobian(
    problem: JhProblem, dofmap: DofMap, coeffs: np.ndarray, rule: QuadratureRule
) -> BandedMatrix:
    """Assemble the residual's Jacobian; constrained rows become identity rows."""
    _check_rule(dofmap, rule)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[0] != dofmap.n_global:
        raise ValueError("coefficient vector length mismatch")
    n = dofmap.n_elem
    h = 1.0 / n
    (v, d1, d2), (f, fp) = quadrature_fields(dofmap, coeffs, rule, h)
    wts = rule.weights
    c = 2.0 * problem.reynolds * problem.alpha
    a2 = 4.0 * problem.alpha**2
    oper = d2[None, :, :] + (c * f + a2)[:, None, :] * v[None, :, :]
    local = np.einsum("nq,iq,jq->nij", c * fp * wts, v, v) * h
    local += np.einsum("niq,jq->nij", oper * wts[None, None, :], d1) * h
    mat = BandedMatrix(dofmap.n_global, dofmap.half_bandwidth)
    mat.add_elements(dofmap.element_dofs, local)
    s1 = dofmap.endpoint(SLOPE, 1)
    mat.add_at(np.array([s1]), np.array([s1]), np.array([-1.0]))
    for i in dofmap.constraints:
        mat.set_identity_row(i)
    return mat


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12
    max_iter: int = 25


@dataclass(frozen=True)
class FemSolution:
    """A (possibly non-converged) discrete solution with Newton diagnostics."""

    mesh: Mesh1D
    family: ElementFamily
    coeffs: np.ndarray
    converged: bool
    newton_iters: int
    final_residual_norm: float
    norm_history: tuple = ()

    def evaluate(self, eta) -> tuple:
        """Evaluate (f, f', f'') at eta in [0, 1]; f'' is None for C0 elements."""
        scalar = np.isscalar(eta) or np.ndim(eta) == 0
        eta = np.atleast_1d(np.asarray(eta, dtype=np.float64))
        if np.any(eta < 0.0) or np.any(eta > 1.0):
            raise ValueError("evaluation points must lie in [0, 1]")
        n = self.mesh.n_elem
        h = 1.0 / n
        q = eta * n
        elem = np.minimum(q.astype(np.intp), n - 1)
        t = q - elem
        shapes = eval_family(self.family, t)
        p1 = self.family.degree + 1
        scale = np.ones(p1)
        if self.family.kind == HERMITE:
            scale[1] = h
            scale[3] = h
        dofs = self.dofmap.element_dofs[elem]  # (m, p+1)
        ce = self.coeffs[dofs] * scale
        f = np.einsum("mi,im->m", ce, shapes.values)
        fp = np.einsum("mi,im->m", ce, shapes.first_derivs) / h
        fpp = None
        if shapes.second_derivs is not None:
            fpp = np.einsum("mi,im->m", ce, shapes.second_derivs) / h**2
        if scalar:
            return float(f[0]), float(fp[0]), (None if fpp is None else float(fpp[0]))
        return f, fp, fpp

    @property
    def dofmap(self) -> DofMap:
        """The (unconstrained) DOF numbering that `coeffs` is ordered by."""
        return _dofmap(self.family, self.mesh.n_elem)

    def fp_right(self) -> float:
        """f'(1) read directly from the slope DOF at eta = 1."""
        if self.family.kind != HERMITE:
            raise ValueError("slope DOFs exist only for the Hermite family")
        return float(self.coeffs[self.dofmap.endpoint(SLOPE, 1)])


@lru_cache(maxsize=None)
def _dofmap(family: ElementFamily, n_elem: int) -> DofMap:
    return build_dofmap(build_mesh(n_elem), family)


def newton_loop(residual_fn, jacobian_fn, coeffs0, free_mask, opts: SolverOptions):
    """Shared Newton driver: extended-precision iterate, float64 linear solves.

    Returns (coeffs, converged, iters, final_norm, history); on failure the
    best iterate seen (by residual norm) is returned.
    """
    coeffs = coeffs0.astype(_LD, copy=True)
    history = []
    best = (np.inf, coeffs.copy())
    iters = 0
    converged = False
    rnorm = np.inf
    for _ in range(opts.max_iter + 1):
        res = residual_fn(coeffs)
        rnorm = float(np.max(np.abs(res[free_mask]))) if np.any(free_mask) else 0.0
        history.append(rnorm)
        if rnorm < best[0]:
            best = (rnorm, coeffs.copy())
        if rnorm <= opts.tol:
            converged = True
            break
        if iters >= opts.max_iter:
            break
        jac = jacobian_fn(coeffs.astype(np.float64))
        delta = solve_banded(jac, -res.astype(np.float64))
        coeffs = coeffs + delta.astype(_LD)
        iters += 1
    if not converged:
        coeffs = best[1]
        rnorm = best[0]
    return coeffs, converged, iters, rnorm, tuple(history)


def poiseuille_guess(dofmap: DofMap, dtype=_LD) -> np.ndarray:
    """Hermite interpolant of 1 - eta^2 (bubbles zero), constraints seeded."""
    scal = np.dtype(dtype).type
    nodes = np.linspace(0, 1, dofmap.n_elem + 1).astype(dtype)
    coeffs = np.zeros(dofmap.n_global, dtype=dtype)
    coeffs[dofmap.nodal_dofs(VALUE)] = 1 - nodes**2
    coeffs[dofmap.nodal_dofs(SLOPE)] = -2 * nodes
    for i, val in dofmap.constraints.items():
        coeffs[i] = scal(val)
    return coeffs


def newton_solve(
    problem: JhProblem,
    mesh: Mesh1D,
    family: ElementFamily,
    opts: SolverOptions | None = None,
) -> FemSolution:
    """Solve the wedge-flow problem on `mesh` with Hermite elements.

    Starts from the Poiseuille interpolant 1 - eta^2 and runs undamped Newton
    over a banded direct solver.  Non-convergence is reported through the
    returned solution's `converged` flag together with the residual-norm
    history; singular Jacobians raise SingularMatrixError.
    """
    if family.kind != HERMITE:
        raise ValueError("wedge-flow solves require the Hermite family")
    opts = opts or SolverOptions()
    dofmap = build_dofmap(mesh, family, jh_constraints())
    rule = gauss_legendre(required_points(family.degree))

    def res_fn(c):
        return assemble_residual(problem, dofmap, c, rule)

    def jac_fn(c):
        return assemble_jacobian(problem, dofmap, c, rule)

    coeffs0 = poiseuille_guess(dofmap)
    coeffs, converged, iters, rnorm, history = newton_loop(
        res_fn, jac_fn, coeffs0, dofmap.free_mask(), opts
    )
    out = coeffs.astype(np.float64)
    for i, val in dofmap.constraints.items():  # prescribed DOFs held exactly
        out[i] = val
    return FemSolution(
        mesh=mesh,
        family=family,
        coeffs=out,
        converged=converged,
        newton_iters=iters,
        final_residual_norm=rnorm,
        norm_history=history,
    )
