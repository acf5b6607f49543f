"""Wedge-flow weak-form assembly and the Newton/banded-LU nonlinear solver.

The radial-profile unknown f(eta) on [0, 1] satisfies

    f''' + 2 Re alpha f f' + 4 alpha^2 f' = 0,
    f(0) = 1,  f'(0) = 0,  f(1) = 0,

discretised with C1 Hermite elements.  Weak residual rows are

    R_i = int_0^1 f'(phi_i'' + 2 Re alpha f phi_i + 4 alpha^2 phi_i) dx
          - f'(1) phi_i'(1).

Newton iterates are kept in extended precision (longdouble) while Jacobians
are factorised in float64; the value rows of the Jacobian scale like 1/h^2,
so float64 iterates alone cannot push the residual norm to the default
tolerance on fine meshes.  Residuals follow the dtype of the iterate they are
given: `newton_loop` evaluates them on a float64 copy while it is still far
from the root, where the float64 floor (about 1e-9 on fine meshes) lies far
below the residual, and in longdouble for the last steps and every stop
decision.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import (
    EXTENSION_SUFFIXES,
    SOURCE_SUFFIXES,
    ExtensionFileLoader,
    FileFinder,
    SourceFileLoader,
)

import numpy as np

from .basis import HERMITE, ElementFamily, ShapeEval, eval_family
from .meshing import SLOPE, VALUE, DofMap, Mesh1D, build_dofmap, build_mesh, column_slices, jh_constraints
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
        if not (0.0 < self.nu < np.inf and 0.0 < self.rho < np.inf):  # false for NaN too
            raise ValueError(f"nu and rho must be positive and finite, got {self.nu}, {self.rho}")
        if self.mu is None:
            object.__setattr__(self, "mu", self.rho * self.nu)
        elif not abs(self.mu - self.rho * self.nu) <= 1e-14 * self.rho * self.nu:
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
        Each local pair (a, b) is one strided slice of band row
        2k + dofs[a] - dofs[b] (see `column_slices`).  A band entry gets at
        most two contributions, from neighbouring elements, so the sum is
        exact in any order; it keeps the dtype of `data`.
        """
        first, stride, span = column_slices(element_dofs)
        if max(first) - min(first) > self.k:
            raise ValueError("entry outside declared half-bandwidth")
        local = np.broadcast_to(local, element_dofs.shape + element_dofs.shape[1:])
        for a, row in enumerate(first):
            for b, col in enumerate(first):
                self.data[2 * self.k + row - col, col : col + span : stride] += local[:, a, b]

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


def load_scipy_module(name: str):
    """Load the module `scipy.<name>` from its file without running any package init.

    `name` is dotted below `scipy`, e.g. "linalg._flapack" (a compiled
    extension) or "integrate._ivp.dop853_coefficients" (a source file).
    Returns the module, or None when SciPy has no such file or the module
    cannot be loaded on its own; a module that is already imported is
    returned as it is.  `find_spec("scipy")` and the `FileFinder` only look
    at the file system.  CPython enters a single-phase extension in
    `sys.modules` as it loads it; the entry is taken out again, because a
    later import of the package would find it there and skip binding it as
    the package's attribute.  That import then loads the file normally and
    gets the same code and data.
    """
    fullname = f"scipy.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy_spec = importlib.util.find_spec("scipy")
    locations = scipy_spec.submodule_search_locations if scipy_spec else None
    for location in locations or ():
        spec = FileFinder(
            os.path.join(location, *name.split(".")[:-1]),
            (ExtensionFileLoader, EXTENSION_SUFFIXES),
            (SourceFileLoader, SOURCE_SUFFIXES),
        ).find_spec(fullname)
        if spec is not None:
            break
    else:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:  # e.g. its BLAS is found only through scipy's package init
        return None
    finally:
        sys.modules.pop(fullname, None)
    return module


@lru_cache(maxsize=None)
def _dgbsv():
    """LAPACK `dgbsv`, loaded on the first banded solve (see `solve_banded`)."""
    flapack = load_scipy_module("linalg._flapack")
    if flapack is None:
        from scipy.linalg import lapack as flapack
    return flapack.dgbsv


def solve_banded(a: BandedMatrix, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by banded LU with partial pivoting (LAPACK `dgbsv`).

    Raises SingularMatrixError (naming the pivot index) when a pivot is zero
    or falls below 1e-14 * ||a||_inf.

    `dgbsv` comes from SciPy's compiled LAPACK extension, loaded directly on
    the first call.  `scipy.linalg.lapack` re-exports the same routines, but
    importing `scipy.linalg` takes several times longer than a whole
    non-shooting CLI command runs: its package init loads the array-API
    shim, which imports `numpy.f2py`, `numpy.testing`, `numpy.random` and
    `numpy.ma`.  When `scipy.linalg` is already imported, its extension is
    used; when the extension cannot be loaded by itself, `scipy.linalg.lapack`
    is imported instead.  Each runs the same routine, so the solution is
    bit-identical either way.
    """
    if b.shape[0] != a.n:
        raise ValueError("right-hand side length mismatch")
    ab = a.data.astype(np.float64, copy=True)
    anorm = a.inf_norm()
    lub, _piv, x, info = _dgbsv()(a.k, a.k, ab, np.asarray(b, dtype=np.float64))
    if info < 0:
        raise ValueError(f"illegal argument {-info} to banded solver")
    if info > 0:
        raise SingularMatrixError(f"zero pivot at index {info - 1}")
    udiag = np.abs(lub[2 * a.k, :])
    small = udiag < 1e-14 * max(anorm, 1e-300)
    if np.any(small):
        raise SingularMatrixError(f"near-zero pivot at index {int(np.argmin(udiag))}")
    return x


def _slope_scale(family: ElementFamily, h, dtype) -> np.ndarray:
    """Per-function factors that put Hermite slope DOFs in physical units.

    Hermite slope DOFs store df/d(eta); the corresponding reference functions
    are scaled by h, so evaluation against physical-derivative operators needs
    only the 1/h and 1/h^2 chain factors.  Every other factor is 1.
    """
    scale = np.ones(family.degree + 1, dtype=dtype)
    if family.kind == HERMITE:
        scale[1] = h
        scale[3] = h
    return scale


@lru_cache(maxsize=None)
def _reference_tables(family: ElementFamily, points: bytes, dtype: np.dtype) -> ShapeEval:
    """Read-only `eval_family` tables at the float64 rule points `points`.

    The key holds no mesh size, so the cache stays bounded: one entry per
    (family, rule, dtype) in use.
    """
    shapes = eval_family(family, np.frombuffer(points).astype(dtype))
    for table in (shapes.values, shapes.first_derivs, shapes.second_derivs):
        if table is not None:
            table.setflags(write=False)
    return shapes


def basis_tables(family: ElementFamily, shapes: ShapeEval, h) -> tuple:
    """Physical basis tables (v, d1, d2) on elements of size h.

    `shapes` is an `eval_family` result; the tables get the physical-slope
    scaling (`_slope_scale`) and the 1/h and 1/h^2 chain factors, in the
    dtype of `shapes`.  d2 is None for C0 families.  This is the only place
    that maps reference tables to physical ones.
    """
    dtype = shapes.values.dtype
    h = dtype.type(h)
    scale = _slope_scale(family, h, dtype)[:, None]
    v = shapes.values * scale
    d1 = shapes.first_derivs * scale / h
    d2 = None
    if shapes.second_derivs is not None:
        d2 = shapes.second_derivs * scale / h**2
    return v, d1, d2


@lru_cache(maxsize=None)
def _reference_pairs(family: ElementFamily, points: bytes, weights: bytes):
    """Read-only h-free pair tables (P, D) of `assemble_jacobian`, in float64.

    P is (2 nq, m^2): rows q hold v_i v_j and rows nq + q hold v_i d1_j at
    point q, for the m = p + 1 reference functions; D is sum_q w_q d2_i d1_j,
    flattened to m^2.  Keyed like `_reference_tables`; `assemble_jacobian`
    applies the mesh size.
    """
    shapes = _reference_tables(family, points, np.dtype(np.float64))
    v, d1, d2 = shapes.values, shapes.first_derivs, shapes.second_derivs
    m, nq = v.shape
    prods = np.concatenate([v[:, None, :] * v[None, :, :], v[:, None, :] * d1[None, :, :]], axis=2)
    pairs = prods.reshape(m * m, 2 * nq).T.copy()
    const = ((d2 * np.frombuffer(weights)) @ d1.T).ravel()
    for table in (pairs, const):
        table.setflags(write=False)
    return pairs, const


def quadrature_fields(
    dofmap: DofMap, coeffs: np.ndarray, rule: QuadratureRule, h, n_derivs: int = 1
):
    """Basis tables and the field `coeffs` at the rule points of every element.

    Returns (tables, fields): `tables` is (v, d1, d2), each (p+1, nq) with the
    physical-slope scaling applied (d2 is None for C0 families), and `fields`
    is (f, f', ...) up to derivative `n_derivs`, each (n_elem, nq).  All
    arithmetic follows the dtype of `coeffs`.
    """
    shapes = _reference_tables(dofmap.family, rule.points.tobytes(), coeffs.dtype)
    tables = basis_tables(dofmap.family, shapes, h)
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
    c = scal(2.0) * scal(problem.reynolds) * scal(problem.alpha)
    a2 = scal(4.0) * scal(problem.alpha) ** 2
    # R_i = h sum_q f' w (phi_i'' + (c f + 4 alpha^2) phi_i): one product over [d2; v]
    fpw = fp * rule.weights.astype(dtype)
    tables = np.concatenate([d2, v], axis=1).T * h  # (2 nq, p + 1)
    local = np.concatenate([fpw, (c * f + a2) * fpw], axis=1) @ tables
    out = np.zeros(dofmap.n_global, dtype=dtype)
    dofmap.scatter_add(out, local)
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
    _, (f, fp) = quadrature_fields(dofmap, coeffs, rule, h)
    wts = rule.weights
    c = 2.0 * problem.reynolds * problem.alpha
    a2 = 4.0 * problem.alpha**2
    pairs, const = _reference_pairs(dofmap.family, rule.points.tobytes(), wts.tobytes())
    # physical-slope factors s_i s_j (`_slope_scale`) with the chain factors:
    # h * (v_i v_j, v_i d1_j, d2_i d1_j) carry s_i s_j * (h, 1, 1 / h^2)
    scale = _slope_scale(dofmap.family, h, np.float64)
    scale = np.outer(scale, scale).ravel()
    pairs = pairs * scale
    pairs[: wts.size] *= h
    local = np.concatenate([c * fp * wts, (c * f + a2) * wts], axis=1) @ pairs
    local += const * (scale / h**2)
    m = dofmap.family.degree + 1
    mat = BandedMatrix(dofmap.n_global, dofmap.half_bandwidth)
    mat.add_elements(dofmap.element_dofs, local.reshape(n, m, m))
    s1 = dofmap.endpoint(SLOPE, 1)
    mat.add_at(np.array([s1]), np.array([s1]), np.array([-1.0]))
    for i in dofmap.constraints:
        mat.set_identity_row(i)
    return mat


@dataclass(frozen=True)
class SolverOptions:
    """Newton settings; tol 0 iterates until the steps reach roundoff."""

    tol: float = 1e-12
    max_iter: int = 25

    def __post_init__(self):
        if not 0.0 <= self.tol < np.inf:  # false for NaN too
            raise ValueError(f"newton tol must be finite and >= 0, got {self.tol!r}")
        n = self.max_iter
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"max_iter must be an integer >= 0, got {n!r}")


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
    stop_reason: str = ""  # see newton_loop

    @classmethod
    def from_newton(cls, mesh: Mesh1D, dofmap: DofMap, result: tuple) -> FemSolution:
        """Package a `newton_loop` result on `dofmap`, holding prescribed DOFs exactly."""
        coeffs, converged, iters, rnorm, history, stop_reason = result
        coeffs = coeffs.astype(np.float64)
        for i, val in dofmap.constraints.items():
            coeffs[i] = val
        return cls(mesh, dofmap.family, coeffs, converged, iters, rnorm, history, stop_reason)

    def evaluate(self, eta) -> tuple:
        """Evaluate (f, f', f'') at eta in [0, 1]; f'' is None for C0 elements."""

        def fields_at(points):
            n = self.mesh.n_elem
            q = points * n
            elem = np.minimum(q.astype(np.intp), n - 1)
            tables = basis_tables(self.family, eval_family(self.family, q - elem), 1.0 / n)
            ce = self.coeffs[self.dofmap.element_dofs[elem]]  # (m, p+1)
            return [None if t is None else np.einsum("mi,im->m", ce, t) for t in tables]

        return evaluate_on_unit_interval(eta, fields_at)

    @property
    def dofmap(self) -> DofMap:
        """The (unconstrained) DOF numbering that `coeffs` is ordered by."""
        return _dofmap(self.family, self.mesh.n_elem)

    def fp_right(self) -> float:
        """f'(1) read directly from the slope DOF at eta = 1."""
        if self.family.kind != HERMITE:
            raise ValueError("slope DOFs exist only for the Hermite family")
        return float(self.coeffs[self.dofmap.endpoint(SLOPE, 1)])


def evaluate_on_unit_interval(eta, fields_at) -> tuple:
    """`fields_at(points)` at eta in [0, 1]; floats (or None) when eta is a scalar.

    `points` is eta as a 1-D float64 array, and `fields_at` returns one array
    (or None) per field over it.  Raises ValueError unless every point lies
    in [0, 1], which NaN never does.
    """
    points = np.atleast_1d(np.asarray(eta, dtype=np.float64))
    if not np.all((points >= 0.0) & (points <= 1.0)):
        raise ValueError("evaluation points must lie in [0, 1]")
    fields = tuple(fields_at(points))
    if np.ndim(eta) == 0:
        return tuple(None if a is None else float(a[0]) for a in fields)
    return fields


@lru_cache(maxsize=None)
def _dofmap(family: ElementFamily, n_elem: int) -> DofMap:
    return build_dofmap(build_mesh(n_elem), family)


#: A Newton step no larger than this times max(1, ||x||_inf) moves the
#: iterate only by roundoff (about 450 float64 ulps).  Iterating on then
#: cannot improve it, whatever the residual reads: its floor grows like N^2.
ROUNDOFF_STEP = 1e-13

#: Newton is "far from the root" while the last step and the next step
#: predicted from the last two both exceed this times max(1, ||x||_inf).
#: Far iterates have residuals of 1e-2 to 1e-4, so they are evaluated in
#: float64 (BLAS); nearer ones, and every stop decision, in longdouble.
FLOAT64_STEP = 1e-6


def newton_loop(residual_fn, jacobian_fn, coeffs0, free_mask, opts: SolverOptions):
    """Shared Newton driver: extended-precision iterate, float64 linear solves.

    Returns (coeffs, converged, iters, final_norm, history, stop_reason).

    Precision schedule: with d_k the last step, d_{k-1} the one before it and
    s = max(1, ||x||_inf), the residual at iterate k is evaluated on a float64
    copy of x while ||d_k|| > FLOAT64_STEP * s and the quadratic prediction of
    the next step, ||d_k||^3 / ||d_{k-1}||^2, exceeds FLOAT64_STEP * s too
    (there is no prediction before the second step).  From the first
    longdouble evaluation on, the loop stays in longdouble.  A float64
    residual never ends the loop: when one could (its norm is <= opts.tol, or
    the loop is about to stop for another reason), the residual is evaluated
    again on the longdouble iterate and the decision is made on that.  So the
    final norm, the last history entry and the returned best iterate's norm
    all come from the longdouble iterate.

    The loop stops on the first of:

    - "residual": the max-norm of the free residual rows is <= opts.tol and
      the predicted next step ||d_k||^3 / ||d_{k-1}||^2 is <= opts.tol as
      well (always true before the second step, so a linear solve stops after
      one step);
    - "max_iter": opts.max_iter steps were taken;
    - "roundoff": the last step was at roundoff level (ROUNDOFF_STEP) and at
      most half the step before it, so the iterate has converged as far as
      float64 corrections can take it (Deuflhard's affine-invariant step test);
    - "stagnated": the last step was at roundoff level without contracting.

    Only "residual" and "roundoff" count as converged.  On failure the best
    iterate seen (by residual norm) is returned.
    """
    coeffs = coeffs0.astype(_LD, copy=True)

    def evaluate(x):
        res = residual_fn(x)
        return res, (float(np.max(np.abs(res[free_mask]))) if np.any(free_mask) else 0.0)

    history = []
    best = (np.inf, coeffs.copy(), True)
    iters = 0
    rnorm = np.inf
    stop_reason = "max_iter"
    step = prev_step = np.inf
    scale = 1.0
    at_roundoff = False
    extended = False  # once set, every later residual is longdouble
    for _ in range(opts.max_iter + 1):
        if prev_step == np.inf:
            predicted = np.inf
        else:
            ratio = step / prev_step  # multiplied, not squared: no OverflowError
            predicted = step * ratio * ratio
        far = step > FLOAT64_STEP * scale and predicted > FLOAT64_STEP * scale
        extended = extended or not far
        x64 = coeffs.astype(np.float64)
        res, rnorm = evaluate(coeffs if extended else x64)
        if not extended and (rnorm <= opts.tol or iters >= opts.max_iter or at_roundoff):
            extended = True
            res, rnorm = evaluate(coeffs)
        history.append(rnorm)
        if rnorm < best[0]:
            best = (rnorm, coeffs.copy(), extended)
        if rnorm <= opts.tol and (prev_step == np.inf or predicted <= opts.tol):
            stop_reason = "residual"
            break
        if iters >= opts.max_iter:
            break
        if at_roundoff:
            stop_reason = "roundoff" if step <= 0.5 * prev_step else "stagnated"
            break
        delta = solve_banded(jacobian_fn(x64), -res.astype(np.float64))
        coeffs = coeffs + delta.astype(_LD)
        iters += 1
        prev_step, step = step, float(np.max(np.abs(delta)))
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        at_roundoff = step <= ROUNDOFF_STEP * scale
    converged = stop_reason in ("residual", "roundoff")
    if not converged:
        rnorm, coeffs, best_extended = best
        if not best_extended:
            rnorm = evaluate(coeffs)[1]
    return coeffs, converged, iters, rnorm, tuple(history), stop_reason


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
    history and `stop_reason`; singular Jacobians raise SingularMatrixError.
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

    result = newton_loop(res_fn, jac_fn, poiseuille_guess(dofmap), dofmap.free_mask(), opts)
    return FemSolution.from_newton(mesh, dofmap, result)
