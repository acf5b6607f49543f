"""Wedge-flow weak-form assembly and the Newton/banded-LU nonlinear solver.

The radial-profile unknown f(eta) on [0, 1] satisfies

    f''' + 2 Re alpha f f' + 4 alpha^2 f' = 0,
    f(0) = 1,  f'(0) = 0,  f(1) = 0,

discretised with C1 Hermite elements.  Weak residual rows, with
(c, a2) = (2 Re alpha, 4 alpha^2) from `JhProblem.coefficients`, are

    R_i = int_0^1 f'(phi_i'' + c f phi_i + a2 phi_i) dx - f'(1) phi_i'(1).

Newton iterates are kept in extended precision (longdouble) while Jacobians
are factorised in float64; the value rows of the Jacobian scale like 1/h^2,
so float64 iterates alone cannot push the residual norm to the default
tolerance on fine meshes.  Residuals follow the dtype of the iterate they are
given: `newton_loop` evaluates them on a float64 copy while it is still far
from the root, where the float64 floor (about 1e-9 on fine meshes) lies far
below the residual, and in longdouble for the last steps and every stop
decision.  Every table lives on the reference element, one set per family,
rule and dtype (`_assembly_tables`), and the element size enters each call
one way: the element coefficients are multiplied by the slope factors s
(`_element_coeffs`), contracted with the reference tables, and the result is
scaled by the powers of h (and by s for test functions).  The map's band
layout is built once per map (`DofMap.pair_slices`, `DofMap.fixed_band`);
each call then runs a few large `np.dot` products, which, unlike `@`, have a
fast loop for longdouble.  `solve_banded` hands LAPACK one Fortran-ordered
copy of the band to factorise in place.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .basis import HERMITE, ElementFamily, ShapeEval, eval_family
from .meshing import SLOPE, VALUE, DofMap, Mesh1D, build_dofmap, jh_constraints
from .quadrature import QuadratureRule, gauss_legendre, required_points

_LD = np.longdouble
#: The smallest half-angle, 2^-512: below it 4 alpha^2 leaves float64's normal range.
MIN_ALPHA = float(np.sqrt(np.finfo(np.float64).tiny) / 2)


class SingularMatrixError(RuntimeError):
    """Raised when banded LU meets an (almost) zero pivot."""


@dataclass(frozen=True)
class FluidProps:
    """Dimensional fluid constants: kinematic viscosity nu and density rho."""

    nu: float
    rho: float

    def __post_init__(self):
        if not (0.0 < self.nu < np.inf and 0.0 < self.rho < np.inf):  # false for NaN too
            raise ValueError(f"nu and rho must be positive and finite, got {self.nu}, {self.rho}")

    @property
    def mu(self) -> float:
        """Dynamic viscosity rho * nu."""
        return self.rho * self.nu


@dataclass(frozen=True)
class JhProblem:
    """Parameter pair (Re, alpha); alpha is the wedge half-angle in radians."""

    reynolds: float
    alpha: float
    fluid: FluidProps | None = None

    def __post_init__(self):
        if not np.isfinite(self.reynolds):
            raise ValueError(f"reynolds must be finite, got {self.reynolds!r}")
        if not (MIN_ALPHA <= self.alpha < np.pi / 2):
            raise ValueError(f"alpha must lie in [{MIN_ALPHA:.3g}, pi/2) rad, got {self.alpha!r}")

    @property
    def lam(self) -> float:
        """The constant r * u_max = Re * nu / alpha (requires fluid props)."""
        if self.fluid is None:
            raise ValueError("lambda requires fluid properties")
        return self.reynolds * self.fluid.nu / self.alpha

    def coefficients(self, dtype=np.float64) -> tuple:
        """The ODE's coefficients (2 Re alpha, 4 alpha^2), computed in `dtype`."""
        scal = np.dtype(dtype).type
        alpha = scal(self.alpha)
        return scal(2.0) * scal(self.reynolds) * alpha, scal(4.0) * alpha**2


class BandedMatrix:
    """Square banded matrix in LAPACK general-band storage (kl = ku = k).

    Entry (i, j) lives at data[2k + i - j, j]; the top k rows are fill-in
    workspace for the LU factorisation.  Entries enter in two ways, both laid
    out by a DofMap: element blocks through `add_elements` and prescribed rows
    through `set_identity_rows`.
    """

    def __init__(self, n: int, k: int, dtype=np.float64):
        self.n = n
        self.k = k
        self.data = np.zeros((3 * k + 1, n), dtype=dtype)

    def add_elements(self, dofmap: DofMap, local: np.ndarray):
        """Scatter-add local[e, a, b] at (dofs[e, a], dofs[e, b]), dofs = `dofmap.element_dofs`.

        `local` is (n_elem, m, m).  Each local pair (a, b) is one strided slice
        of a band row (`DofMap.pair_slices`).  A band entry gets at most two
        contributions, from neighbouring elements, so the sum is exact in any
        order; it keeps the dtype of `data`.
        """
        self._check_fits(dofmap)
        m = dofmap.element_dofs.shape[1]
        for j, (d, cols) in enumerate(dofmap.pair_slices):
            self.data[2 * self.k + d, cols] += local[:, j // m, j % m]

    def set_identity_rows(self, dofmap: DofMap):
        """Make each prescribed row i of `dofmap` the identity row e_i.

        Zeroes the row's entries within the map's half-bandwidth, all that
        `add_elements` can write there (`DofMap.fixed_band`), and sets a_ii = 1.
        """
        self._check_fits(dofmap)
        d, j = dofmap.fixed_band
        self.data[2 * self.k + d, j] = 0.0
        self.data[2 * self.k, dofmap.fixed] = 1.0

    def _check_fits(self, dofmap: DofMap):
        if dofmap.n_global != self.n or dofmap.half_bandwidth > self.k:
            raise ValueError(f"map (n={dofmap.n_global}, k={dofmap.half_bandwidth}) does not "
                             f"fit the band (n={self.n}, k={self.k})")

    def _diagonals(self):
        """(rows, cols, entries) of each diagonal d = row - col, d = -k..k,
        that has an entry inside the matrix; rows and cols are slices."""
        for d in range(-self.k, self.k + 1):
            j0 = max(0, -d)
            j1 = min(self.n, self.n - d)
            if j0 < j1:
                yield slice(j0 + d, j1 + d), slice(j0, j1), self.data[2 * self.k + d, j0:j1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.n, dtype=np.result_type(self.data, x))
        for rows, cols, entries in self._diagonals():
            y[rows] += entries * x[cols]
        return y

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=self.data.dtype)
        index = np.arange(self.n)
        for rows, cols, entries in self._diagonals():
            a[index[rows], index[cols]] = entries
        return a

    def inf_norm(self) -> float:
        """max_i sum_j |a_ij|, in float64, adding the diagonals d = -k..k in turn."""
        rowsum = np.zeros(self.n, dtype=np.float64)
        for rows, _cols, entries in self._diagonals():
            rowsum[rows] += np.abs(entries).astype(np.float64, copy=False)
        return float(rowsum.max()) if self.n else 0.0


@lru_cache(maxsize=None)
def _dgbsv():
    """LAPACK `dgbsv`, loaded on the first banded solve (see `solve_banded`).

    The compiled extension `scipy.linalg._flapack` is loaded from its file,
    without running any package init: `find_spec("scipy")` and the
    `FileFinder` only look at the file system.  CPython enters a
    single-phase extension in `sys.modules` as it loads it; the entry is
    taken out again, because a later import of `scipy.linalg` would find it
    there and skip binding it as the package's attribute.  That import then
    loads the file normally and gets the same code and data.  When the
    extension is already imported, or cannot be loaded on its own,
    `scipy.linalg.lapack` supplies the same `dgbsv`.
    """
    name = "scipy.linalg._flapack"
    scipy_spec = None if name in sys.modules else importlib.util.find_spec("scipy")
    for location in (scipy_spec and scipy_spec.submodule_search_locations) or ():
        loaders = (ExtensionFileLoader, EXTENSION_SUFFIXES)
        spec = FileFinder(os.path.join(location, "linalg"), loaders).find_spec(name)
        if spec is None:
            continue
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.dgbsv
        except ImportError:  # e.g. its BLAS is found only through scipy's package init
            break
        finally:
            sys.modules.pop(name, None)
    from scipy.linalg import lapack

    return lapack.dgbsv


def solve_banded(a: BandedMatrix, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by banded LU with partial pivoting (LAPACK `dgbsv`).

    Raises SingularMatrixError (naming the pivot index) when a pivot is zero
    or falls below 1e-14 * ||a||_inf.  `dgbsv` comes from SciPy's compiled
    LAPACK extension (see `_dgbsv`), without importing `scipy.linalg`, whose
    package init takes several times longer than a whole CLI command runs.
    """
    if b.shape[0] != a.n:
        raise ValueError("right-hand side length mismatch")
    ab = np.array(a.data, dtype=np.float64, order="F")  # factorised in place; `a` is never written
    anorm = a.inf_norm()
    lub, _piv, x, info = _dgbsv()(a.k, a.k, ab, np.asarray(b, dtype=np.float64), overwrite_ab=1)
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
    """Per-function factors s: a Hermite slope DOF stores df/d(eta), so it weights its
    reference function, of unit slope in the element coordinate, by h.  Every other is 1."""
    scale = np.ones(family.degree + 1, dtype=dtype)
    if family.kind == HERMITE:  # a node's DOFs are (value, slope)
        scale[1:4:2] = h
    return scale


@lru_cache(maxsize=128)
def _reference_tables(family: ElementFamily, rule: QuadratureRule, dtype: np.dtype) -> ShapeEval:
    """Read-only `eval_family` tables at the points of `rule`.

    The key holds no mesh size: one entry per (family, rule, dtype) in use.  Rules key by
    identity, so the bound keeps a new rule built per call from growing the cache.
    """
    shapes = eval_family(family, rule.points.astype(dtype))
    for table in (shapes.values, shapes.first_derivs, shapes.second_derivs):
        if table is not None:
            table.setflags(write=False)
    return shapes


_Tables = namedtuple("_Tables", "v d1 weights test pairs const", defaults=(None,) * 2)


@lru_cache(maxsize=16)
def _assembly_tables(family: ElementFamily, rule: QuadratureRule, dtype: np.dtype) -> _Tables:
    """The assemblers' reference-element tables: v, d1, the weights and the residual's
    test table [d2; v]^T in `dtype`; for the Jacobian, in float64, P and D.  The key holds
    no mesh: one Newton solve uses a float64 and a longdouble set, which every mesh shares."""
    if family.kind != HERMITE:
        raise ValueError("wedge-flow assembly requires the Hermite family")
    need = 3 * family.degree - 1
    if rule.exactness < need:
        raise ValueError(f"rule exactness {rule.exactness} below required degree {need}")
    ref = _reference_tables(family, rule, dtype)
    v, d1, d2 = ref.values, ref.first_derivs, ref.second_derivs
    tables = _Tables(v, d1, rule.weights.astype(dtype), np.concatenate([d2.T, v.T]))
    if dtype == np.float64:  # the Jacobian's tables; it is always assembled in float64
        # P is (2 nq, m^2): rows q hold v_i v_j and rows nq + q hold v_i d1_j at point q;
        # D is sum_q w_q d2_i d1_j
        pairs = np.concatenate([np.einsum("iq,jq->qij", v, t, order="C") for t in (v, d1)])
        const = ((d2 * rule.weights) @ d1.T).ravel()
        tables = tables._replace(pairs=pairs.reshape(2 * rule.weights.size, -1), const=const)
    for table in tables[2:]:  # every mesh shares them; v and d1 are read-only already
        if table is not None:
            table.setflags(write=False)
    return tables


def _element_coeffs(dofmap: DofMap, coeffs: np.ndarray, elem=slice(None)) -> tuple:
    """(ce, s, h) in the dtype of `coeffs`: the coefficients of elements `elem` times the
    slope factors s (`_slope_scale`), so that they weight the reference functions, and
    h = 1 / n_elem.  Contracting ce with a reference table gives h^k times the k-th
    derivative; every evaluation and assembly scales by the powers of h after it."""
    h = coeffs.dtype.type(1) / dofmap.n_elem
    s = _slope_scale(dofmap.family, h, coeffs.dtype)
    ce = coeffs[dofmap.element_dofs[elem]]
    ce *= s
    return ce, s, h


def assemble_residual(
    problem: JhProblem, dofmap: DofMap, coeffs: np.ndarray, rule: QuadratureRule
) -> np.ndarray:
    """Assemble the weak-form residual at `coeffs`.

    Constrained rows carry (current value - prescribed value); all arithmetic
    follows the dtype of `coeffs`.
    """
    coeffs = np.asarray(coeffs)
    dtype = coeffs.dtype if np.issubdtype(coeffs.dtype, np.floating) else np.dtype(np.float64)
    tables = _assembly_tables(dofmap.family, rule, dtype)
    if coeffs.shape[0] != dofmap.n_global:
        raise ValueError("coefficient vector length mismatch")
    coeffs = coeffs.astype(dtype, copy=False)
    ce, s, h = _element_coeffs(dofmap, coeffs)
    f, fp = np.dot(ce, tables.v), np.dot(ce, tables.d1)
    c, a2 = problem.coefficients(dtype)
    # R_i = s_i sum_q (w fp / h^2 d2_i + (c f + a2) w fp v_i) with fp = h f': one product
    # of [w fp / h^2, (c f + a2) w fp] with [d2; v]^T; the halves are formed in place
    fp *= tables.weights
    f *= c
    f += a2
    f *= fp
    fp /= h**2
    local = np.dot(np.concatenate([fp, f], axis=1), tables.test)
    local *= s
    out = np.zeros(dofmap.n_global, dtype=dtype)
    dofmap.scatter_add(out, local)
    s1 = dofmap.endpoint(SLOPE, 1)
    out[s1] -= coeffs[s1]  # boundary term -f'(1) phi_i'(1)
    out[dofmap.fixed] = coeffs[dofmap.fixed] - dofmap.fixed_values  # float64 promotes exactly
    return out


def assemble_jacobian(
    problem: JhProblem, dofmap: DofMap, coeffs: np.ndarray, rule: QuadratureRule
) -> BandedMatrix:
    """Assemble the residual's Jacobian; constrained rows become identity rows."""
    tables = _assembly_tables(dofmap.family, rule, np.dtype(np.float64))
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[0] != dofmap.n_global:
        raise ValueError("coefficient vector length mismatch")
    ce, s, h = _element_coeffs(dofmap, coeffs)
    f, fp = np.dot(ce, tables.v), np.dot(ce, tables.d1)
    c, a2 = problem.coefficients()
    # all element blocks as ([c fp w, (c f + a2) w] P + D / h^2) (s x s), fp = h f'
    fp *= c
    fp *= tables.weights
    f *= c
    f += a2
    f *= tables.weights
    local = np.dot(np.concatenate([fp, f], axis=1), tables.pairs)
    local += tables.const / h**2
    local *= np.outer(s, s).ravel()
    local = local.reshape(*dofmap.element_dofs.shape, -1)
    s1 = dofmap.family.per_node + 1  # local index of the right node's slope: f'(1) on the last
    local[-1, s1, s1] -= 1.0  # boundary term -f'(1) phi_i'(1)
    mat = BandedMatrix(dofmap.n_global, dofmap.half_bandwidth)
    mat.add_elements(dofmap, local)
    mat.set_identity_rows(dofmap)
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


@dataclass(frozen=True, eq=False)
class FemSolution:
    """A (possibly non-converged) solution on the `dofmap` of its solve, with Newton diagnostics."""

    dofmap: DofMap
    coeffs: np.ndarray
    converged: bool
    newton_iters: int
    final_residual_norm: float
    norm_history: tuple = ()
    stop_reason: str = ""  # see newton_loop

    @classmethod
    def from_newton(cls, dofmap: DofMap, result: tuple) -> FemSolution:
        """Package a `newton_loop` result on `dofmap`, holding prescribed DOFs exactly."""
        coeffs, converged, iters, rnorm, history, stop_reason = result
        coeffs = coeffs.astype(np.float64)
        coeffs[dofmap.fixed] = dofmap.fixed_values
        return cls(dofmap, coeffs, converged, iters, rnorm, history, stop_reason)

    @property
    def family(self) -> ElementFamily:
        return self.dofmap.family

    def fields(self, elem, shapes: ShapeEval) -> tuple:
        """(f, f', f'') on elements `elem` at the points of `shapes`, an `eval_family` table;
        the two broadcast together.  The one contraction of `coeffs`, in their dtype: an einsum,
        not BLAS, so every caller gets the same bits at a point.  f'' is None for C0 families."""
        ce, _s, h = _element_coeffs(self.dofmap, self.coeffs, elem)  # (..., p+1)
        tables = (shapes.values, shapes.first_derivs, shapes.second_derivs)
        return tuple(None if t is None else np.einsum("...i,...i->...", ce, t.T) / h**k
                     for k, t in enumerate(tables))

    def at_rule(self, rule: QuadratureRule) -> tuple:
        """(f, f', f'') on every element at the points of `rule`, each (n_elem, len(points))."""
        return self.fields(np.arange(self.dofmap.n_elem)[:, None],
                           _reference_tables(self.family, rule, self.coeffs.dtype))

    def f_range(self) -> tuple[float, float]:
        """(max f, min f) at the points of the solve's own rule; only f is contracted."""
        rule = gauss_legendre(required_points(self.family.degree))
        values = _reference_tables(self.family, rule, self.coeffs.dtype).values
        f = self.fields(np.arange(self.dofmap.n_elem)[:, None], ShapeEval(values, None))[0]
        return float(f.max()), float(f.min())

    def evaluate(self, eta) -> tuple:
        """Evaluate (f, f', f'') at eta in [0, 1]; f'' is None for C0 elements."""

        def fields_at(points):
            n = self.dofmap.n_elem
            q = points * n
            elem = np.minimum(q.astype(np.intp), n - 1)
            shapes = eval_family(self.family, (q - elem).astype(self.coeffs.dtype, copy=False))
            return self.fields(elem, shapes)

        return evaluate_on_unit_interval(eta, fields_at)

    def fp_right(self) -> float:
        """f'(1) read directly from the slope DOF at eta = 1 (Hermite families only)."""
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
    again on the longdouble iterate and the decision is made on that.  So is
    a float64 residual at most FLOAT64_STEP times the last norm: one that fell
    a millionfold in a step (a linear problem's first step) may sit on the
    float64 floor, and a step computed from it would only land there.  So the
    final norm, the last history entry and the returned best iterate's norm
    all come from the longdouble iterate.

    The loop stops on the first of:

    - "residual": the max-norm of the free residual rows is <= opts.tol and
      the predicted next step ||d_k||^3 / ||d_{k-1}||^2 is <= opts.tol as
      well (always true before the second step, so a linear solve stops after
      one step, or on fine meshes after two: the first step comes from a
      float64 residual and leaves the iterate on the float64 floor);
    - "max_iter": opts.max_iter steps were taken;
    - "roundoff": the last step was at roundoff level (ROUNDOFF_STEP) and at
      most half the step before it, so the iterate has converged as far as
      float64 corrections can take it (Deuflhard's affine-invariant step test);
    - "stagnated": the last step was at roundoff level without contracting.

    Only "residual" and "roundoff" count as converged.  On failure the best
    iterate seen (by residual norm) is returned.
    """
    coeffs = coeffs0.astype(_LD, copy=True)
    free = np.flatnonzero(free_mask)

    def evaluate(x):
        res = residual_fn(x)
        return res, (float(np.max(np.abs(res[free]))) if free.size else 0.0)

    history = []
    x64 = coeffs.astype(np.float64)
    best = (np.inf, coeffs, True)  # iterates are replaced, never written in place
    iters = 0
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
        res, rnorm = evaluate(coeffs if extended else x64)
        # a roundoff stop needs no check here: its step, at most ROUNDOFF_STEP * scale,
        # is not `far`, so `extended` is already set
        fell = history and rnorm <= FLOAT64_STEP * history[-1]
        if not extended and (rnorm <= opts.tol or iters >= opts.max_iter or fell):
            extended = True
            res, rnorm = evaluate(coeffs)
        history.append(rnorm)
        if rnorm < best[0]:
            best = (rnorm, coeffs, extended)
        if rnorm <= opts.tol and (prev_step == np.inf or predicted <= opts.tol):
            stop_reason = "residual"
            break
        if iters >= opts.max_iter:
            break
        if at_roundoff:
            stop_reason = "roundoff" if step <= 0.5 * prev_step else "stagnated"
            break
        delta = solve_banded(jacobian_fn(x64), np.negative(res, dtype=np.float64))
        coeffs = np.add(coeffs, delta, dtype=_LD)
        x64 = coeffs.astype(np.float64)
        iters += 1
        prev_step, step = step, float(np.max(np.abs(delta)))
        scale = max(1.0, float(np.max(np.abs(x64))))  # rounding is monotonic: the same max
        at_roundoff = step <= ROUNDOFF_STEP * scale
    converged = stop_reason in ("residual", "roundoff")
    if not converged:
        rnorm, coeffs, best_extended = best
        if not best_extended:
            rnorm = evaluate(coeffs)[1]
    return coeffs, converged, iters, rnorm, tuple(history), stop_reason


def poiseuille_guess(dofmap: DofMap) -> np.ndarray:
    """Hermite interpolant of 1 - eta^2 (bubbles zero) in longdouble, constraints seeded."""
    nodes = np.linspace(0, 1, dofmap.n_elem + 1).astype(_LD)
    coeffs = np.zeros(dofmap.n_global, dtype=_LD)
    coeffs[dofmap.nodal_dofs(VALUE)] = 1 - nodes**2
    coeffs[dofmap.nodal_dofs(SLOPE)] = -2 * nodes
    coeffs[dofmap.fixed] = dofmap.fixed_values
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
    return FemSolution.from_newton(dofmap, result)
