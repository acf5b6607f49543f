import json
import math

import numpy as np
import pytest

import wedgeflow as wf
from wedgeflow import solver
from conftest import CASES, FAMILIES, make_problem, run_fresh

# Tabulated f(0.5) / f(0.9) reference values for the three cases at N=320, p=4.
TABLE_SPOTS = {
    (30.0, 15.0): (0.5, 4.9758671435e-1),
    (110.0, 3.0): (0.5, 5.8049945880e-1),
    (-80.0, 5.0): (0.9, 2.9155874262e-1),
}

# Single-element residual at coeffs = (1, 0, 0, 0), (Re, alpha) = (30, pi/12):
# exact values [pi(-120-pi)/72, 1 - 25pi/84 - pi^2/360, pi(-60-pi)/72,
# -1 + pi^2/360 + 17pi/84] from symbolic integration of the weak form.
SINGLE_ELEMENT_RESIDUAL = [
    -5.373065594887008,
    0.037586618650805384,
    -2.7550717168955132,
    -0.33678591899269045,
]


def _dofmap(table, n_global, half_bandwidth):
    """A DofMap over a hand-made element table, with no prescribed DOFs."""
    table = np.array(table)
    no_dofs = np.array([], dtype=np.intp)
    family = wf.hierarchic_family(table.shape[1] - 1)
    return wf.DofMap(family, table, n_global, half_bandwidth, no_dofs, no_dofs.astype(float))


def banded_from_dense(dense: np.ndarray, k: int) -> wf.BandedMatrix:
    """`dense` (zero outside |i - j| <= k) as a BandedMatrix of half-bandwidth k,
    entered through `add_elements` on a map whose element e holds DOFs e..e+k.
    Each entry is put in exactly one element, so the band holds it bit for bit."""
    n = dense.shape[0]
    n_elem = n - k
    dofmap = _dofmap(np.arange(n_elem)[:, None] + np.arange(k + 1), n, k)
    local = np.zeros((n_elem, k + 1, k + 1), dtype=dense.dtype)
    for i, j in zip(*np.nonzero(dense)):
        e = min(i, j, n_elem - 1)
        local[e, i - e, j - e] = dense[i, j]
    mat = wf.BandedMatrix(n, k, dtype=dense.dtype)
    mat.add_elements(dofmap, local)
    assert np.array_equal(mat.to_dense(), dense)
    return mat


def random_band(rng, n, k, diagonal_shift=0.0) -> np.ndarray:
    i, j = np.indices((n, n))
    return np.where(np.abs(i - j) <= k, rng.standard_normal((n, n)), 0.0) + diagonal_shift * np.eye(n)


def test_banded_identity_solve():
    mat = banded_from_dense(np.eye(4), 1)
    b = np.array([3.0, -1.0, 0.5, 2.0])
    np.testing.assert_allclose(wf.solve_banded(mat, b), b, atol=0)


def test_banded_2x2_solve():
    mat = banded_from_dense(np.array([[2.0, 1.0], [1.0, 3.0]]), 1)
    x = wf.solve_banded(mat, np.array([3.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_banded_random_diagonally_dominant():
    rng = np.random.default_rng(3)
    n, k = 50, 4
    mat = banded_from_dense(random_band(rng, n, k, 2.0 * (2 * k + 1)), k)
    b = rng.standard_normal(n)
    x = wf.solve_banded(mat, b)
    resid = np.max(np.abs(mat.matvec(x) - b))
    bound = 1e-10 * (mat.inf_norm() * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert resid <= bound


def test_banded_matvec_matches_dense():
    rng = np.random.default_rng(11)
    dense = random_band(rng, 9, 2)
    mat = banded_from_dense(dense, 2)
    x = rng.standard_normal(9)
    np.testing.assert_allclose(mat.matvec(x), dense @ x, atol=1e-14)


def test_banded_singular_names_pivot():
    mat = banded_from_dense(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]), 1)
    with pytest.raises(wf.SingularMatrixError) as exc:  # rank-deficient
        wf.solve_banded(mat, np.ones(3))
    assert "pivot at index" in str(exc.value)


def test_banded_near_zero_pivot_names_index():
    # LU leaves the pivot 1.1e-15, below 1e-14 * ||a||_inf = 2e-14, but not zero
    mat = banded_from_dense(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), 1)
    with pytest.raises(wf.SingularMatrixError, match="^near-zero pivot at index 1$"):
        wf.solve_banded(mat, np.ones(2))


# Runs in a fresh interpreter: solves the p=4, N=320 Newton Jacobian at
# (30, 15 deg) and a singular matrix with `solve_banded`, after preparing the
# LAPACK loading path named in argv[1].  Prints the solution's bytes, the
# singular-matrix error and whether scipy.linalg ended up in sys.modules.
LAPACK_PATH_SCRIPT = """
import json, math, sys
import numpy as np
import wedgeflow as wf
from wedgeflow import solver

if sys.argv[1] == "scipy-linalg-first":
    import scipy.linalg
elif sys.argv[1] == "not-found":
    solver.EXTENSION_SUFFIXES = [".no-such-suffix"]
elif sys.argv[1] == "load-fails":
    class FailingLoader(solver.ExtensionFileLoader):
        def create_module(self, spec):
            raise ImportError("simulated: shared library not found")
    solver.ExtensionFileLoader = FailingLoader
dofmap = wf.build_dofmap(wf.build_mesh(320), wf.hermite_family(4), wf.jh_constraints())
problem = wf.JhProblem(30.0, math.radians(15.0))
rule = wf.gauss_legendre(wf.required_points(4))
coeffs = wf.poiseuille_guess(dofmap).astype(np.float64)
jac = wf.assemble_jacobian(problem, dofmap, coeffs, rule)
x = wf.solve_banded(jac, -wf.assemble_residual(problem, dofmap, coeffs, rule))
line = wf.build_dofmap(wf.build_mesh(2), wf.hierarchic_family(1))  # two elements, three DOFs
singular = wf.BandedMatrix(3, 1)  # rank-deficient: rows (1, 2, 0), (2, 4, 0), (0, 0, 1)
singular.add_elements(line, np.array([[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 1.0]]]))
try:
    wf.solve_banded(singular, np.ones(3))
    error = None
except wf.SingularMatrixError as exc:
    error = str(exc)
print(json.dumps([x.tobytes().hex(), error, "scipy.linalg" in sys.modules]))
"""


def test_lapack_loading_paths_solve_bit_identically():
    results = {
        path: json.loads(run_fresh(LAPACK_PATH_SCRIPT, path).stdout)
        for path in ("direct", "scipy-linalg-first", "not-found", "load-fails")
    }
    assert len({x_hex for x_hex, _error, _loaded in results.values()}) == 1
    for x_hex, error, scipy_linalg_loaded in results.values():
        assert error is not None and "pivot at index" in error
    assert {path: r[2] for path, r in results.items()} == {
        "direct": False, "scipy-linalg-first": True, "not-found": True, "load-fails": True
    }


def test_solver_options_reject_bad_tolerances():
    for bad in (math.inf, -math.inf, math.nan, -1.0, -1e-300):
        with pytest.raises(ValueError, match="newton tol"):
            wf.SolverOptions(tol=bad)
    assert wf.SolverOptions(tol=0.0).tol == 0.0  # iterate to roundoff


@pytest.mark.parametrize("bad", [-1, 2.5, True, None, "3"])
def test_solver_options_reject_bad_max_iter(bad):
    with pytest.raises(ValueError, match="max_iter"):
        wf.SolverOptions(max_iter=bad)


def test_max_iter_zero_evaluates_the_guess_once():
    fem = wf.newton_solve(
        make_problem(30.0, 15.0), wf.build_mesh(20), wf.hermite_family(3),
        wf.SolverOptions(max_iter=np.int64(0)),
    )
    assert fem.newton_iters == 0 and fem.stop_reason == "max_iter"
    assert len(fem.norm_history) == 1 and 0.0 < fem.final_residual_norm < np.inf


def _add_at_loop(k, n_global, element_dofs, local):
    """Reference band storage: np.add.at of every local (a, b) entry at data[2k + i - j, j]."""
    data = np.zeros((3 * k + 1, n_global), dtype=local.dtype)
    for a in range(element_dofs.shape[1]):
        for b in range(element_dofs.shape[1]):
            i, j = element_dofs[:, a], element_dofs[:, b]
            np.add.at(data, (2 * k + i - j, j), local[:, a, b])
    return data


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [1, 7, 640])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-p{f.degree}")
def test_add_elements_matches_add_at_loop(family, n, dtype):
    dm = wf.build_dofmap(wf.build_mesh(n), family)
    p1 = family.degree + 1
    # division in `dtype` fills the longdouble mantissa beyond float64's
    local = np.random.default_rng(n).standard_normal((n, p1, p1)).astype(dtype) / dtype(3)
    for k in (dm.half_bandwidth, dm.half_bandwidth + 2):  # the map's band and a wider one
        mat = wf.BandedMatrix(dm.n_global, k, dtype=dtype)
        mat.add_elements(dm, local)
        assert mat.data.dtype == np.dtype(dtype)
        assert np.array_equal(mat.data, _add_at_loop(k, dm.n_global, dm.element_dofs, local))


def _endpoint_keys(family):
    kinds = (wf.VALUE, wf.SLOPE) if family.per_node == 2 else (wf.VALUE,)
    return [(kind, side) for kind in kinds for side in (0, 1)]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-p{f.degree}")
def test_set_identity_rows_matches_dense_reference(family, n, dtype):
    keys = _endpoint_keys(family)
    p1 = family.degree + 1
    local = np.random.default_rng(n).standard_normal((n, p1, p1)).astype(dtype) / dtype(3)
    for chosen in range(2 ** len(keys)):  # every subset of the endpoint constraints
        bcs = {key: 1.0 for bit, key in enumerate(keys) if chosen >> bit & 1}
        dm = wf.build_dofmap(wf.build_mesh(n), family, bcs)
        assert dm.fixed.size == len(bcs)
        for k in (dm.half_bandwidth, dm.half_bandwidth + 2):  # the map's band and a wider one
            mat = wf.BandedMatrix(dm.n_global, k, dtype=dtype)
            mat.add_elements(dm, local)
            expected = mat.to_dense()
            expected[dm.fixed] = 0.0
            expected[dm.fixed, dm.fixed] = 1.0  # each prescribed row becomes e_i
            mat.set_identity_rows(dm)
            assert np.array_equal(mat.to_dense(), expected)
            assert not mat.data[:k].any()  # the LU fill-in rows stay empty


def test_add_elements_rejects_out_of_band():
    wide = _dofmap([[0, 3]], 6, 3)
    for mat in (wf.BandedMatrix(6, 1), wf.BandedMatrix(5, 3)):  # too narrow, too small
        with pytest.raises(ValueError, match="does not fit the band"):
            mat.add_elements(wide, np.ones((1, 2, 2)))
        assert not mat.data.any()
    mat = wf.BandedMatrix(6, 1)
    with pytest.raises(ValueError, match="span more than the half-bandwidth"):
        mat.add_elements(_dofmap([[0, 3]], 6, 1), np.ones((1, 2, 2)))  # declares too narrow a band
    assert not mat.data.any()


def test_fluid_props():
    fl = wf.FluidProps(nu=1e-3, rho=1000.0)
    assert fl.mu == pytest.approx(1.0, abs=0)
    with pytest.raises(ValueError):
        wf.FluidProps(nu=-1.0, rho=1.0)


@pytest.mark.parametrize(
    "bad",
    [[[0, 1, 2, 3], [2, 3, 4, 5], [5, 6, 7, 8]],  # stride 2, then 3
     [[0, 1, 2, 3], [3, 2, 4, 5]],  # second row permuted
     [[0, 1], [0, 1]]],  # stride 0
)
def test_add_elements_rejects_table_without_fixed_stride(bad):
    mat = wf.BandedMatrix(9, 3)
    dm = _dofmap(bad, 9, 3)
    with pytest.raises(ValueError, match="fixed positive stride"):
        mat.add_elements(dm, np.ones((len(bad), *np.shape(bad)[1:] * 2)))
    assert not mat.data.any()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
def test_fluid_props_rejects_non_positive_or_non_finite(bad):
    for kwargs in ({"nu": bad, "rho": 1.0}, {"nu": 1.0, "rho": bad}):
        with pytest.raises(ValueError):
            wf.FluidProps(**kwargs)


def test_problem_validation():
    with pytest.raises(ValueError):
        wf.JhProblem(30.0, 0.0)
    with pytest.raises(ValueError):
        wf.JhProblem(30.0, math.pi / 2)
    with pytest.raises(ValueError):
        wf.JhProblem(float("nan"), 0.3)
    prob = wf.JhProblem(30.0, 0.3)
    with pytest.raises(ValueError):
        prob.lam
    prob = wf.JhProblem(30.0, 0.3, wf.FluidProps(nu=1e-3, rho=1.0))
    assert prob.lam == pytest.approx(30.0 * 1e-3 / 0.3)


def test_residual_poiseuille_interpolant():
    # with Re = 0 and alpha -> 0 the equation reduces to f''' = 0, which the
    # parabolic interpolant satisfies element-exactly for every p
    prob = wf.JhProblem(0.0, 1e-8)
    for n in (1, 7, 32):
        for p in (3, 4, 5):
            dm = wf.build_dofmap(wf.build_mesh(n), wf.hermite_family(p), wf.jh_constraints())
            rule = wf.gauss_legendre(wf.required_points(p))
            coeffs = wf.poiseuille_guess(dm).astype(np.float64)
            res = wf.assemble_residual(prob, dm, coeffs, rule)
            assert np.max(np.abs(res)) <= 1e-12


def test_residual_of_oracle_interpolant_decreases(oracles):
    ref = oracles[(30.0, 15.0)]
    prob = make_problem(30.0, 15.0)
    norms = []
    for n in (20, 40, 80):
        dm = wf.build_dofmap(wf.build_mesh(n), wf.hermite_family(3), wf.jh_constraints())
        rule = wf.gauss_legendre(wf.required_points(3))
        f, fp, _ = wf.evaluate_reference(ref, wf.build_mesh(n).nodes)
        coeffs = np.zeros(dm.n_global)
        coeffs[0 : 2 * (n + 1) : 2] = f
        coeffs[1 : 2 * (n + 1) : 2] = fp
        res = wf.assemble_residual(prob, dm, coeffs, rule)
        norms.append(np.max(np.abs(res[dm.free_mask()])))
    assert norms[1] < norms[0] and norms[2] < norms[1]


def test_residual_single_element_pin():
    prob = wf.JhProblem(30.0, math.pi / 12)
    mesh = wf.build_mesh(1)
    rule = wf.gauss_legendre(wf.required_points(3))
    coeffs = np.array([1.0, 0.0, 0.0, 0.0])
    dm = wf.build_dofmap(mesh, wf.hermite_family(3))
    res = wf.assemble_residual(prob, dm, coeffs, rule)
    np.testing.assert_allclose(res, SINGLE_ELEMENT_RESIDUAL, atol=1e-13)
    # constrained rows collapse to (value - prescribed) = 0
    dmc = wf.build_dofmap(mesh, wf.hermite_family(3), wf.jh_constraints())
    resc = wf.assemble_residual(prob, dmc, coeffs, rule)
    np.testing.assert_allclose(resc[:3], 0.0, atol=0)
    assert resc[3] == pytest.approx(SINGLE_ELEMENT_RESIDUAL[3], abs=1e-13)


def test_residual_rule_too_weak():
    dm = wf.build_dofmap(wf.build_mesh(2), wf.hermite_family(4), wf.jh_constraints())
    with pytest.raises(ValueError):
        wf.assemble_residual(
            wf.JhProblem(30.0, 0.3), dm, np.zeros(dm.n_global), wf.gauss_legendre(4)
        )


def test_assembly_rejects_hierarchic():
    dm = wf.build_dofmap(wf.build_mesh(2), wf.hierarchic_family(2))
    with pytest.raises(ValueError):
        wf.assemble_residual(
            wf.JhProblem(30.0, 0.3), dm, np.zeros(dm.n_global), wf.gauss_legendre(8)
        )


def test_jacobian_matches_finite_differences():
    prob = make_problem(30.0, 15.0)
    dm = wf.build_dofmap(wf.build_mesh(4), wf.hermite_family(4), wf.jh_constraints())
    rule = wf.gauss_legendre(wf.required_points(4))
    rng = np.random.default_rng(0)
    for _ in range(3):
        coeffs = rng.standard_normal(dm.n_global)
        jac = wf.assemble_jacobian(prob, dm, coeffs, rule).to_dense()
        fd = np.empty_like(jac)
        for j in range(dm.n_global):
            step = 1e-6 * max(1.0, abs(coeffs[j]))
            up, dn = coeffs.copy(), coeffs.copy()
            up[j] += step
            dn[j] -= step
            fd[:, j] = (
                wf.assemble_residual(prob, dm, up, rule)
                - wf.assemble_residual(prob, dm, dn, rule)
            ) / (2 * step)
        denom = np.maximum(1.0, np.abs(jac))
        assert np.max(np.abs(jac - fd) / denom) < 1e-6


def test_jacobian_re0_independent_of_coeffs():
    prob = wf.JhProblem(0.0, 0.3)
    dm = wf.build_dofmap(wf.build_mesh(3), wf.hermite_family(3), wf.jh_constraints())
    rule = wf.gauss_legendre(5)
    rng = np.random.default_rng(5)
    j1 = wf.assemble_jacobian(prob, dm, rng.standard_normal(dm.n_global), rule).to_dense()
    j2 = wf.assemble_jacobian(prob, dm, rng.standard_normal(dm.n_global), rule).to_dense()
    np.testing.assert_array_equal(j1, j2)


def test_jacobian_boundary_term_isolated():
    # N=1, p=3, Re=0, unconstrained: the (slope-right, slope-right) entry is
    # int phi'(phi'' + 4 a^2 phi) = 1/2 + 0 from the integral part, and the
    # boundary term -phi'(1)^2 = -1 shifts it to -1/2 exactly
    prob = wf.JhProblem(0.0, 0.3)
    dm = wf.build_dofmap(wf.build_mesh(1), wf.hermite_family(3))
    jac = wf.assemble_jacobian(prob, dm, np.zeros(4), wf.gauss_legendre(5)).to_dense()
    assert jac[3, 3] == pytest.approx(-0.5, abs=1e-14)
    assert jac[3, 3] - (-1.0) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("case", CASES)
def test_table_spot_values(case, fine_solutions):
    _, fem = fine_solutions[case]
    eta, expected = TABLE_SPOTS[case]
    f, _, _ = fem.evaluate(eta)
    assert abs(f - expected) < 1e-8


@pytest.mark.parametrize("case", CASES)
def test_boundary_conditions_exact(case, fine_solutions):
    # the solution carries the map of its solve, which prescribes f(0), f'(0) and f(1)
    _, fem = fine_solutions[case]
    dm = fem.dofmap
    ends = [dm.endpoint(wf.VALUE, 0), dm.endpoint(wf.SLOPE, 0), dm.endpoint(wf.VALUE, 1)]
    assert dm.fixed.tolist() == ends
    assert dm.fixed_values.tolist() == [1.0, 0.0, 0.0]
    assert np.all(fem.coeffs[dm.fixed] == dm.fixed_values)
    assert not dm.fixed.flags.writeable and not dm.fixed_values.flags.writeable


def test_newton_iters_mesh_independent():
    prob = make_problem(30.0, 15.0)
    iters = []
    for n in (10, 40, 160, 320, 2560):
        fem = wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(4))
        assert fem.converged
        iters.append(fem.newton_iters)
    assert max(iters) - min(iters) <= 3


def test_newton_nonconvergence_reports_history():
    prob = make_problem(110.0, 3.0)
    fem = wf.newton_solve(
        prob, wf.build_mesh(20), wf.hermite_family(3), wf.SolverOptions(max_iter=1)
    )
    assert not fem.converged
    assert fem.stop_reason == "max_iter"
    assert len(fem.norm_history) >= 1
    assert fem.final_residual_norm > 0.0
    assert np.all(np.isfinite(fem.coeffs))  # best iterate returned


def test_newton_rejects_hierarchic():
    with pytest.raises(ValueError):
        wf.newton_solve(make_problem(30.0, 15.0), wf.build_mesh(4), wf.hierarchic_family(2))


def test_evaluate_range_check(fine_solutions):
    _, fem = fine_solutions[(30.0, 15.0)]
    with pytest.raises(ValueError):
        fem.evaluate(1.5)
    with pytest.raises(ValueError):
        fem.evaluate([-0.1, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluate_rejects_non_finite(fine_solutions, bad):
    _, fem = fine_solutions[(30.0, 15.0)]
    for eta in (bad, [0.5, bad]):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            fem.evaluate(eta)


def test_evaluate_continuity_across_interfaces(fine_solutions):
    _, fem = fine_solutions[(30.0, 15.0)]
    h = 1.0 / fem.dofmap.n_elem
    eps = 1e-9
    for node in (h, 0.5, 1.0 - h):
        f_lo, fp_lo, _ = fem.evaluate(node - eps)
        f_hi, fp_hi, _ = fem.evaluate(node + eps)
        assert abs(f_hi - f_lo) < 1e-8
        assert abs(fp_hi - fp_lo) < 1e-6


def test_poiseuille_guess_seeds_constraints():
    dm = wf.build_dofmap(wf.build_mesh(5), wf.hermite_family(3), wf.jh_constraints())
    coeffs = wf.poiseuille_guess(dm)
    assert coeffs[0] == 1.0 and coeffs[1] == 0.0 and coeffs[10] == 0.0


@pytest.mark.parametrize("p", [3, 4, 5])
def test_evaluate_at_nodes_reads_nodal_dofs(p):
    # element-by-element numbering: node k holds value DOF k(p-1), slope k(p-1)+1
    mesh = wf.build_mesh(7)
    family = wf.hermite_family(p)
    dm = wf.build_dofmap(mesh, family)
    coeffs = np.random.default_rng(p).standard_normal(dm.n_global)
    fem = wf.FemSolution(dm, coeffs, True, 0, 0.0)
    value_dofs = (p - 1) * np.arange(mesh.n_elem + 1)
    f, fp, _ = fem.evaluate(mesh.nodes)
    np.testing.assert_allclose(f, coeffs[value_dofs], rtol=0, atol=1e-12)
    np.testing.assert_allclose(fp, coeffs[value_dofs + 1], rtol=0, atol=1e-12)
    assert abs(fem.fp_right() - fem.evaluate(1.0)[1]) <= 1e-12


def _tables_from_eval_family(family, rule, h, dtype):
    """Scaled basis tables built directly, without the table cache."""
    shapes = wf.eval_family(family, rule.points.astype(dtype))
    h = dtype(h)
    scale = np.ones(family.degree + 1, dtype=dtype)
    if family.kind == wf.HERMITE:
        scale[1] = scale[3] = h
    d2 = None
    if shapes.second_derivs is not None:
        d2 = shapes.second_derivs * scale[:, None] / h**2
    return shapes.values * scale[:, None], shapes.first_derivs * scale[:, None] / h, d2


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-p{f.degree}")
def test_quadrature_fields_tables_match_eval_family(family, dtype):
    # `FemSolution.fields` at the rule points of every element: the coefficients times the
    # slope factors, contracted with the cached reference tables, then divided by h^k
    n = 7
    dm = wf.build_dofmap(wf.build_mesh(n), family)
    rule = wf.gauss_legendre(family.degree + 2)
    coeffs = np.random.default_rng(family.degree).standard_normal(dm.n_global).astype(dtype)
    fem = wf.FemSolution(dm, coeffs, True, 0, 0.0)
    h = dtype(1) / dtype(n)
    scale = np.ones(family.degree + 1, dtype=dtype)
    if family.kind == wf.HERMITE:
        scale[1] = scale[3] = h
    ce = coeffs[dm.element_dofs] * scale
    shapes = wf.eval_family(family, rule.points.astype(dtype))
    reference = (shapes.values, shapes.first_derivs, shapes.second_derivs)
    expected = [None if t is None else np.einsum("ei,iq->eq", ce, t) / h**k
                for k, t in enumerate(reference)]
    # the same fields from physical basis tables, which round differently
    physical = _tables_from_eval_family(family, rule, h, dtype)
    eps = np.finfo(dtype).eps
    for _ in range(2):  # the second call reads the cached reference tables
        shapes = solver._reference_tables(family, rule, np.dtype(dtype))
        fields = fem.fields(np.arange(n)[:, None], shapes)
        for got, want, table in zip(fields, expected, physical):
            assert (got is None) == (want is None) == (table is None)
            if want is not None:
                assert got.dtype == np.dtype(dtype)
                assert np.array_equal(got, want)
                terms = np.abs(coeffs[dm.element_dofs])[:, :, None] * np.abs(table)
                old = np.einsum("ei,iq->eq", coeffs[dm.element_dofs], table)
                assert np.all(np.abs(got - old) <= 4 * eps * terms.sum(axis=1))


@pytest.mark.parametrize("n", [3, 7, 10])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-p{f.degree}")
def test_evaluate_matches_quadrature_fields(family, n):
    # `evaluate` and the rule-point fields share one contraction
    # (`FemSolution.fields`), so they agree bit for bit at the same
    # element and local coordinate, in the dtype of the coefficients
    mesh = wf.build_mesh(n)
    dm = wf.build_dofmap(mesh, family)
    # dyadic points: e + t is exact, so most of them survive eta * n exactly
    points = np.arange(1, 16, 2) / 16
    rule = wf.QuadratureRule(points, np.full(8, 1 / 8), 1)
    n_derivs = 2 if family.kind == wf.HERMITE else 1
    elem = np.arange(n)[:, None]
    # only points whose element and local coordinate survive eta * n exactly
    eta = (elem + rule.points) / n
    exact = (np.floor(eta * n) == elem) & (eta * n - elem == rule.points)
    assert exact.sum() >= exact.size // 2
    for dtype in (np.float64, np.longdouble):
        coeffs = np.random.default_rng(n).standard_normal(dm.n_global).astype(dtype) / dtype(3)
        fem = wf.FemSolution(dm, coeffs, True, 0, 0.0)
        fields = fem.fields(elem, solver._reference_tables(family, rule, np.dtype(dtype)))
        assert (fields[2] is None) == (n_derivs == 1)
        got = fem.evaluate(eta[exact])
        assert (got[2] is None) == (n_derivs == 1)
        for k in range(n_derivs + 1):
            assert got[k].dtype == np.dtype(dtype)
            assert np.array_equal(got[k], fields[k][exact])


def test_cached_reference_tables_are_read_only():
    rule = wf.gauss_legendre(5)
    shapes = solver._reference_tables(wf.hermite_family(3), rule, np.dtype(np.longdouble))
    for table in (shapes.values, shapes.first_derivs, shapes.second_derivs):
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    for n in range(1, wf.quadrature.MAX_POINTS + 1):  # the tables are keyed on the rule itself
        rule = wf.gauss_legendre(n)
        for array in (rule.points, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0


def test_reference_tables_stay_bounded_for_rules_built_per_call():
    g = wf.gauss_legendre(8)
    for _ in range(200):  # rules key by identity: each one is a new entry
        rule = wf.QuadratureRule(g.points, g.weights, g.exactness)
        solver._reference_tables(wf.hermite_family(4), rule, np.dtype(np.float64))
    info = solver._reference_tables.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_newton_solve_tabulates_once_per_dtype(monkeypatch):
    calls = []

    def counting_eval_family(family, t):
        calls.append(np.asarray(t).dtype)
        return wf.eval_family(family, t)

    monkeypatch.setattr(solver, "eval_family", counting_eval_family)
    solver._reference_tables.cache_clear()
    prob = make_problem(30.0, 15.0)
    fem = wf.newton_solve(prob, wf.build_mesh(40), wf.hermite_family(4))
    assert fem.newton_iters >= 2
    # the longdouble residual and the float64 Jacobian tables, once each;
    # other meshes reuse them, because the cache key holds no mesh size
    wf.newton_solve(prob, wf.build_mesh(160), wf.hermite_family(4))
    assert len(calls) == len(set(calls)) <= 2


def _einsum_kernels(problem, dm, coeffs, rule):
    """Residual and dense Jacobian as per-point einsum contractions, with
    np.add.at scatters, plus the per-row scale that bounds their rounding.

    The scale of a row is the largest sum, over one entry of that row, of
    the absolute values of all terms in it (boundary and constraint terms
    included).  Arithmetic follows the dtype of `coeffs`.
    """
    dtype = coeffs.dtype.type
    n = dm.n_elem
    h = dtype(1) / n
    v, d1, d2 = _tables_from_eval_family(dm.family, rule, h, dtype)
    wts = rule.weights.astype(dtype)
    ce = coeffs[dm.element_dofs]
    f, fp = ce @ v, ce @ d1
    c = dtype(2) * dtype(problem.reynolds) * dtype(problem.alpha)
    a2 = dtype(4) * dtype(problem.alpha) ** 2
    g = c * f + a2
    oper = d2[None, :, :] + g[:, None, :] * v[None, :, :]
    oper_abs = np.abs(d2)[None, :, :] + np.abs(g)[:, None, :] * np.abs(v)[None, :, :]
    res = np.zeros(dm.n_global, dtype=dtype)
    res_scale = np.zeros(dm.n_global, dtype=dtype)
    np.add.at(res, dm.element_dofs, np.einsum("niq,nq->ni", oper, fp * wts) * h)
    np.add.at(res_scale, dm.element_dofs, np.einsum("niq,nq->ni", oper_abs, np.abs(fp) * wts) * h)
    jac = np.zeros((dm.n_global, dm.n_global), dtype=dtype)
    jac_abs = np.zeros_like(jac)
    local = np.einsum("nq,iq,jq->nij", c * fp * wts, v, v) * h
    local += np.einsum("niq,jq->nij", oper * wts, d1) * h
    local_abs = np.einsum("nq,iq,jq->nij", np.abs(c * fp) * wts, np.abs(v), np.abs(v)) * h
    local_abs += np.einsum("niq,jq->nij", oper_abs * wts, np.abs(d1)) * h
    rows, cols = dm.element_dofs[:, :, None], dm.element_dofs[:, None, :]
    np.add.at(jac, (rows, cols), local)
    np.add.at(jac_abs, (rows, cols), local_abs)
    s1 = dm.endpoint(wf.SLOPE, 1)
    res[s1] -= coeffs[s1]
    res_scale[s1] += abs(coeffs[s1])
    jac[s1, s1] -= 1
    jac_abs[s1, s1] += 1
    fixed, values = dm.fixed, dm.fixed_values
    res[fixed] = coeffs[fixed] - values.astype(dtype)
    res_scale[fixed] = np.abs(coeffs[fixed]) + np.abs(values)
    jac[fixed, :] = 0
    jac[fixed, fixed] = jac_abs[fixed, fixed] = 1
    return res, res_scale, jac, jac_abs.max(axis=1)


@pytest.mark.parametrize("case", [(30.0, 15.0), (0.0, 15.0)])
@pytest.mark.parametrize("n", [1, 7, 640])
@pytest.mark.parametrize("p", [3, 4, 5])
def test_kernels_match_einsum_reference(p, n, case):
    prob = make_problem(*case)
    dm = wf.build_dofmap(wf.build_mesh(n), wf.hermite_family(p), wf.jh_constraints())
    rule = wf.gauss_legendre(wf.required_points(p))
    rng = np.random.default_rng(100 * p + n)
    for dtype in (np.float64, np.longdouble):
        # division in `dtype` fills the longdouble mantissa beyond float64's
        coeffs = rng.standard_normal(dm.n_global).astype(dtype) / dtype(3)
        # 1e-13 is 450 float64 ulps; the longdouble bound is 450 of its ulps,
        # which a residual kernel that rounded through float64 would miss
        tol = 1e-13 * float(np.finfo(dtype).eps / np.finfo(np.float64).eps)
        res, res_scale, jac, jac_scale = _einsum_kernels(prob, dm, coeffs, rule)
        got = wf.assemble_residual(prob, dm, coeffs, rule)
        assert got.dtype == np.dtype(dtype)
        assert np.all(np.abs(got - res) <= tol * res_scale)
        if dtype is np.float64:  # the Jacobian is always assembled in float64
            got = wf.assemble_jacobian(prob, dm, coeffs, rule).to_dense()
            assert np.all(np.abs(got - jac) <= tol * jac_scale[:, None])
