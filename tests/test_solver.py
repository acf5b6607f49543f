import math

import numpy as np
import pytest

import wedgeflow as wf
from conftest import CASES, FAMILIES, make_problem

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


def test_banded_identity_solve():
    mat = wf.BandedMatrix(4, 1)
    mat.add_at(np.arange(4), np.arange(4), np.ones(4))
    b = np.array([3.0, -1.0, 0.5, 2.0])
    np.testing.assert_allclose(wf.solve_banded(mat, b), b, atol=0)


def test_banded_2x2_solve():
    mat = wf.BandedMatrix(2, 1)
    mat.add_at([0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 3.0])
    x = wf.solve_banded(mat, np.array([3.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_banded_random_diagonally_dominant():
    rng = np.random.default_rng(3)
    n, k = 50, 4
    mat = wf.BandedMatrix(n, k)
    for d in range(-k, k + 1):
        j0, j1 = max(0, -d), min(n, n - d)
        vals = rng.standard_normal(j1 - j0)
        if d == 0:
            vals = vals + 2.0 * (2 * k + 1)
        mat.add_at(np.arange(j0, j1) + d, np.arange(j0, j1), vals)
    b = rng.standard_normal(n)
    x = wf.solve_banded(mat, b)
    resid = np.max(np.abs(mat.matvec(x) - b))
    bound = 1e-10 * (mat.inf_norm() * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert resid <= bound


def test_banded_matvec_matches_dense():
    rng = np.random.default_rng(11)
    mat = wf.BandedMatrix(9, 2)
    for d in range(-2, 3):
        j0, j1 = max(0, -d), min(9, 9 - d)
        mat.add_at(np.arange(j0, j1) + d, np.arange(j0, j1), rng.standard_normal(j1 - j0))
    x = rng.standard_normal(9)
    np.testing.assert_allclose(mat.matvec(x), mat.to_dense() @ x, atol=1e-14)


def test_banded_singular_names_pivot():
    mat = wf.BandedMatrix(3, 1)
    mat.add_at([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 4.0])  # rank-deficient
    mat.add_at([2], [2], [1.0])
    with pytest.raises(wf.SingularMatrixError) as exc:
        wf.solve_banded(mat, np.ones(3))
    assert "pivot at index" in str(exc.value)


def _add_at_loop(mat, element_dofs, local):
    """Reference scatter: one add_at per local (a, b) entry."""
    for a in range(element_dofs.shape[1]):
        for b in range(element_dofs.shape[1]):
            mat.add_at(element_dofs[:, a], element_dofs[:, b], local[:, a, b])


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [1, 7, 640])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-p{f.degree}")
def test_add_elements_matches_add_at_loop(family, n, dtype):
    dm = wf.build_dofmap(wf.build_mesh(n), family)
    p1 = family.degree + 1
    # division in `dtype` fills the longdouble mantissa beyond float64's
    local = np.random.default_rng(n).standard_normal((n, p1, p1)).astype(dtype) / dtype(3)
    for blocks in (local, local[0]):  # per-element blocks, one shared block
        ref = wf.BandedMatrix(dm.n_global, dm.half_bandwidth, dtype=dtype)
        _add_at_loop(ref, dm.element_dofs, np.broadcast_to(blocks, local.shape))
        mat = wf.BandedMatrix(dm.n_global, dm.half_bandwidth, dtype=dtype)
        mat.add_elements(dm.element_dofs, blocks)
        assert mat.data.dtype == np.dtype(dtype)
        assert np.array_equal(mat.data, ref.data)


def test_add_elements_rejects_out_of_band():
    mat = wf.BandedMatrix(6, 1)
    with pytest.raises(ValueError):
        mat.add_elements(np.array([[0, 3]]), np.ones((2, 2)))


def test_fluid_props():
    fl = wf.FluidProps(nu=1e-3, rho=1000.0)
    assert fl.mu == pytest.approx(1.0, abs=0)
    wf.FluidProps(nu=2.0, rho=3.0, mu=6.0)
    with pytest.raises(ValueError):
        wf.FluidProps(nu=2.0, rho=3.0, mu=5.0)
    with pytest.raises(ValueError):
        wf.FluidProps(nu=-1.0, rho=1.0)


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
            coeffs = wf.poiseuille_guess(dm, dtype=np.float64)
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
    _, fem = fine_solutions[case]
    dm = fem.dofmap
    assert fem.coeffs[dm.endpoint(wf.VALUE, 0)] == 1.0
    assert fem.coeffs[dm.endpoint(wf.SLOPE, 0)] == 0.0
    assert fem.coeffs[dm.endpoint(wf.VALUE, 1)] == 0.0


def test_newton_iters_mesh_independent():
    prob = make_problem(30.0, 15.0)
    iters = []
    for n in (10, 40, 160, 320):
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


def test_evaluate_continuity_across_interfaces(fine_solutions):
    _, fem = fine_solutions[(30.0, 15.0)]
    h = fem.mesh.h
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
    fem = wf.FemSolution(mesh, family, coeffs, True, 0, 0.0)
    value_dofs = (p - 1) * np.arange(mesh.n_elem + 1)
    f, fp, _ = fem.evaluate(mesh.nodes)
    np.testing.assert_allclose(f, coeffs[value_dofs], rtol=0, atol=1e-12)
    np.testing.assert_allclose(fp, coeffs[value_dofs + 1], rtol=0, atol=1e-12)
    assert abs(fem.fp_right() - fem.evaluate(1.0)[1]) <= 1e-12
