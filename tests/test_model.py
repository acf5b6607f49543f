import math

import numpy as np
import pytest
from conftest import MODEL_MESHES

import wedgeflow as wf
from wedgeflow import model_problem, solver

# Closed-form load vector for a single linear element: b_i = int g phi_i with
# g = u' + u, u = cos(5 pi x / 2).  Integration by parts gives
#   b_0 = -1 + 2/(5 pi) + 4/(25 pi^2),   b_1 = -4/(25 pi^2),
# and eliminating the constrained DOF yields u_1 = 2/5 - 24/(125 pi^2).
B_EXACT = (-1.0 + 2.0 / (5 * math.pi) + 4.0 / (25 * math.pi**2), -4.0 / (25 * math.pi**2))
U1_EXACT = 0.4 - 24.0 / (125 * math.pi**2)


def _raw_system(degree, n_elem, formulation):
    family = wf.hierarchic_family(degree)
    dm = wf.build_dofmap(wf.build_mesh(n_elem), family, wf.model_constraints())
    mat, rhs = wf.assemble_model(formulation, dm, wf.gauss_legendre(10))
    return mat.to_dense().astype(np.float64), rhs.astype(np.float64), dm


def test_forcing_matches_closed_form():
    assert wf.forcing(np.array(0.0)) == pytest.approx(1.0, abs=1e-15)
    assert wf.forcing(np.array(0.2)) == pytest.approx(-2.5 * math.pi, rel=1e-15)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, size=100)
    g = np.cos(2.5 * np.pi * x) - 2.5 * np.pi * np.sin(2.5 * np.pi * x)
    np.testing.assert_allclose(wf.forcing(x), g, atol=1e-13)


def test_exact_solution_satisfies_ode():
    x = np.linspace(0.01, 0.99, 211)
    resid = wf.exact_derivative(x) + wf.exact_solution(x) - wf.forcing(x)
    assert np.max(np.abs(resid)) < 1e-14
    u, du = wf.exact_pair(x)
    np.testing.assert_array_equal(u, wf.exact_solution(x))
    np.testing.assert_array_equal(du, wf.exact_derivative(x))


def test_single_element_galerkin_system():
    # Hand-computed 2x2 system for one linear element, before constraints:
    #   A = [[5/6, 2/3], [-1/3, 5/6]]  (convection + mass + outflow term).
    dense, rhs, _dm = _raw_system(1, 1, wf.GALERKIN)
    a_exact = np.array([[5.0 / 6.0, 2.0 / 3.0], [-1.0 / 3.0, 5.0 / 6.0]])
    np.testing.assert_allclose(dense, a_exact, atol=1e-14)
    # The 10-point rule carries a ~1e-11 consistency error on the trig forcing.
    np.testing.assert_allclose(rhs, B_EXACT, atol=1e-9)


def test_single_element_solution_pin():
    fem = wf.solve_model(1, 1)
    assert fem.converged
    assert fem.coeffs[0] == 1.0
    assert fem.coeffs[1] == pytest.approx(U1_EXACT, abs=1e-9)


@pytest.mark.parametrize("formulation", [wf.GALERKIN, wf.LEAST_SQUARES])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_inflow_value_exact(degree, formulation):
    fem = wf.solve_model(degree, 7, formulation)
    assert fem.converged
    assert fem.coeffs[0] == 1.0
    u0 = fem.evaluate(0.0)[0]
    assert u0 == 1.0


def test_quintic_galerkin_is_accurate():
    fem = wf.solve_model(5, 64)
    en = wf.error_norms(fem, wf.exact_pair, wf.gauss_legendre(12))
    assert en.l2 < 1e-9


@pytest.mark.parametrize("degree,n_elem", [(1, 9), (3, 4), (5, 2)])
def test_least_squares_matrix_is_spd(degree, n_elem):
    dense, _rhs, dm = _raw_system(degree, n_elem, wf.LEAST_SQUARES)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(dense - dense.T)) <= 1e-14 * scale
    free = dm.free_mask()
    sub = dense[np.ix_(free, free)]
    np.linalg.cholesky(sub)  # raises LinAlgError unless positive definite


def test_galerkin_matrix_is_not_symmetric():
    dense, _rhs, _dm = _raw_system(2, 4, wf.GALERKIN)
    assert np.max(np.abs(dense - dense.T)) > 0.1


@pytest.mark.parametrize("formulation", [wf.GALERKIN, wf.LEAST_SQUARES])
def test_linear_problem_converges_in_one_iteration(formulation):
    fem = wf.solve_model(3, 16, formulation)
    assert fem.converged
    assert fem.newton_iters == 1


def test_formulations_converge_to_each_other():
    # Both discretisations approach the same function, so their mutual L2
    # distance shrinks under refinement.
    dists = []
    for n in (8, 16, 32):
        gal = wf.solve_model(2, n)
        lsq = wf.solve_model(2, n, wf.LEAST_SQUARES)
        ref = lambda x: lsq.evaluate(x)[:2]
        dists.append(wf.error_norms(gal, ref, wf.gauss_legendre(10)).l2)
    assert dists[0] > dists[1] > dists[2]
    assert dists[2] < 1e-2


def test_galerkin_even_degrees_keep_smaller_constant(model_reports):
    # p=3 and p=4 both observe second-order L2 rates in the Galerkin form,
    # but the quartic error constant is smaller at every mesh.
    rows3 = model_reports[wf.GALERKIN, 3].rows
    rows4 = model_reports[wf.GALERKIN, 4].rows
    for r3, r4 in zip(rows3, rows4):
        assert r4.l2 < r3.l2


@pytest.mark.parametrize("formulation", [wf.GALERKIN, wf.LEAST_SQUARES])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_errors_positive_and_decreasing(model_reports, degree, formulation):
    rows = model_reports[formulation, degree].rows
    assert tuple(r.n_elem for r in rows) == MODEL_MESHES
    for row in rows:
        assert row.l2 > 0.0 and row.h1 > 0.0
    for a, b in zip(rows, rows[1:]):
        assert b.l2 < a.l2
        assert b.h1 < a.h1


@pytest.mark.parametrize("formulation", [wf.GALERKIN, wf.LEAST_SQUARES])
def test_study_refines_every_level_to_roundoff(formulation, monkeypatch):
    solves = []
    solve_model = model_problem.solve_model

    def spy(*args):
        fem = solve_model(*args)
        solves.append((args[:2], fem.converged, fem.stop_reason))
        return fem

    monkeypatch.setattr(model_problem, "solve_model", spy)
    wf.model_convergence((1, 2, 3, 4, 5), MODEL_MESHES, formulation)
    assert [levels for levels, _, _ in solves] == [
        (p, n) for p in (1, 2, 3, 4, 5) for n in MODEL_MESHES
    ]
    assert all(converged and reason == "roundoff" for _, converged, reason in solves)


@pytest.mark.parametrize("formulation", [wf.GALERKIN, wf.LEAST_SQUARES])
def test_no_model_solve_comes_near_the_newton_cap(formulation, monkeypatch):
    """A study level stops on roundoff within 3 passes and a default solve after 1,
    so `SolverOptions.max_iter`'s default of 25 never binds."""
    passes = []
    solve_model = model_problem.solve_model

    def spy(*args):
        fem = solve_model(*args)
        passes.append(fem.newton_iters)
        return fem

    monkeypatch.setattr(model_problem, "solve_model", spy)
    wf.model_convergence((1, 2, 3, 4, 5), MODEL_MESHES, formulation)
    assert len(passes) == 25 and max(passes) <= 3
    for p in (1, 2, 3, 4, 5):
        for n in MODEL_MESHES:
            fem = wf.solve_model(p, n, formulation)
            assert (fem.stop_reason, fem.newton_iters) == ("residual", 1), (p, n)


def test_study_reaches_the_roundoff_floor_on_fine_meshes():
    # p = 5, N = 1024 reaches L2 = 3.3e-16; a 1e-14 residual tolerance stops at 2.6e-15
    (report,) = wf.model_convergence([5], [64, 256, 1024])
    assert report.rows[-1].l2 <= 1e-15


def test_model_config_validation():
    with pytest.raises(ValueError, match="supports p in"):
        wf.solve_model(0, 4)
    with pytest.raises(ValueError, match="supports p in"):
        wf.solve_model(6, 4)
    with pytest.raises(ValueError, match="n_elem must be a positive integer"):
        wf.solve_model(2, 0)
    with pytest.raises(ValueError, match="unknown formulation 'petrov'"):
        wf.solve_model(2, 4, "petrov")


def test_assemble_model_rejects_a_non_hierarchic_map():
    # the outflow term reads hierarchic values, so a Hermite map would give a wrong system
    dm = wf.build_dofmap(wf.build_mesh(4), wf.hermite_family(3), wf.jh_constraints())
    with pytest.raises(ValueError, match="requires the hierarchic family"):
        wf.assemble_model(wf.GALERKIN, dm, wf.gauss_legendre(10))


def test_solve_passes_lapack_the_constrained_assembled_matrix(monkeypatch):
    # Every refinement pass factorises the one assembled longdouble matrix,
    # unchanged, with its prescribed rows made identity rows.
    seen = []
    solve_banded = solver.solve_banded

    def spy(a, b):
        seen.append((a, a.data.copy()))
        return solve_banded(a, b)

    monkeypatch.setattr(solver, "solve_banded", spy)
    fem = wf.solve_model(3, 16, wf.LEAST_SQUARES, wf.SolverOptions(tol=0.0, max_iter=10))
    assert len(seen) == fem.newton_iters >= 2
    mat = seen[0][0]
    assert mat.data.dtype == np.longdouble  # the assembled band, not a float64 copy
    for a, data in seen:
        assert a is mat
        np.testing.assert_array_equal(data, mat.data)
    dense, _rhs, dm = _raw_system(3, 16, wf.LEAST_SQUARES)
    lapack = mat.to_dense().astype(np.float64)
    free = dm.free_mask()
    np.testing.assert_array_equal(lapack[dm.fixed], np.eye(dm.n_global)[dm.fixed])
    np.testing.assert_array_equal(lapack[free], dense[free])
