import math
from functools import lru_cache

import numpy as np
import pytest
from conftest import make_problem
from hypothesis import given, settings
from hypothesis import strategies as st

import wedgeflow as wf


def _interpolant_solution(n, p=3):
    """FemSolution wrapper around the Hermite interpolant of 1 - x^2."""
    dm = wf.build_dofmap(wf.build_mesh(n), wf.hermite_family(p), wf.jh_constraints())
    coeffs = wf.poiseuille_guess(dm).astype(np.float64)
    return wf.FemSolution(dm, coeffs, True, 0, 0.0)


def test_error_norms_exact_representation():
    fem = _interpolant_solution(6)
    ref = lambda x: (1 - np.asarray(x) ** 2, -2 * np.asarray(x))
    en = wf.error_norms(fem, ref, wf.gauss_legendre(8))
    assert en.l2 <= 1e-12 and en.h1 <= 1e-12
    assert en.n_elem == 6


def test_error_norms_quartic_ratio(oracles):
    prob = make_problem(30.0, 15.0)
    ref = oracles[(30.0, 15.0)]
    rule = wf.gauss_legendre(8)
    e40 = wf.error_norms(
        wf.newton_solve(prob, wf.build_mesh(40), wf.hermite_family(4)), ref, rule
    )
    e80 = wf.error_norms(
        wf.newton_solve(prob, wf.build_mesh(80), wf.hermite_family(4)), ref, rule
    )
    ratio = e40.l2 / e80.l2
    assert 16.0 / 1.3 < ratio < 16.0 * 1.3
    assert e40.h1 >= e40.l2  # the full H1 norm dominates its L2 part


def test_error_norms_rule_saturation(oracles):
    prob = make_problem(110.0, 3.0)
    ref = oracles[(110.0, 3.0)]
    fem = wf.newton_solve(prob, wf.build_mesh(40), wf.hermite_family(3))
    a = wf.error_norms(fem, ref, wf.gauss_legendre(7))
    b = wf.error_norms(fem, ref, wf.gauss_legendre(16))
    assert abs(a.l2 - b.l2) <= 1e-9 * a.l2
    assert abs(a.h1 - b.h1) <= 1e-9 * a.h1


def test_error_norms_weak_rule_rejected(oracles):
    fem = _interpolant_solution(4)
    with pytest.raises(ValueError):
        wf.error_norms(fem, oracles[(30.0, 15.0)], wf.gauss_legendre(5))


def test_error_norms_bad_reference():
    fem = _interpolant_solution(4)
    with pytest.raises(TypeError):
        wf.error_norms(fem, object(), wf.gauss_legendre(8))


def _rows(errors, n_elems=(10, 20, 40, 80, 160)):
    return [
        wf.ErrorNorms(l2=e, h1=e, n_elem=n) for e, n in zip(errors, n_elems)
    ]


def test_fit_rates_exact_power_law():
    ns = np.array([10, 20, 40, 80, 160], dtype=float)
    rows = _rows(3.7 * ns**-4.0)
    l2, h1 = wf.fit_rates(rows)
    assert abs(l2 - 4.0) < 1e-12 and abs(h1 - 4.0) < 1e-12


def test_fit_rates_perturbed_power_law():
    ns = np.array([10, 20, 40, 80, 160], dtype=float)
    wiggle = np.array([1.05, 0.95, 1.05, 0.95, 1.05])
    l2, _ = wf.fit_rates(_rows(2.0 * ns**-4.0 * wiggle))
    assert abs(l2 - 4.0) < 0.1


def test_fit_rates_zero_error_excluded():
    ns = np.array([10, 20, 40, 80, 160], dtype=float)
    errs = 3.7 * ns**-4.0
    errs[0] = 0.0
    with pytest.warns(UserWarning):
        l2, _ = wf.fit_rates(_rows(errs))
    assert abs(l2 - 4.0) < 1e-12


def test_fit_rates_too_few_rows():
    with pytest.raises(ValueError):
        wf.fit_rates(_rows([1.0, 0.1], n_elems=(10, 20)))


@pytest.mark.parametrize("n_elems", [(10, 10, 10), (8, 8, 16), (10, 20, 40, 20)])
def test_fit_rates_rejects_a_repeated_mesh_level(n_elems):
    # equal levels make the least-squares fit rank-deficient or weight one level twice
    errs = [2.0 * n**-4.0 for n in n_elems]
    with pytest.raises(ValueError, match="at least 3 distinct mesh levels"):
        wf.fit_rates(_rows(errs, n_elems=n_elems))


def test_case_dependent_cubic_l2_rate(jh_reports):
    # p=3 L2 error converges one order faster for (110, 3) than for (30, 15)
    assert abs(jh_reports[(110.0, 3.0), 3].slope_l2 - 3.0) < 0.3
    assert abs(jh_reports[(30.0, 15.0), 3].slope_l2 - 2.0) < 0.3


def test_compute_K_closed_form_re0():
    alpha = math.radians(15.0)
    prob = wf.JhProblem(0.0, alpha)
    fp1 = -2 * alpha * math.sin(2 * alpha) / (1 - math.cos(2 * alpha))
    K = wf.compute_K(prob, fp1)
    assert abs(K - (3 + 2 * math.sqrt(3))) < 1e-12
    assert abs(K - math.cos(2 * alpha) / (1 - math.cos(2 * alpha))) < 1e-12


def test_K_from_fem_and_oracle_agree(fine_solutions, oracles):
    for case, (prob, fem) in fine_solutions.items():
        k_fem = wf.compute_K(prob, fem.fp_right())
        k_ref = wf.compute_K(prob, oracles[case].fp_right())
        assert abs(k_fem - k_ref) <= 1e-6 * abs(k_ref)


@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("p", [3, 4, 5])
def test_error_norms_of_a_solution_against_itself_are_zero(p, n):
    fem = wf.newton_solve(make_problem(30.0, 15.0), wf.build_mesh(n), wf.hermite_family(p))
    en = wf.error_norms(fem, fem, wf.gauss_legendre(8))
    assert (en.l2, en.h1) == (0.0, 0.0)


def test_norm_triangle_inequality():
    dm = wf.build_dofmap(wf.build_mesh(5), wf.hermite_family(3))
    rng = np.random.default_rng(9)
    sols = [
        wf.FemSolution(dm, rng.standard_normal(dm.n_global), True, 0, 0.0)
        for _ in range(3)
    ]
    rule = wf.gauss_legendre(8)

    def dist(a, b):
        ref = lambda x: b.evaluate(x)[:2]
        en = wf.error_norms(a, ref, rule)
        return en.l2, en.h1

    ac = dist(sols[0], sols[2])
    ab = dist(sols[0], sols[1])
    bc = dist(sols[1], sols[2])
    assert ac[0] <= ab[0] + bc[0] + 1e-12
    assert ac[1] <= ab[1] + bc[1] + 1e-12


def _field_config(fine_solutions, case=(30.0, 15.0), nu=1e-3, rho=1000.0, p_star=0.0):
    fluid = wf.FluidProps(nu=nu, rho=rho)
    prob_plain, fem = fine_solutions[case]
    prob = wf.JhProblem(prob_plain.reynolds, prob_plain.alpha, fluid)
    K = wf.compute_K(prob, fem.fp_right())
    cfg = wf.WedgeFieldConfig(problem=prob, fluid=fluid, p_star=p_star, K=K, lam=prob.lam)
    return cfg, fem


def test_wedge_fields_no_slip(fine_solutions):
    cfg, fem = _field_config(fine_solutions)
    a = cfg.problem.alpha
    out = wf.wedge_fields(cfg, fem, [(1.0, a), (2.5, -a)])
    np.testing.assert_allclose(out[:, 0], 0.0, atol=1e-15)


def test_wedge_fields_r_umax_constant(fine_solutions):
    cfg, fem = _field_config(fine_solutions)
    r = np.array([0.3, 1.0, 2.0, 7.7])
    out = wf.wedge_fields(cfg, fem, [(ri, 0.0) for ri in r])
    prods = r * out[:, 0]
    assert np.max(np.abs(prods - cfg.lam)) <= 1e-12 * abs(cfg.lam)


def test_wedge_fields_oracle_profile(fine_solutions, oracles):
    cfg, _ = _field_config(fine_solutions)
    out = wf.wedge_fields(cfg, oracles[(30.0, 15.0)], [(1.0, 0.5 * cfg.problem.alpha)])
    f_half, _, _ = wf.evaluate_reference(oracles[(30.0, 15.0)], 0.5)
    assert out[0, 0] == pytest.approx(cfg.lam * f_half, rel=1e-12)


def test_wedge_fields_domain_errors(fine_solutions):
    cfg, fem = _field_config(fine_solutions)
    with pytest.raises(ValueError):
        wf.wedge_fields(cfg, fem, [(0.0, 0.0)])
    with pytest.raises(ValueError):
        wf.wedge_fields(cfg, fem, [(1.0, 2 * cfg.problem.alpha)])


def test_profile_kinds_agree(fine_solutions):
    """`error_norms` and `wedge_fields` take the same three kinds of profile."""
    cfg, fem = _field_config(fine_solutions)
    a = cfg.problem.alpha
    pts = [(0.5, -a), (1.0, 0.0), (2.0, 0.3 * a), (3.0, a)]
    np.testing.assert_array_equal(
        wf.wedge_fields(cfg, fem.evaluate, pts), wf.wedge_fields(cfg, fem, pts)
    )
    # a callable is read at x = (e + t) h, which need not map back to (e, t) bit for
    # bit; a FemSolution on the same mesh is read at (e, t) itself
    en = wf.error_norms(fem, fem.evaluate, wf.gauss_legendre(8))
    assert en.l2 <= 1e-15 and en.h1 <= 1e-13
    assert wf.error_norms(fem, fem, wf.gauss_legendre(8)) == wf.ErrorNorms(0.0, 0.0, 320)
    with pytest.raises(TypeError):
        wf.wedge_fields(cfg, object(), pts)


def test_wedge_config_lambda_consistency():
    fluid = wf.FluidProps(nu=1e-3, rho=1000.0)
    prob = wf.JhProblem(30.0, math.radians(15.0), fluid)
    with pytest.raises(ValueError):
        wf.WedgeFieldConfig(problem=prob, fluid=fluid, p_star=0.0, K=1.0, lam=2 * prob.lam)


def test_mass_flux_independent_of_r(fine_solutions):
    cfg, fem = _field_config(fine_solutions)
    a = cfg.problem.alpha
    x, w = np.polynomial.legendre.leggauss(32)
    theta = a * x  # map [-1, 1] -> [-a, a]
    fluxes = []
    for r in (0.5, 1.0, 3.0):
        out = wf.wedge_fields(cfg, fem, [(r, t) for t in theta])
        fluxes.append(a * np.dot(w, out[:, 0] * r))
    fluxes = np.array(fluxes)
    assert np.max(np.abs(fluxes - fluxes[0])) <= 1e-10 * abs(fluxes[0])


@lru_cache(maxsize=1)
def _cached_ref():
    return wf.shoot(wf.JhProblem(30.0, math.radians(15.0)))


@settings(deadline=None, max_examples=25)
@given(st.floats(0.1, 50.0), st.floats(-1.0, 1.0))
def test_pressure_quarter_scaling(r, frac):
    # (p - p*) scales as 1/r^2: doubling r divides it by exactly 4
    fluid = wf.FluidProps(nu=1e-3, rho=1000.0)
    prob = wf.JhProblem(30.0, math.radians(15.0), fluid)
    cfg = wf.WedgeFieldConfig(problem=prob, fluid=fluid, p_star=2.0, K=-9.78, lam=prob.lam)
    ref = _cached_ref()
    theta = frac * prob.alpha
    out = wf.wedge_fields(cfg, ref, [(r, theta), (2 * r, theta)])
    dp1 = out[0, 1] - cfg.p_star
    dp2 = out[1, 1] - cfg.p_star
    assert dp1 == pytest.approx(4.0 * dp2, rel=1e-12, abs=1e-300)


def test_duality_identity_converged_cases(fine_solutions):
    for case, (prob, fem) in fine_solutions.items():
        lhs, rhs, diff = wf.duality_pairing_check(fem, prob)
        assert abs(diff) <= 1e-9
        # at the discrete solution the pairing itself nearly vanishes
        assert abs(lhs) < 1e-5


def test_duality_identity_off_solution(fine_solutions):
    # The identity is algebraic: it holds for any C1 field satisfying the
    # essential conditions, not only for solutions of the discrete system.
    prob, fem = fine_solutions[(30.0, 15.0)]
    rng = np.random.default_rng(11)
    coeffs = fem.coeffs + 0.1 * rng.standard_normal(fem.coeffs.size)
    dm = fem.dofmap
    coeffs[dm.endpoint(wf.VALUE, 0)] = 1.0
    coeffs[dm.endpoint(wf.SLOPE, 0)] = 0.0
    coeffs[dm.endpoint(wf.VALUE, 1)] = 0.0
    bent = wf.FemSolution(dm, coeffs, True, 0, 0.0)
    lhs, rhs, diff = wf.duality_pairing_check(bent, prob)
    assert abs(lhs) > 1.0  # genuinely off the solution
    assert abs(diff) <= 1e-10 * max(1.0, abs(lhs))


def test_duality_identity_parabolic_profile():
    # f = 1 - x^2 with Re = 0, alpha -> 0: both sides vanish
    fem = _interpolant_solution(8)
    prob = wf.JhProblem(0.0, 1e-8)
    lhs, rhs, diff = wf.duality_pairing_check(fem, prob)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12 and abs(diff) < 1e-12
