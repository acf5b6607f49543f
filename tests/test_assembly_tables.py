"""The per-map assembly tables (`solver._assembly_tables`) and the band solve.

The assemblers build their mesh-dependent tables once per (DofMap, rule,
dtype) and memoise the last two sets.  These tests check that the cached
tables never leak from one map, rule or dtype into another, that the memo
lets go of a map two solves later, and that the band solve and its norm do
what the uncached code did.
"""

import gc
import weakref

import numpy as np
import pytest

import wedgeflow as wf
from conftest import make_problem
from wedgeflow import solver


def _map(n, p=4):
    return wf.build_dofmap(wf.build_mesh(n), wf.hermite_family(p), wf.jh_constraints())


def _coeffs(dm, dtype, seed):
    # division in `dtype` fills the longdouble mantissa beyond float64's
    return np.random.default_rng(seed).standard_normal(dm.n_global).astype(dtype) / dtype(3)


def test_interleaved_maps_rules_and_dtypes_match_fresh_maps():
    prob = make_problem(30.0, 15.0)
    p = 4
    rules = (wf.gauss_legendre(wf.required_points(p)), wf.gauss_legendre(wf.required_points(p) + 2))
    maps = {n: _map(n, p) for n in (7, 8)}
    for sweep in range(2):  # the Jacobian on `dm` reads the float64 residual's cached tables
        for n, dm in maps.items():
            for r, rule in enumerate(rules):
                for dtype in (np.float64, np.longdouble):
                    coeffs = _coeffs(dm, dtype, seed=100 * n + 10 * r + sweep)
                    fresh = _map(n, p)
                    got = wf.assemble_residual(prob, dm, coeffs, rule)
                    want = wf.assemble_residual(prob, fresh, coeffs, rule)
                    assert got.dtype == np.dtype(dtype)
                    assert np.array_equal(got, want)
                    jac = wf.assemble_jacobian(prob, dm, coeffs, rule)
                    jac_fresh = wf.assemble_jacobian(prob, fresh, coeffs, rule)
                    assert np.array_equal(jac.data, jac_fresh.data)
    assert solver._assembly_tables.cache_info().currsize <= 2


def _table_refs(dm, rule):
    """Weak references to `dm` and to its cached float64 and longdouble tables."""
    refs = [weakref.ref(dm)]
    for dtype in (np.float64, np.longdouble):
        tables = solver._assembly_tables(dm, rule, np.dtype(dtype))
        refs += [weakref.ref(t) for t in (tables.v, tables.weights, tables.test)]
    return refs


def _solve_twice_elsewhere():
    prob = make_problem(30.0, 15.0)
    for n in (11, 12):
        assert wf.newton_solve(prob, wf.build_mesh(n), wf.hermite_family(4)).converged
    assert solver._assembly_tables.cache_info().currsize <= 2


def test_tables_die_with_their_map():
    dm = _map(9)
    rule = wf.gauss_legendre(wf.required_points(4))
    prob = make_problem(30.0, 15.0)
    wf.assemble_residual(prob, dm, np.zeros(dm.n_global, dtype=np.longdouble), rule)
    wf.assemble_jacobian(prob, dm, np.zeros(dm.n_global), rule)
    refs = _table_refs(dm, rule)
    del dm
    _solve_twice_elsewhere()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_bad_rule_is_rejected_on_every_call():
    dm = _map(5, p=5)
    low = wf.gauss_legendre(3)  # exactness 5 < 3p - 1 = 14
    for _ in range(2):
        with pytest.raises(ValueError, match="exactness"):
            wf.assemble_residual(make_problem(30.0, 15.0), dm, np.zeros(dm.n_global), low)


def test_solve_banded_leaves_the_matrix_unchanged():
    prob = make_problem(30.0, 15.0)
    dm = _map(40)
    rule = wf.gauss_legendre(wf.required_points(4))
    coeffs = wf.poiseuille_guess(dm).astype(np.float64)
    jac = wf.assemble_jacobian(prob, dm, coeffs, rule)
    before = jac.data.copy()
    b = -wf.assemble_residual(prob, dm, coeffs, rule)
    x = wf.solve_banded(jac, b)
    assert np.array_equal(jac.data, before)
    assert np.array_equal(wf.solve_banded(jac, b), x)  # the same band, solved again
    assert np.max(np.abs(jac.matvec(x) - b)) < 1e-8 * np.max(np.abs(b))


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("n_kind", ["1", "2", "k", "k+1", "50"])
def test_inf_norm_matches_dense(k, n_kind):
    n = {"1": 1, "2": 2, "k": max(k, 1), "k+1": k + 1, "50": 50}[n_kind]
    rng = np.random.default_rng(10 * k + n)
    mat = wf.BandedMatrix(n, k)
    # integers sum exactly in any order; every storage entry is filled, so an
    # entry outside the matrix would show in the norm
    mat.data[:] = rng.integers(-9, 10, size=mat.data.shape)
    expected = np.abs(mat.to_dense()).sum(axis=1).max()
    assert mat.inf_norm() == expected


def test_newton_solve_drops_its_tables():
    fem = wf.newton_solve(make_problem(30.0, 15.0), wf.build_mesh(20), wf.hermite_family(4))
    assert fem.converged
    assert solver._assembly_tables.cache_info().currsize <= 2
    refs = _table_refs(fem.dofmap, wf.gauss_legendre(wf.required_points(4)))
    del fem
    _solve_twice_elsewhere()  # a map two solves old, and its tables, are collectable
    gc.collect()
    assert all(ref() is None for ref in refs)
