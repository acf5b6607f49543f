import numpy as np
import pytest

import wedgeflow as wf
from conftest import FAMILIES
from wedgeflow import SLOPE, VALUE


def test_build_mesh_small():
    m = wf.build_mesh(1)
    np.testing.assert_allclose(m.nodes, [0.0, 1.0], atol=0)
    m = wf.build_mesh(4)
    np.testing.assert_allclose(m.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)


def test_build_mesh_320():
    m = wf.build_mesh(320)
    assert m.nodes.size == 321
    assert m.h == 1.0 / 320
    assert m.nodes[0] == 0.0 and m.nodes[-1] == 1.0
    assert np.max(np.abs(np.diff(m.nodes) - m.h)) < 1e-15


def test_build_mesh_invalid():
    for bad in (0, -1, 2.5):
        with pytest.raises(ValueError):
            wf.build_mesh(bad)


def test_hermite_dof_counts():
    dm = wf.build_dofmap(wf.build_mesh(1), wf.hermite_family(3), wf.jh_constraints())
    assert dm.n_global == 4
    assert dm.fixed.size == 3
    free = np.flatnonzero(dm.free_mask())
    assert free.tolist() == [3]  # the slope DOF at eta = 1

    dm = wf.build_dofmap(wf.build_mesh(2), wf.hermite_family(4))
    assert dm.n_global == 8  # 2 * 3 nodal pairs + 2 bubbles

    for n in (1, 5, 12):
        for p in (3, 4, 5):
            dm = wf.build_dofmap(wf.build_mesh(n), wf.hermite_family(p))
            assert dm.n_global == 2 * (n + 1) + n * (p - 3)


def test_hierarchic_dof_counts():
    dm = wf.build_dofmap(wf.build_mesh(4), wf.hierarchic_family(1), wf.model_constraints())
    assert dm.n_global == 5
    assert dm.fixed.size == 1
    for n in (1, 4, 9):
        for p in (1, 2, 3, 4, 5):
            dm = wf.build_dofmap(wf.build_mesh(n), wf.hierarchic_family(p))
            assert dm.n_global == (n + 1) + n * (p - 1)


def test_half_bandwidth():
    # p=3 couples only the four nodal DOFs of one element
    assert wf.build_dofmap(wf.build_mesh(4), wf.hermite_family(3)).half_bandwidth == 3
    # bubbles are numbered with their element, so the band stays p wide
    assert wf.build_dofmap(wf.build_mesh(2), wf.hermite_family(4)).half_bandwidth == 4
    assert wf.build_dofmap(wf.build_mesh(3), wf.hierarchic_family(2)).half_bandwidth == 2


@pytest.mark.parametrize("n", [1, 2, 7, 320, 2560])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-p{f.degree}")
def test_element_by_element_numbering(family, n):
    dm = wf.build_dofmap(wf.build_mesh(n), family)
    assert dm.half_bandwidth == family.degree
    # each element's DOFs form one contiguous index range ...
    rows = np.sort(dm.element_dofs, axis=1)
    assert np.array_equal(rows, rows[:, :1] + np.arange(family.degree + 1))
    # ... and together the elements number every global DOF
    assert np.array_equal(np.unique(dm.element_dofs), np.arange(dm.n_global))


def test_constraint_indices():
    dm = wf.build_dofmap(wf.build_mesh(5), wf.hermite_family(3), wf.jh_constraints())
    assert dm.fixed.tolist() == [0, 1, 10]
    assert dm.fixed_values.tolist() == [1.0, 0.0, 0.0]
    dm = wf.build_dofmap(wf.build_mesh(5), wf.hierarchic_family(2), wf.model_constraints())
    assert (dm.fixed.tolist(), dm.fixed_values.tolist()) == ([0], [1.0])
    # p=5 Hermite: node k holds DOFs 4k, 4k+1; element k's bubbles are 4k+2, 4k+3
    dm = wf.build_dofmap(wf.build_mesh(3), wf.hermite_family(5), wf.jh_constraints())
    assert dm.fixed.tolist() == [0, 1, 12]
    assert dm.fixed_values.tolist() == [1.0, 0.0, 0.0]
    assert dm.endpoint(SLOPE, 1) == 13
    assert dm.nodal_dofs(VALUE).tolist() == [0, 4, 8, 12]
    assert dm.nodal_dofs(SLOPE).tolist() == [1, 5, 9, 13]
    # p=3 hierarchic: node k holds DOF 3k
    assert wf.build_dofmap(wf.build_mesh(3), wf.hierarchic_family(3)).endpoint(VALUE, 1) == 9


def test_constraint_errors():
    mesh = wf.build_mesh(3)
    with pytest.raises(ValueError):
        wf.build_dofmap(mesh, wf.hierarchic_family(2), {(SLOPE, 0): 0.0})
    with pytest.raises(ValueError):
        wf.build_dofmap(mesh, wf.hermite_family(3), {("curvature", 0): 0.0})
    with pytest.raises(ValueError):
        wf.build_dofmap(mesh, wf.hermite_family(3), {(VALUE, 2): 0.0})


def test_assembled_band_respects_declared_bandwidth():
    import math

    prob = wf.JhProblem(30.0, math.radians(15.0))
    dm = wf.build_dofmap(wf.build_mesh(6), wf.hermite_family(5), wf.jh_constraints())
    rule = wf.gauss_legendre(wf.required_points(5))
    coeffs = wf.poiseuille_guess(dm, dtype=np.float64)
    jac = wf.assemble_jacobian(prob, dm, coeffs, rule)
    dense = jac.to_dense()
    i, j = np.meshgrid(np.arange(dm.n_global), np.arange(dm.n_global), indexing="ij")
    outside = np.abs(i - j) > dm.half_bandwidth
    assert np.all(dense[outside] == 0.0)
    # the band envelope (declared sparsity) is symmetric and unchanged by
    # constraint rows
    jac_unc = wf.assemble_jacobian(
        prob, wf.build_dofmap(wf.build_mesh(6), wf.hermite_family(5)), coeffs, rule
    )
    assert (jac.n, jac.k) == (jac_unc.n, jac_unc.k)


def test_out_of_band_write_rejected():
    # one cubic Hermite element: 4 DOFs, half-bandwidth 3, all four prescribed
    bcs = {(kind, side): 0.0 for kind in (VALUE, SLOPE) for side in (0, 1)}
    dm = wf.build_dofmap(wf.build_mesh(1), wf.hermite_family(3), bcs)
    mat = wf.BandedMatrix(4, 1)
    with pytest.raises(ValueError, match="does not fit the band"):
        mat.add_elements(dm, np.ones((1, 4, 4)))
    with pytest.raises(ValueError, match="does not fit the band"):
        mat.set_identity_rows(dm)
    assert not mat.data.any()


def test_dofmaps_and_solutions_compare_by_identity():
    # equal contents, but each object may own derived tables or key a cache
    mesh, family = wf.build_mesh(3), wf.hermite_family(3)
    a = wf.build_dofmap(mesh, family, wf.jh_constraints())
    b = wf.build_dofmap(mesh, family, wf.jh_constraints())
    t = np.linspace(0.0, 1.0, 4)
    prob = wf.JhProblem(30.0, 0.25)
    rule = wf.gauss_legendre(3)
    pairs = [
        (a, b),
        (wf.FemSolution(a, np.zeros(a.n_global), True, 0, 0.0),
         wf.FemSolution(a, np.zeros(a.n_global), True, 0, 0.0)),
        (mesh, wf.build_mesh(3)),
        (wf.eval_family(family, t), wf.eval_family(family, t)),
        (wf.ReferenceSolution(prob, 1.0, t, np.zeros((4, 3)), 0.0, None),
         wf.ReferenceSolution(prob, 1.0, t, np.zeros((4, 3)), 0.0, None)),
        (rule, wf.QuadratureRule(rule.points, rule.weights, rule.exactness)),
    ]
    for x, twin in pairs:
        assert x == x and not (x != x)
        assert x != twin
        assert len({x, twin, x}) == 2 and hash(x) == hash(x)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f.kind}-p{f.degree}")
def test_free_mask_is_false_exactly_at_the_prescribed_dofs(family):
    bcs = wf.jh_constraints() if family.kind == wf.HERMITE else wf.model_constraints()
    for n in (1, 4):
        mesh = wf.build_mesh(n)
        for dm in (wf.build_dofmap(mesh, family, bcs), wf.build_dofmap(mesh, family)):
            mask = dm.free_mask()
            assert mask.dtype == bool
            assert np.array_equal(mask, np.isin(np.arange(dm.n_global), dm.fixed, invert=True))
            mask[:] = False  # a new array each call
            assert dm.free_mask().sum() == dm.n_global - dm.fixed.size
