"""Uniform 1D meshes, global DOF numbering, and endpoint Dirichlet constraints."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import HERMITE, ElementFamily

#: Constraint keys are (kind, side) with kind in {"value", "slope"} and side in
#: {0, 1} for the left/right domain endpoint; values are the prescribed data.
VALUE = "value"
SLOPE = "slope"


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of n_elem elements on [0, 1]."""

    n_elem: int
    nodes: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.n_elem


def build_mesh(n_elem: int) -> Mesh1D:
    """Build the uniform mesh with n_elem elements (n_elem + 1 nodes) on [0, 1]."""
    if not isinstance(n_elem, (int, np.integer)) or isinstance(n_elem, bool) or n_elem < 1:
        raise ValueError(f"n_elem must be a positive integer, got {n_elem!r}")
    nodes = np.linspace(0.0, 1.0, n_elem + 1)
    nodes.setflags(write=False)
    return Mesh1D(n_elem, nodes)


@dataclass(frozen=True)
class DofMap:
    """Element-to-global DOF table with constraint bookkeeping.

    Numbering runs element by element: the left node's DOFs (value, then slope
    for the Hermite family), then the element's bubbles, then the next
    element, ending with the last node's DOFs.  Each row of `element_dofs` is
    therefore one contiguous index range, in the family's local order (left
    node, right node, bubbles), and the half-bandwidth equals the degree p.
    `constraints` maps global DOF index to its prescribed value.
    """

    family: ElementFamily
    element_dofs: np.ndarray
    n_global: int
    half_bandwidth: int
    constraints: dict = field(default_factory=dict)

    @property
    def n_elem(self) -> int:
        return self.element_dofs.shape[0]

    @cached_property
    def column_slices(self) -> tuple[list, int, int]:
        """`column_slices` of `element_dofs`, computed once per map."""
        return column_slices(self.element_dofs)

    def scatter_add(self, out: np.ndarray, local: np.ndarray):
        """Add local[e, a] to out[element_dofs[e, a]] for every element e.

        Each local column a is one strided slice of `out` (`column_slices`).
        A DOF gets at most two contributions, from neighbouring elements, so
        the sum is the same in any order; it keeps the dtype of `out`.
        """
        first, stride, span = self.column_slices
        for a, col in enumerate(first):
            out[col : col + span : stride] += local[:, a]

    def free_mask(self) -> np.ndarray:
        mask = np.ones(self.n_global, dtype=bool)
        for i in self.constraints:
            mask[i] = False
        return mask

    def endpoint(self, kind: str, side: int) -> int:
        """Global index of the `kind` DOF ("value" or "slope") at eta = `side`."""
        col = _node_column(self.family, kind, side)
        return int(self.element_dofs[-1 if side else 0, col])

    def nodal_dofs(self, kind: str) -> np.ndarray:
        """Global indices of the `kind` DOF at every mesh node, left to right."""
        left = self.element_dofs[:, _node_column(self.family, kind, 0)]
        return np.append(left, self.endpoint(kind, 1))


def column_slices(element_dofs: np.ndarray) -> tuple[list, int, int]:
    """(first, stride, span) such that column a of `element_dofs` is the
    global index slice first[a] : first[a] + span : stride.

    Element-by-element numbering gives every row as row 0 plus e * stride;
    any other table raises ValueError.
    """
    n_elem = element_dofs.shape[0]
    stride = int(element_dofs[1, 0] - element_dofs[0, 0]) if n_elem > 1 else 1
    if stride < 1 or not (element_dofs[1:] - element_dofs[:-1] == stride).all():
        raise ValueError("element DOF rows must repeat with a fixed positive stride")
    return element_dofs[0].tolist(), stride, stride * (n_elem - 1) + 1


def _node_column(family: ElementFamily, kind: str, side: int) -> int:
    """Local column of the `kind` DOF at the element's left (0) or right (1) node."""
    if side not in (0, 1):
        raise ValueError(f"constraint side must be 0 or 1, got {side!r}")
    if kind not in (VALUE, SLOPE):
        raise ValueError(f"constraint kind must be 'value' or 'slope', got {kind!r}")
    if family.kind == HERMITE:
        return 2 * side + (0 if kind == VALUE else 1)
    if kind == SLOPE:
        raise ValueError("hierarchic elements carry no slope DOFs to constrain")
    return side


def build_dofmap(mesh: Mesh1D, family: ElementFamily, bcs: dict | None = None) -> DofMap:
    """Number global DOFs for `family` on `mesh` and register endpoint constraints.

    Parameters
    ----------
    mesh : Mesh1D
    family : ElementFamily
    bcs : dict, optional
        Mapping {(kind, side): prescribed_value}; kind in {"value", "slope"},
        side 0 for the left endpoint and 1 for the right.

    Returns
    -------
    DofMap
    """
    n = mesh.n_elem
    p = family.degree
    per_node = 2 if family.kind == HERMITE else 1
    stride = p + 1 - per_node  # one node's DOFs plus one element's bubbles
    start = stride * np.arange(n, dtype=np.intp)[:, None]
    node = np.arange(per_node, dtype=np.intp)
    bubbles = np.arange(per_node, stride, dtype=np.intp)
    table = start + np.concatenate([node, stride + node, bubbles])
    half_bw = int(np.max(table.max(axis=1) - table.min(axis=1)))
    table.setflags(write=False)
    dofmap = DofMap(family, table, n * stride + per_node, half_bw)
    for (kind, side), value in (bcs or {}).items():
        dofmap.constraints[dofmap.endpoint(kind, side)] = float(value)
    return dofmap


def jh_constraints() -> dict:
    """Boundary conditions of the wedge-flow problem: f(0)=1, f'(0)=0, f(1)=0."""
    return {(VALUE, 0): 1.0, (SLOPE, 0): 0.0, (VALUE, 1): 0.0}


def model_constraints() -> dict:
    """Boundary condition of the first-order model problem: u(0)=1."""
    return {(VALUE, 0): 1.0}
