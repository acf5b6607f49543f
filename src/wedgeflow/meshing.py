"""Uniform 1D meshes, global DOF numbering, and endpoint Dirichlet constraints."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import ElementFamily

#: Constraint keys are (kind, side) with kind in {"value", "slope"} and side in
#: {0, 1} for the left/right domain endpoint; values are the prescribed data.
VALUE = "value"
SLOPE = "slope"


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Uniform mesh of n_elem elements on [0, 1]; meshes compare by identity."""

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


@dataclass(frozen=True, eq=False)
class DofMap:
    """Element-to-global DOF table with constraint bookkeeping.

    Numbering runs element by element: the left node's DOFs (value, then slope
    for the Hermite family), then the element's bubbles, then the next
    element, ending with the last node's DOFs.  Each row of `element_dofs` is
    therefore one contiguous index range, in the family's local order (left
    node, right node, bubbles), and the half-bandwidth equals the degree p.
    `fixed` holds the prescribed global DOFs in ascending order and
    `fixed_values` their values; both are read-only.  Maps compare by identity.
    """

    family: ElementFamily
    element_dofs: np.ndarray
    n_global: int
    half_bandwidth: int
    fixed: np.ndarray
    fixed_values: np.ndarray

    @property
    def n_elem(self) -> int:
        return self.element_dofs.shape[0]

    @cached_property
    def column_slices(self) -> tuple[list, int, int]:
        """(first, stride, span) such that column a of `element_dofs` is the
        global index slice first[a] : first[a] + span : stride.

        Element-by-element numbering gives every row as row 0 plus e * stride;
        any other table raises ValueError.
        """
        dofs, n_elem = self.element_dofs, self.n_elem
        stride = int(dofs[1, 0] - dofs[0, 0]) if n_elem > 1 else 1
        if stride < 1 or not (dofs[1:] - dofs[:-1] == stride).all():
            raise ValueError("element DOF rows must repeat with a fixed positive stride")
        return dofs[0].tolist(), stride, stride * (n_elem - 1) + 1

    @cached_property
    def pair_slices(self) -> list[tuple[int, slice]]:
        """[(i - j, columns j)] for each local pair (a, b), a major: entry
        (element_dofs[e, a], element_dofs[e, b]) of every element e lies on the
        diagonal i - j at one strided slice of columns j."""
        first, stride, span = self.column_slices
        if max(first) - min(first) > self.half_bandwidth:
            raise ValueError("element DOFs span more than the half-bandwidth")
        return [(row - col, slice(col, col + span, stride)) for row in first for col in first]

    @cached_property
    def fixed_band(self) -> tuple[np.ndarray, np.ndarray]:
        """(i - j, j) of every entry (i, j) with |i - j| <= `half_bandwidth` in the
        prescribed rows i: all the entries of those rows that elements can reach."""
        i = self.fixed[:, None]
        j = i + np.arange(-self.half_bandwidth, self.half_bandwidth + 1)
        inside = (j >= 0) & (j < self.n_global)
        return (i - j)[inside], j[inside]

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
        mask[self.fixed] = False
        return mask

    def endpoint(self, kind: str, side: int) -> int:
        """Global index of the `kind` DOF ("value" or "slope") at eta = `side`."""
        return int(self.element_dofs[_node_index(self.family, kind, side)])

    def nodal_dofs(self, kind: str) -> np.ndarray:
        """Global indices of the `kind` DOF at every mesh node, left to right."""
        left = self.element_dofs[:, _node_index(self.family, kind, 0)[1]]
        return np.append(left, self.endpoint(kind, 1))


def _node_index(family: ElementFamily, kind: str, side: int) -> tuple[int, int]:
    """(row, column) in `element_dofs` of the `kind` DOF at eta = `side`: the
    left node of the first element (0) or the right node of the last (1)."""
    if side not in (0, 1):
        raise ValueError(f"constraint side must be 0 or 1, got {side!r}")
    if kind not in (VALUE, SLOPE):
        raise ValueError(f"constraint kind must be 'value' or 'slope', got {kind!r}")
    if kind == SLOPE and family.per_node == 1:
        raise ValueError(f"{family} has no slope DOFs")
    return -side, family.per_node * side + (kind == SLOPE)


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
    per_node = family.per_node
    stride = p + 1 - per_node  # one node's DOFs plus one element's bubbles
    start = stride * np.arange(n, dtype=np.intp)[:, None]
    node = np.arange(per_node, dtype=np.intp)
    bubbles = np.arange(per_node, stride, dtype=np.intp)
    table = start + np.concatenate([node, stride + node, bubbles])
    half_bw = int(np.max(table.max(axis=1) - table.min(axis=1)))
    prescribed = {
        int(table[_node_index(family, kind, side)]): float(value)
        for (kind, side), value in (bcs or {}).items()
    }
    fixed = np.array(sorted(prescribed), dtype=np.intp)
    fixed_values = np.array([prescribed[i] for i in fixed], dtype=np.float64)
    for array in (table, fixed, fixed_values):
        array.setflags(write=False)
    return DofMap(family, table, n * stride + per_node, half_bw, fixed, fixed_values)


def jh_constraints() -> dict:
    """Boundary conditions of the wedge-flow problem: f(0)=1, f'(0)=0, f(1)=0."""
    return {(VALUE, 0): 1.0, (SLOPE, 0): 0.0, (VALUE, 1): 0.0}


def model_constraints() -> dict:
    """Boundary condition of the first-order model problem: u(0)=1."""
    return {(VALUE, 0): 1.0}
