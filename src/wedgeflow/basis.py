"""Reference-element shape functions: C1 Hermite and C0 hierarchic families."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

HERMITE = "hermite_c1"
HIERARCHIC = "hierarchic_c0"


@dataclass(frozen=True)
class ElementFamily:
    """Element family tag: kind plus polynomial degree p (p + 1 functions)."""

    kind: str
    degree: int

    #: Each kind's supported degrees, and the DOFs of one mesh node: a C1
    #: Hermite node carries a value and a slope, a C0 hierarchic node a value.
    DEGREES: ClassVar[dict] = {HERMITE: (3, 4, 5), HIERARCHIC: (1, 2, 3, 4, 5)}
    PER_NODE: ClassVar[dict] = {HERMITE: 2, HIERARCHIC: 1}

    def __post_init__(self):
        if self.kind not in self.DEGREES:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.degree not in self.DEGREES[self.kind]:
            raise ValueError(
                f"{self.kind} family supports p in {self.DEGREES[self.kind]}, got {self.degree}"
            )

    @property
    def n_funcs(self) -> int:
        return self.degree + 1

    @property
    def per_node(self) -> int:
        return self.PER_NODE[self.kind]


def hermite_family(p: int) -> ElementFamily:
    return ElementFamily(HERMITE, p)


def hierarchic_family(p: int) -> ElementFamily:
    return ElementFamily(HIERARCHIC, p)


@dataclass(frozen=True, eq=False)
class ShapeEval:
    """Shape-function values and reference-coordinate derivatives at sample t.

    Arrays are shaped (p + 1, len(t)); `second_derivs` is None for the
    hierarchic family.  Evaluations compare by identity.
    """

    values: np.ndarray
    first_derivs: np.ndarray
    second_derivs: np.ndarray | None = None


# Power-basis coefficients (ascending) of the Hermite functions on [0, 1],
# ordered (value-left, slope-left, value-right, slope-right, bubbles...);
# degree p uses the first p + 1 rows.
# Bubbles: t^2 (1-t)^2 and t^2 (1-t)^2 (2t-1).
_HERMITE_COEFFS = np.array(
    [
        [1.0, 0.0, -3.0, 2.0, 0.0, 0.0],
        [0.0, 1.0, -2.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, -2.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -2.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 4.0, -5.0, 2.0],
    ]
)


def eval_hermite(p: int, t) -> ShapeEval:
    """Evaluate the C1 Hermite family of degree p at reference coordinates t.

    The four nodal functions carry (value, slope) at t=0 and t=1 with the
    Kronecker property; higher-degree bubbles vanish to first order at both
    endpoints.

    Parameters
    ----------
    p : int
        Degree, one of {3, 4, 5}.
    t : float or array_like
        Reference coordinates in [0, 1].
    """
    ElementFamily(HERMITE, p)  # rejects an unsupported p
    t = np.atleast_1d(np.asarray(t))
    if not np.issubdtype(t.dtype, np.floating):
        t = t.astype(float)
    coeffs = _HERMITE_COEFFS[: p + 1].T.astype(t.dtype)  # column i: function i
    vals, d1, d2 = (nppoly.polyval(t, nppoly.polyder(coeffs, m)) for m in range(3))
    return ShapeEval(vals, d1, d2)


def eval_hierarchic(p: int, t) -> ShapeEval:
    """Evaluate the C0 hierarchic family of degree p at reference coordinates t.

    Ordering: hat-left (1 - t), hat-right (t), then bubbles of degree 2..p.
    Bubble k is the scaled integrated Legendre polynomial
    (P_{k-2}(2t-1) - P_k(2t-1)) / (2k - 1), signed so the quadratic bubble is
    positive with its maximum at t = 0.5; every bubble vanishes at t=0 and t=1.
    """
    ElementFamily(HIERARCHIC, p)  # rejects an unsupported p
    t = np.atleast_1d(np.asarray(t))
    if not np.issubdtype(t.dtype, np.floating):
        t = t.astype(float)
    vals = np.empty((p + 1, t.size), dtype=t.dtype)
    d1 = np.empty_like(vals)
    vals[0] = 1 - t
    d1[0] = -1.0
    vals[1] = t
    d1[1] = 1.0
    s = 2 * t - 1
    for k in range(2, p + 1):
        low = np.zeros(k + 1)
        low[k - 2] = 1.0
        high = np.zeros(k + 1)
        high[k] = 1.0
        scale = 1.0 / (2 * k - 1)
        vals[k] = (npleg.legval(s, low) - npleg.legval(s, high)) * scale
        d1[k] = 2.0 * (npleg.legval(s, npleg.legder(low)) - npleg.legval(s, npleg.legder(high))) * scale
    return ShapeEval(vals, d1, None)


def eval_family(family: ElementFamily, t) -> ShapeEval:
    """Dispatch to the family's evaluator."""
    if family.kind == HERMITE:
        return eval_hermite(family.degree, t)
    return eval_hierarchic(family.degree, t)
