"""Gauss-Legendre quadrature on the reference interval [0, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_POINTS = 16


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """An n-point rule on [0, 1]: integrates polynomials up to `exactness`.

    Holds read-only copies of its arrays and compares by identity, so the
    tables cached per rule (`solver._reference_tables`) stay valid.
    """

    points: np.ndarray
    weights: np.ndarray
    exactness: int

    def __post_init__(self):
        for name in ("points", "weights"):
            array = np.array(getattr(self, name))
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def integrate(self, values: np.ndarray) -> float:
        """Apply the rule to integrand samples taken at `points`."""
        return float(np.dot(self.weights, values))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Newton iteration for the roots of P_n on [-1, 1]; Chebyshev starting guesses.
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule:
    """Build the n-point Gauss-Legendre rule mapped to [0, 1].

    Parameters
    ----------
    n : int
        Point count, 1 <= n <= 16.

    Returns
    -------
    QuadratureRule
        Rule with exactness 2n - 1.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"point count must be an integer, got {n!r}")
    if n < 1 or n > MAX_POINTS:
        raise ValueError(f"point count must be in [1, {MAX_POINTS}], got {n}")
    x, w = _legendre_nodes(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, 2 * n - 1)


def required_points(p: int) -> int:
    """Minimal point count whose exactness covers degree 3p - 1 integrands."""
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise ValueError(f"basis degree must be a positive integer, got {p!r}")
    return math.ceil(3 * p / 2)
