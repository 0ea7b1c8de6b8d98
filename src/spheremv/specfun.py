"""Orthogonal polynomials and Gauss-Jacobi quadrature underpinning the spectral machinery.

One three-term recurrence serves both: the zonal harmonics Y_k of S^{n-1}
are the orthonormal polynomials of the probability weight
c (1-t^2)^{(n-3)/2} on (-1, 1), and their recurrence coefficients are the
off-diagonal of the Jacobi matrix whose eigen-decomposition gives the rule.
No Gamma function is evaluated, so every dimension n >= 3 is handled alike.

Everything here is pure and reentrant: quadrature rules are built once per
(n, order), frozen with read-only arrays, and safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "zonal_table",
]


def _recurrence_coefficients(n: int, count: int) -> np.ndarray:
    """a_1..a_count of t Y_k = a_{k+1} Y_{k+1} + a_k Y_{k-1} on S^{n-1} (n >= 3).

    a_j^2 = j (j+n-3) / ((2j+n-4)(2j+n-2)); the a_j are also the off-diagonal
    of the symmetric Jacobi matrix of the weight (1-t^2)^{(n-3)/2}.
    """
    j = np.arange(1, count + 1, dtype=float)
    return np.sqrt(j * (j + n - 3.0) / ((2.0 * j + n - 4.0) * (2.0 * j + n - 2.0)))


def zonal_table(K: int, n: int, t) -> np.ndarray:
    """Y_0..Y_K at t, shape (K+1,) + t.shape, by the orthonormal recurrence.

    Y_k is the zonal harmonic of degree k on S^{n-1} with unit norm against
    the normalized surface measure, Y_0 = 1 and Y_k(1) = sqrt(dim_k) > 0.
    Raises OverflowError when a value exceeds double precision (Y_K(1) does
    once n^K / K! passes about 1e616).
    """
    if K < 0 or n < 3:
        raise ValueError(f"need K >= 0 and n >= 3, got ({K}, {n})")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite evaluation point")
    a = _recurrence_coefficients(n, K)
    table = np.empty((K + 1,) + t.shape)
    table[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if K >= 1:
            table[1] = t / a[0]
        for k in range(1, K):
            table[k + 1] = (t * table[k] - a[k - 1] * table[k - 1]) / a[k]
    if not np.all(np.isfinite(table)):
        raise OverflowError(f"zonal harmonic of degree <= {K} on S^{n - 1} exceeds double precision")
    return table


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule for the probability weight c (1-t^2)^{(n-3)/2} on (-1, 1).

    The weights sum to 1, so `integrate` is a mean against the normalized
    surface measure of S^{n-1} for zonal functions.  Integrates polynomials
    of degree <= 2*order - 1 exactly; nodes are strictly increasing and
    weights strictly positive.
    """

    n: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum approximating the mean of f(t) against the probability weight."""
        return float(np.dot(self.weights, values))


def gauss_jacobi_rule(n: int, order: int) -> QuadratureRule:
    """Quadrature rule for sphere dimension n (weight exponent (n-3)/2).

    Golub-Welsch construction: nodes are eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the three-term recurrence, weights are the
    squared first components of the eigenvectors.  Each (n, order) rule is
    built once and shared; its arrays are read-only.
    """
    if n < 3:
        raise ValueError(f"sphere dimension must be >= 3, got {n}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _gauss_jacobi_rule(n, order)


@functools.lru_cache(maxsize=None)
def _gauss_jacobi_rule(n: int, order: int) -> QuadratureRule:
    # numpy's eigh gives the nodes in ascending order, and node 0 with weight 1 for order 1
    a = _recurrence_coefficients(n, order - 1)
    nodes, vecs = np.linalg.eigh(np.diag(a, 1) + np.diag(a, -1))
    weights = vecs[0] ** 2
    weights /= math.fsum(weights)  # the eigenvectors have unit norm only up to round-off
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(n=n, order=order, nodes=nodes, weights=weights)
