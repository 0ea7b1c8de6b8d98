"""Special functions and Gauss-Jacobi quadrature underpinning the spectral machinery.

Everything here is pure and reentrant: quadrature rules are built once per
(n, order), frozen with read-only arrays, and safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "QuadratureRule",
    "bessel_i",
    "gauss_jacobi_rule",
    "gegenbauer_all",
    "gegenbauer_eval",
    "gegenbauer_norm_sq",
    "log_gamma",
]


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu(x) for nu >= 0, x >= 0."""
    if nu < 0.0 or x < 0.0 or not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError(f"bessel_i requires nu >= 0 and x >= 0, got ({nu}, {x})")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    return float(special.iv(nu, x))


def gegenbauer_eval(k: int, lam: float, t):
    """Gegenbauer polynomial C_k^lam(t) by upward three-term recurrence.

    Seeds C_0 = 1, C_1(t) = 2*lam*t; stable for the degrees used here
    (k <= 64, |t| <= 1).  Accepts scalar or array t.
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if lam <= 0.0 or not math.isfinite(lam):
        raise ValueError(f"index lam must be positive, got {lam}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("non-finite evaluation point")
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = gegenbauer_all(k, lam, t_arr)[-1]
    return float(out[0]) if scalar else out


def gegenbauer_all(max_degree: int, lam: float, t: np.ndarray) -> np.ndarray:
    """All C_k^lam(t) for k = 0..max_degree, shape (max_degree+1,) + t.shape."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if lam <= 0.0:
        raise ValueError(f"index lam must be positive, got {lam}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    table = np.empty((max_degree + 1,) + t.shape)
    table[0] = 1.0
    if max_degree >= 1:
        table[1] = 2.0 * lam * t
    for j in range(1, max_degree):
        # (j+1) C_{j+1} = 2(lam+j) t C_j - (j + 2 lam - 1) C_{j-1}
        table[j + 1] = (
            2.0 * (lam + j) * t * table[j] - (j + 2.0 * lam - 1.0) * table[j - 1]
        ) / (j + 1.0)
    return table


def gegenbauer_value_at_one(k: int, lam: float) -> float:
    """C_k^lam(1) = Gamma(k + 2 lam) / (Gamma(2 lam) k!)."""
    return math.exp(log_gamma(k + 2.0 * lam) - log_gamma(2.0 * lam) - log_gamma(k + 1.0))


def gegenbauer_norm_sq(k: int, lam: float) -> float:
    """Squared weighted L2 norm: int_{-1}^{1} [C_k^lam(t)]^2 (1-t^2)^{lam-1/2} dt.

    Closed form pi 2^{1-2 lam} Gamma(k+2 lam) / (k! (k+lam) Gamma(lam)^2),
    evaluated in log space.
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if lam <= 0.0:
        raise ValueError(f"index lam must be positive, got {lam}")
    log_val = (
        math.log(math.pi)
        + (1.0 - 2.0 * lam) * math.log(2.0)
        + log_gamma(k + 2.0 * lam)
        - log_gamma(k + 1.0)
        - math.log(k + lam)
        - 2.0 * log_gamma(lam)
    )
    return math.exp(log_val)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-t^2)^{(n-3)/2} on (-1, 1).

    Integrates polynomials of degree <= 2*order - 1 exactly against the
    weight; nodes are strictly increasing and weights strictly positive.
    """

    n: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum approximating int f(t) (1-t^2)^{(n-3)/2} dt."""
        return float(np.dot(self.weights, values))


def gauss_jacobi_rule(n: int, order: int) -> QuadratureRule:
    """Quadrature rule for sphere dimension n (weight exponent (n-3)/2).

    Golub-Welsch construction: nodes are eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the three-term recurrence, weights come
    from the first components of the eigenvectors.  Each (n, order) rule is
    built once and shared; its arrays are read-only.
    """
    if n < 3:
        raise ValueError(f"sphere dimension must be >= 3, got {n}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return _gauss_jacobi_rule(n, order)


@functools.lru_cache(maxsize=None)
def _gauss_jacobi_rule(n: int, order: int) -> QuadratureRule:
    alpha = 0.5 * (n - 3)  # symmetric Jacobi weight (1-t)^alpha (1+t)^alpha
    j = np.arange(1, order, dtype=float)
    ab = 2.0 * alpha
    s = 2.0 * j + ab
    b = 4.0 * j * (j + alpha) ** 2 * (j + ab) / (s**2 * (s**2 - 1.0))
    diag = np.zeros(order)
    off = np.sqrt(b)
    if order > 1:
        nodes, vecs = eigh_tridiagonal(diag, off)
        first_row = vecs[0]
    else:
        nodes = np.zeros(1)
        first_row = np.ones(1)
    # mu0 = int (1-t^2)^alpha dt = 2^{2 alpha + 1} B(alpha+1, alpha+1)
    log_mu0 = (ab + 1.0) * math.log(2.0) + 2.0 * log_gamma(alpha + 1.0) - log_gamma(ab + 2.0)
    mu0 = math.exp(log_mu0)
    weights = mu0 * first_row**2
    order_idx = np.argsort(nodes)
    nodes, weights = nodes[order_idx], weights[order_idx]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(n=n, order=order, nodes=nodes, weights=weights)
