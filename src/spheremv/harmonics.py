"""Zonal spherical-harmonics transforms on S^{n-1}.

All zonal objects are reduced to one dimension via t = <axis, x>; the
inner product convention is <f, g> = omega_n^{-1} int f g dsigma, which on
zonal functions is the mean against the quadrature's probability weight.
The normalized zonal harmonics Y_k (`specfun.zonal_table`) are orthonormal
under it, and a zonal g has the Funk-Hecke coefficients
g_hat_k = <g, Y_k> / Y_k(1), so that g = sum_k g_hat_k Y_k(1) Y_k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import poch

from .specfun import QuadratureRule, gauss_jacobi_rule, zonal_table

__all__ = [
    "SpectralBasis",
    "ZonalCoefficients",
    "ZonalProfile",
    "TripleProduct",
    "decompose",
    "omega_n",
    "reconstruct",
    "spectral_basis",
    "sphere_integral",
    "triple_product_integral",
    "y_l0",
]


def omega_n(n: int) -> float:
    """Surface measure of S^{n-1}: 2 pi^{n/2} / Gamma(n/2), in logs (0.0 once it underflows)."""
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    return 2.0 * math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


def y_l0(l: int, n: int, t):
    """Normalized zonal harmonic Y_{l,0}(t), a float for scalar t."""
    values = zonal_table(l, n, t)[l]
    return float(values[0]) if np.ndim(t) == 0 else values


@dataclass(frozen=True)
class SpectralBasis:
    """Zonal harmonics of degree <= K on the order-M rule of S^{n-1}.

    Spherical convolution is diagonal in this basis (Funk-Hecke), so every
    zonal transform is a product with `table`:
      g_hat = (table @ (w * g(t_i))) / at_one    (`decompose`)
      g(t_i) = table.T @ (at_one * g_hat)         (`reconstruct` at the nodes)
    All arrays are read-only; one instance is shared per (n, K, M).
    """

    n: int
    K: int
    rule: QuadratureRule
    table: np.ndarray  # Y_k(t_i), (K+1, M)
    at_one: np.ndarray  # Y_k(1) = sqrt(dim_k)


def spectral_basis(n: int, K: int, M: int) -> SpectralBasis:
    """The shared basis of degree K on gauss_jacobi_rule(n, M); needs M >= K + 2."""
    if M < K + 2:
        raise ValueError(f"quadrature order {M} insufficient for K={K} (need >= K+2)")
    return _spectral_basis(n, K, M)


@functools.lru_cache(maxsize=64)  # a scan needs one or two; the bound caps memory in sweeps
def _spectral_basis(n: int, K: int, M: int) -> SpectralBasis:
    rule = gauss_jacobi_rule(n, M)
    table = zonal_table(K, n, rule.nodes)
    at_one = zonal_table(K, n, 1.0)[:, 0]
    for array in (table, at_one):
        array.flags.writeable = False
    return SpectralBasis(n=n, K=K, rule=rule, table=table, at_one=at_one)


@dataclass(frozen=True)
class ZonalCoefficients:
    """Truncated spherical-harmonics decomposition (g_hat_k)_{k<=K}."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient array must be 1-D and nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite coefficient")

    @property
    def K(self) -> int:
        return self.coeffs.size - 1


@dataclass(frozen=True)
class ZonalProfile:
    """Samples of a zonal function g(t) on the nodes of a quadrature rule."""

    n: int
    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.rule.nodes.shape:
            raise ValueError(
                f"value count {vals.size} does not match rule order {self.rule.order}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite profile value")
        if self.n != self.rule.n:
            raise ValueError(f"profile dimension {self.n} != rule dimension {self.rule.n}")


def sphere_integral(profile: ZonalProfile) -> float:
    """Integral over S^{n-1} of the zonal function: omega_n * sum w_i g(t_i)."""
    return omega_n(profile.n) * profile.rule.integrate(profile.values)


def decompose(profile: ZonalProfile, K: int) -> ZonalCoefficients:
    """Spherical harmonics decomposition of a zonal profile up to degree K.

    g_hat_k = <g, Y_k> / Y_k(1), evaluated with the profile's quadrature
    rule, which must have order >= K + 2.
    """
    basis = spectral_basis(profile.n, K, profile.rule.order)
    weighted = basis.rule.weights * profile.values
    return ZonalCoefficients(n=profile.n, coeffs=(basis.table @ weighted) / basis.at_one)


def reconstruct(coeffs: ZonalCoefficients, t_grid) -> np.ndarray:
    """Evaluate the truncated series sum_k g_hat_k Y_k(1) Y_k(t)."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(np.abs(t) > 1.0 + 1e-14):
        raise ValueError("evaluation points must lie in [-1, 1]")
    at_one = zonal_table(coeffs.K, coeffs.n, 1.0)[:, 0]
    table = zonal_table(coeffs.K, coeffs.n, np.clip(t, -1.0, 1.0))
    return np.tensordot(coeffs.coeffs * at_one, table, axes=1)


@dataclass(frozen=True)
class TripleProduct:
    """Resonance integral of Y_{l,0}^3 in the conventions the toolkit reports.

    normalized: <Y_{l,0}^3>, against omega_n^{-1} dsigma
    sigma:      full-sphere integral against dsigma, omega_n * normalized
    one_d:      int Y_{l,0}^3 (1-t^2)^{(n-3)/2} dt  (paper-style 1-D form),
                normalized * sqrt(pi) Gamma((n-1)/2) / Gamma(n/2)
    """

    l: int
    n: int
    one_d: float
    sigma: float
    normalized: float


def triple_product_integral(l: int, n: int) -> TripleProduct:
    """Quadrature value of the cubic self-resonance integral for Y_{l,0}."""
    if l < 0 or n < 3:
        raise ValueError(f"need l >= 0 and n >= 3, got ({l}, {n})")
    basis = spectral_basis(n, l, max(2 * l + 4, 8))
    cube = basis.rule.integrate(basis.table[l] ** 3)
    if l % 2 == 1:
        cube = 0.0  # odd integrand against an even weight
    one_d = cube * math.sqrt(math.pi) / poch(0.5 * (n - 1), 0.5)
    return TripleProduct(l=l, n=n, one_d=one_d, sigma=omega_n(n) * cube, normalized=cube)
