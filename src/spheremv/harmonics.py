"""Zonal spherical-harmonics transforms on S^{n-1}.

All zonal objects are reduced to one dimension via t = <axis, x>; the
inner product convention is <f, g> = omega_n^{-1} int f g dsigma, so the
normalized zonal harmonic Y_{l,0}(t) = A_l C_l^{(n-2)/2}(t) satisfies
<Y_{l,0}, Y_{l,0}> = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    QuadratureRule,
    gauss_jacobi_rule,
    gegenbauer_all,
    gegenbauer_eval,
    gegenbauer_norm_sq,
    gegenbauer_value_at_one,
    log_gamma,
)

__all__ = [
    "SpectralBasis",
    "ZonalCoefficients",
    "ZonalProfile",
    "TripleProduct",
    "c_lambda",
    "decompose",
    "omega_n",
    "reconstruct",
    "spectral_basis",
    "sphere_integral",
    "triple_product_integral",
    "y_l0",
    "zonal_norm_constant",
]


def omega_n(n: int) -> float:
    """Surface measure of S^{n-1}: 2 pi^{n/2} / Gamma(n/2), in logs (0.0 once it underflows)."""
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    return 2.0 * math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


def c_lambda(lam: float) -> float:
    """Normalization constant of the weight: 1 / int (1-t^2)^{lam-1/2} dt."""
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    return math.exp(log_gamma(lam + 1.0) - 0.5 * math.log(math.pi) - log_gamma(lam + 0.5))


def zonal_norm_constant(l: int, n: int) -> float:
    """A_l > 0 such that Y_{l,0} = A_l C_l^{(n-2)/2} has unit norm."""
    if l < 0 or n < 3:
        raise ValueError(f"need l >= 0 and n >= 3, got ({l}, {n})")
    lam = 0.5 * (n - 2)
    return 1.0 / math.sqrt(c_lambda(lam) * gegenbauer_norm_sq(l, lam))


def y_l0(l: int, n: int, t) :
    """Normalized zonal harmonic Y_{l,0}(t) = A_l C_l^{(n-2)/2}(t)."""
    return zonal_norm_constant(l, n) * gegenbauer_eval(l, 0.5 * (n - 2), t)


@dataclass(frozen=True)
class SpectralBasis:
    """Gegenbauer analysis/synthesis pair of degree K on the order-M rule of S^{n-1}.

    Spherical convolution is diagonal in this basis (Funk-Hecke), so every
    zonal transform is one of its two matrices:
      analysis  (K+1, M): g_hat = analysis @ g(t_i)    (`decompose`)
      synthesis (M, K+1): g(t_i) = synthesis @ g_hat   (`reconstruct` at the nodes)
    All arrays are read-only; one instance is shared per (n, K, M).
    """

    n: int
    K: int
    rule: QuadratureRule
    table: np.ndarray  # C_k^lam(t_i), (K+1, M)
    at_one: np.ndarray  # C_k^lam(1)
    norm: np.ndarray  # A_l of Y_{l,0} = A_l C_l^lam
    factors: np.ndarray  # synthesis factors (2k+n-2)/(n-2)
    c_lam: float
    analysis: np.ndarray
    synthesis: np.ndarray


def spectral_basis(n: int, K: int, M: int) -> SpectralBasis:
    """The shared basis of degree K on gauss_jacobi_rule(n, M); needs M >= K + 2."""
    if M < K + 2:
        raise ValueError(f"quadrature order {M} insufficient for K={K} (need >= K+2)")
    return _spectral_basis(n, K, M)


@functools.lru_cache(maxsize=64)  # a scan needs one or two; the bound caps memory in sweeps
def _spectral_basis(n: int, K: int, M: int) -> SpectralBasis:
    rule = gauss_jacobi_rule(n, M)
    lam = 0.5 * (n - 2)
    table = gegenbauer_all(K, lam, rule.nodes)
    at_one = np.array([gegenbauer_value_at_one(k, lam) for k in range(K + 1)])
    norm = np.array([zonal_norm_constant(k, n) for k in range(K + 1)])
    factors = (2.0 * np.arange(K + 1) + n - 2.0) / (n - 2.0)
    c_lam = c_lambda(lam)
    analysis = c_lam * (table / at_one[:, None]) * rule.weights[None, :]
    synthesis = (table * factors[:, None]).T
    for array in (table, at_one, norm, factors, analysis, synthesis):
        array.flags.writeable = False
    return SpectralBasis(
        n=n, K=K, rule=rule, table=table, at_one=at_one, norm=norm, factors=factors,
        c_lam=c_lam, analysis=analysis, synthesis=synthesis,
    )


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
    """Integral over S^{n-1} of the zonal function: omega_{n-1} * sum w_i g(t_i)."""
    return omega_n(profile.n - 1) * profile.rule.integrate(profile.values)


def decompose(profile: ZonalProfile, K: int) -> ZonalCoefficients:
    """Spherical harmonics decomposition of a zonal profile up to degree K.

    g_hat_k = c_lambda int g(t) C_k(t)/C_k(1) (1-t^2)^{(n-3)/2} dt, evaluated
    with the profile's quadrature rule, which must have order >= K + 2.
    """
    basis = spectral_basis(profile.n, K, profile.rule.order)
    # = basis.analysis @ values; this product order keeps outputs stable to the last digit
    weighted = basis.rule.weights * profile.values
    return ZonalCoefficients(n=profile.n, coeffs=basis.c_lam * (basis.table @ weighted) / basis.at_one)


def reconstruct(coeffs: ZonalCoefficients, t_grid) -> np.ndarray:
    """Evaluate the truncated series sum_k g_hat_k (2k+n-2)/(n-2) C_k(t)."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(np.abs(t) > 1.0 + 1e-14):
        raise ValueError("evaluation points must lie in [-1, 1]")
    n = coeffs.n
    lam = 0.5 * (n - 2)
    K = coeffs.K
    table = gegenbauer_all(K, lam, np.clip(t, -1.0, 1.0))
    factors = (2.0 * np.arange(K + 1) + n - 2.0) / (n - 2.0)
    return np.tensordot(coeffs.coeffs * factors, table, axes=1)


@dataclass(frozen=True)
class TripleProduct:
    """Resonance integral of Y_{l,0}^3 in the conventions the toolkit reports.

    one_d:      (A_l)^3 int C_l^3 (1-t^2)^{(n-3)/2} dt  (paper-style 1-D form)
    sigma:      full-sphere integral of Y_{l,0}^3 against dsigma
    normalized: same against omega_n^{-1} dsigma, i.e. c_lambda * one_d
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
    one_d = basis.norm[l] ** 3 * cube
    sigma = omega_n(n - 1) * one_d
    return TripleProduct(l=l, n=n, one_d=one_d, sigma=sigma, normalized=basis.c_lam * one_d)
