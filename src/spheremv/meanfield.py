"""Zonal densities, spherical convolution, free energy, and linear stability.

Densities are stored against the normalized measure sigma / |S^{n-1}|, so the
uniform state is rho = 1 and every integral is c_lambda * sum_i w_i f(t_i)
(c_lambda = |S^{n-2}| / |S^{n-1}| covers the azimuthal directions integrated
out).  No engine needs the surface area, which underflows at high dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    ZonalCoefficients,
    ZonalProfile,
    decompose,
    spectral_basis,
)
from .kernels import _COEFF_TOL, stability_check
from .specfun import QuadratureRule

__all__ = [
    "EnergyReport",
    "GammaSharp",
    "StabilitySpectrum",
    "ZonalDensity",
    "convolve",
    "entropy",
    "free_energy",
    "gamma_sharp",
    "interaction_energy",
    "linear_spectrum",
    "uniform_density",
]

_MASS_TOL = 1e-10


@dataclass(frozen=True)
class ZonalDensity:
    """Axially symmetric probability density on S^{n-1} (uniform = 1), immutable once built."""

    n: int
    rule: QuadratureRule
    values: np.ndarray
    coeffs: ZonalCoefficients

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.rule.nodes.shape:
            raise ValueError(f"value count {vals.size} does not match rule order {self.rule.order}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite density value")
        if np.any(vals < 0.0):
            raise ValueError("density must be nonnegative at all nodes")
        if abs(self.mass() - 1.0) > _MASS_TOL:
            raise ValueError(f"density mass {self.mass():.3e} deviates from 1")

    def mean(self, values: np.ndarray) -> float:
        """Integral against the normalized measure of a zonal function given on the nodes."""
        c_lam = spectral_basis(self.n, self.coeffs.K, self.rule.order).c_lam
        return c_lam * self.rule.integrate(values)

    def mass(self) -> float:
        return self.mean(self.values)

    def perturbation_coefficients(self) -> np.ndarray:
        """Coefficients u_hat_l = <u, Y_{l,0}> of u where rho = 1 + u.

        The l = 0 entry is zero by mass conservation.
        """
        basis = spectral_basis(self.n, self.coeffs.K, self.rule.order)
        u_hat = basis.norm * basis.at_one * self.coeffs.coeffs
        u_hat[0] = 0.0
        return u_hat

    def dominant_mode(self) -> tuple[int, float]:
        """(degree, amplitude) of the largest |u_hat_l| among l >= 1."""
        u_hat = self.perturbation_coefficients()
        l = int(np.argmax(np.abs(u_hat[1:]))) + 1
        return l, float(u_hat[l])


def make_density(n: int, rule: QuadratureRule, values: np.ndarray, K: int) -> ZonalDensity:
    """Construct a ZonalDensity, rescaled to unit mass, with cached coefficients."""
    vals = np.asarray(values, dtype=float)
    vals = vals / (spectral_basis(n, K, rule.order).c_lam * rule.integrate(vals))
    coeffs = decompose(ZonalProfile(n=n, rule=rule, values=vals), K)
    return ZonalDensity(n=n, rule=rule, values=vals, coeffs=coeffs)


def uniform_density(n: int, rule: QuadratureRule, K: int) -> ZonalDensity:
    return make_density(n, rule, np.ones(rule.order), K)


def convolve(kernel: ZonalCoefficients, density: ZonalDensity) -> ZonalProfile:
    """W * rho on the density's node grid via the spherical convolution theorem.

    Mode p of the convolution carries the factor W_hat_p.
    """
    if kernel.n != density.n:
        raise ValueError(f"dimension mismatch: kernel n={kernel.n}, density n={density.n}")
    K = density.coeffs.K
    if kernel.K < K:
        raise ValueError(f"kernel truncation {kernel.K} below density truncation {K}")
    conv_coeffs = kernel.coeffs[: K + 1] * density.coeffs.coeffs
    basis = spectral_basis(density.n, K, density.rule.order)
    return ZonalProfile(n=density.n, rule=density.rule, values=basis.synthesis @ conv_coeffs)


def entropy(density: ZonalDensity) -> float:
    """Relative entropy against the normalized volume measure; +inf off the positive cone."""
    if np.any(density.values <= 0.0):
        return math.inf
    return density.mean(density.values * np.log(density.values))


def interaction_energy(kernel: ZonalCoefficients, density: ZonalDensity) -> float:
    """Interaction energy 0.5 * iint W(<x,y>) rho(x) rho(y) against the normalized measure.

    Equals W_hat_0 / 2 plus the quadratic form of the higher modes.
    """
    if kernel.n != density.n:
        raise ValueError("dimension mismatch between kernel and density")
    u_hat = density.perturbation_coefficients()
    K = min(kernel.K, u_hat.size - 1)
    tail = 0.5 * float(np.dot(kernel.coeffs[1 : K + 1], u_hat[1 : K + 1] ** 2))
    return 0.5 * kernel.coeffs[0] + tail


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


@dataclass(frozen=True)
class EnergyReport:
    entropy: float
    interaction: float
    free_energy: float
    gamma: float


def free_energy(kernel: ZonalCoefficients, density: ZonalDensity, gamma: float) -> EnergyReport:
    """Free energy gamma^{-1} * entropy + interaction, reported componentwise."""
    _check_gamma(gamma)
    ent = entropy(density)
    inter = interaction_energy(kernel, density)
    return EnergyReport(entropy=ent, interaction=inter, free_energy=ent / gamma + inter, gamma=gamma)


@dataclass(frozen=True)
class StabilitySpectrum:
    """Eigenvalues lambda_l = -l(n+l-2)(1 + gamma W_hat_l) of the linearized dynamics."""

    gamma: float
    eigenvalues: np.ndarray


def linear_spectrum(kernel: ZonalCoefficients, gamma: float, L: int) -> StabilitySpectrum:
    _check_gamma(gamma)
    if L > kernel.K:
        raise ValueError(f"L={L} exceeds kernel truncation {kernel.K}")
    n = kernel.n
    l = np.arange(L + 1, dtype=float)
    eig = -l * (n + l - 2.0) * (1.0 + gamma * kernel.coeffs[: L + 1])
    return StabilitySpectrum(gamma=gamma, eigenvalues=eig)


@dataclass(frozen=True)
class GammaSharp:
    gamma: float
    modes: tuple[int, ...]


def gamma_sharp(coeffs: ZonalCoefficients) -> GammaSharp:
    """Point of linear stability gamma_# = -1/min_{k>=1} W_hat_k with its index set."""
    unstable = stability_check(coeffs).unstable_modes
    if not unstable:
        raise ValueError("no instability: all coefficients k >= 1 are nonnegative")
    w_min = float(min(coeffs.coeffs[k] for k in unstable))
    modes = tuple(k for k in unstable if coeffs.coeffs[k] <= w_min + _COEFF_TOL)
    return GammaSharp(gamma=-1.0 / w_min, modes=modes)
