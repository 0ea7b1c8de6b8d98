"""Built-in interaction-kernel families and their spectral decompositions.

Four named families are supported, each with a closed-form zonal
decomposition (for all but heat, a stable W_hat_0 times a product of ratios):

  transformer(beta): W(t) = -(1/beta) exp(beta t)
  onsager:           W(t) = sqrt(1 - t^2)
  opinion(p):        W(t) = -(1 + t)^p
  heat(eps):         minus the hyperspherical heat kernel at time eps

A custom kernel is any profile g(t) satisfying the weighted integrability
condition; its coefficients come from quadrature.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import hyp0f1, poch

from .harmonics import ZonalCoefficients, ZonalProfile, decompose, reconstruct, spectral_basis
from .specfun import gauss_jacobi_rule, gegenbauer_all

__all__ = [
    "KernelSpec",
    "StabilityReport",
    "closed_form_coefficients",
    "coefficients",
    "convexity_threshold",
    "kernel_spec_from_json",
    "profile_values",
    "profile_derivative",
    "stability_check",
]

_FAMILIES = ("transformer", "onsager", "opinion", "heat", "custom")
_PARAMETER = {"transformer": "beta", "opinion": "p", "heat": "epsilon"}  # must be > 0

# Truncation used when a family needs a series representation of its profile.
_SERIES_TAIL_TOL = 1e-18
_PRODUCT_BLOCK = 1 << 16  # factors per block of the opinion W_hat_0 product: bounded memory


@dataclass(frozen=True)
class KernelSpec:
    """Rotationally symmetric interaction kernel W(<x, y>) on S^{n-1}."""

    n: int
    family: str
    beta: Optional[float] = None
    p: Optional[float] = None
    epsilon: Optional[float] = None
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    profile_derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derivative_bound: Optional[float] = None

    def __post_init__(self):
        if not (_finite_real(self.n) and self.n == int(self.n) and abs(self.n) <= 2**53):
            raise ValueError(f"sphere dimension n must be an integer at most 2**53, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("beta", "p", "epsilon", "derivative_bound"):
            value = getattr(self, name)
            if value is not None and not _finite_real(value):
                raise ValueError(f"kernel parameter {name} must be a finite number, got {value!r}")
        if self.n < 3:
            raise ValueError(f"sphere dimension must be >= 3, got {self.n}")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        name = _PARAMETER.get(self.family)
        if name and not (getattr(self, name) or 0) > 0:
            raise ValueError(f"{self.family} kernel requires {name} > 0")
        if self.family == "custom" and self.profile is None:
            raise ValueError("custom kernel requires a profile")


def _finite_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) < math.inf


def kernel_spec_from_json(data) -> KernelSpec:
    """Build a KernelSpec from a JSON string, dict, or file path."""
    if isinstance(data, str):
        try:
            obj = json.loads(data)
        except json.JSONDecodeError as exc:
            if data.lstrip().startswith("{"):  # inline JSON, not a path
                raise ValueError(f"malformed kernel JSON: {exc}") from None
            with open(data, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    else:
        obj = data
    if not isinstance(obj, dict):
        raise ValueError(f"kernel description must be a JSON object, got {type(obj).__name__}")
    for key in ("n", "family"):
        if key not in obj:
            raise ValueError(f"kernel description has no {key!r} key")
    family = obj["family"]
    profile = deriv = None
    if family == "custom":
        try:
            table = np.asarray(obj["profile"], dtype=float)
        except TypeError as exc:
            raise ValueError(f"custom profile table is not numeric: {exc}") from None
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError("custom profile table must be rows of [t, g(t)]")
        profile = CubicSpline(table[:, 0], table[:, 1])
        deriv = profile.derivative()
    return KernelSpec(
        n=obj["n"],
        family=family,
        beta=obj.get("beta"),
        p=obj.get("p"),
        epsilon=obj.get("epsilon"),
        profile=profile,
        profile_derivative=deriv,
        derivative_bound=obj.get("derivative_bound"),
    )


def _heat_coeffs(n: int, eps: float, K: int) -> np.ndarray:
    """Coefficients -Gamma(n/2)/(2 sqrt(pi^n)) exp(-k(k+n-2) eps) for k <= K, taken in logs."""
    k = np.arange(K + 1)
    log_c = math.lgamma(0.5 * n) - 0.5 * n * math.log(math.pi) - k * (k + n - 2.0) * eps
    with np.errstate(over="ignore"):  # W_hat_0 = -1/omega_n exceeds 1e308 from n = 439: -inf
        return -0.5 * np.exp(log_c)


def _heat_series_coeffs(n: int, eps: float) -> np.ndarray:
    """The heat coefficients up to the last one above the tail tolerance (at most k = 401)."""
    K = 0
    while K <= 400 and math.exp(-(K + 1) * (K + n - 1.0) * eps) >= _SERIES_TAIL_TOL:
        K += 1
    return _heat_coeffs(n, eps, K)


def profile_values(spec: KernelSpec, t) -> np.ndarray:
    """Evaluate the kernel profile W(t)."""
    t = np.asarray(t, dtype=float)
    if spec.family == "transformer":
        return -np.exp(spec.beta * t) / spec.beta
    if spec.family == "onsager":
        return np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    if spec.family == "opinion":
        return -((1.0 + t) ** spec.p)
    if spec.family == "heat":
        coeffs = _heat_series_coeffs(spec.n, spec.epsilon)
        return reconstruct(ZonalCoefficients(n=spec.n, coeffs=coeffs), t)
    return np.asarray(spec.profile(t), dtype=float)


# Clamp for singular derivatives (Onsager at |t| = 1); the event is rare
# under the dynamics and the clamp width is far below quadrature resolution.
_DERIV_CLIP = 1e-9


def profile_derivative(spec: KernelSpec, t) -> np.ndarray:
    """Evaluate W'(t), clamping t away from +-1 when the derivative is singular."""
    t = np.asarray(t, dtype=float)
    if spec.family == "transformer":
        return -np.exp(spec.beta * t)
    if spec.family == "onsager":
        tc = np.clip(t, -1.0 + _DERIV_CLIP, 1.0 - _DERIV_CLIP)
        return -tc / np.sqrt(1.0 - tc * tc)
    if spec.family == "opinion":
        tc = np.clip(t, -1.0 + _DERIV_CLIP, None) if spec.p < 1.0 else t
        return -spec.p * (1.0 + tc) ** (spec.p - 1.0)
    if spec.family == "heat":
        return _heat_derivative(spec, t, order=1)
    if spec.profile_derivative is not None:
        return np.asarray(spec.profile_derivative(t), dtype=float)
    raise ValueError("custom kernel has no derivative; supply profile_derivative")


def _heat_derivative(spec: KernelSpec, t, order: int) -> np.ndarray:
    """Derivative of the heat-kernel series via d/dt C_k^lam = 2 lam C_{k-1}^{lam+1}."""
    n = spec.n
    lam = 0.5 * (n - 2)
    coeffs = _heat_series_coeffs(n, spec.epsilon)
    K = coeffs.size - 1
    factors = coeffs * (2.0 * np.arange(K + 1) + n - 2.0) / (n - 2.0)
    scale = 1.0
    for m in range(order):
        scale *= 2.0 * (lam + m)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if K < order:
        return np.zeros_like(t)
    table = gegenbauer_all(K - order, lam + order, t)
    return scale * np.tensordot(factors[order:], table, axes=1)


def closed_form_coefficients(spec: KernelSpec, K: int) -> ZonalCoefficients:
    """Spectral decomposition (W_hat_k)_{k<=K} from the family's closed form."""
    if spec.family == "custom":
        raise ValueError("custom kernels have no closed form; use coefficients()")
    if K < 0:
        raise ValueError(f"truncation must be >= 0, got {K}")
    n = spec.n
    k = np.arange(K + 1.0)
    if spec.family == "transformer":
        # -(beta/2)^k / (beta (n/2)_k) 0F1(; n/2 + k; beta^2/4), the Bessel form without Gamma(n/2)
        beta = spec.beta
        rising = np.cumprod(np.r_[1.0, 0.5 * beta / (0.5 * n + k[:-1])])
        vals = -rising / beta * hyp0f1(0.5 * n + k, 0.25 * beta * beta)
    elif spec.family == "onsager":
        # W_hat_0 = Gamma(n/2)^2 / (Gamma((n-1)/2) Gamma((n+1)/2)); the odd coefficients vanish
        m = 2.0 * np.arange(K // 2)
        ratios = (m - 1.0) * (m + 1.0) / ((m + n - 1.0) * (m + n + 1.0))
        vals = np.zeros(K + 1)
        vals[::2] = np.cumprod(np.r_[poch(0.5 * (n - 1), 0.5) / poch(0.5 * n, 0.5), ratios])
    elif spec.family == "opinion":
        # W_hat_0 = -(a)_{p/2} / (b)_{p/2} = -(a)_f / (b)_f times m ratios, p/2 = m + f; then
        # W_hat_{k+1} / W_hat_k = (p - k) / (n - 1 + k + p): exact zeros past an integer p
        p = spec.p
        a, b = 0.5 * (n - 1 + p), 0.5 * n
        m, f = divmod(0.5 * p, 1.0)
        head = poch(a, f) / poch(b, f)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, int(m), _PRODUCT_BLOCK):
                j = f + np.arange(start, min(start + _PRODUCT_BLOCK, m))
                head *= np.prod((a + j) / (b + j))
                if not np.isfinite(head):
                    break
            vals = np.cumprod(np.r_[-head, (p - k[:-1]) / (n - 1.0 + k[:-1] + p)])
    else:  # heat
        vals = _heat_coeffs(n, spec.epsilon, K)
    if not np.all(np.isfinite(vals)):
        raise OverflowError("closed-form coefficient overflow; reduce K or parameters")
    return ZonalCoefficients(n=n, coeffs=vals)


def coefficients(spec: KernelSpec, K: int) -> ZonalCoefficients:
    """Decomposition of any kernel: closed form when available, quadrature otherwise."""
    if spec.family != "custom":
        return closed_form_coefficients(spec, K)
    return quadrature_coefficients(spec, K)


def quadrature_coefficients(spec: KernelSpec, K: int, quad_order: Optional[int] = None) -> ZonalCoefficients:
    """Decomposition by quadrature: the custom kernels' path, and a cross-check of the
    closed forms for the named families.

    The Onsager profile sqrt(1 - t^2) is absorbed into the Jacobi weight by
    using the rule one dimension up, which makes the integrand polynomial
    and the quadrature exact; plain rules converge only algebraically there.
    """
    order = quad_order or max(2 * K + 8, 64)
    if spec.family == "onsager":
        n = spec.n
        basis = spectral_basis(n, K, order)
        rule_up = gauss_jacobi_rule(n + 1, order)
        table = gegenbauer_all(K, 0.5 * (n - 2), rule_up.nodes)
        coeffs = basis.c_lam * (table @ rule_up.weights) / basis.at_one
        return ZonalCoefficients(n=n, coeffs=coeffs)
    rule = gauss_jacobi_rule(spec.n, order)
    values = profile_values(spec, rule.nodes)
    if rule.integrate(np.abs(values)) == math.inf or not np.all(np.isfinite(values)):
        raise ValueError("profile fails the weighted integrability condition")
    return decompose(ZonalProfile(n=spec.n, rule=rule, values=values), K)


# Round-off slack on the sign of a coefficient, and the width of a tie between two.
_COEFF_TOL = 1e-12


@dataclass(frozen=True)
class StabilityReport:
    unstable_modes: tuple[int, ...]  # the k >= 1 with W_hat_k < -_COEFF_TOL, ascending

    @property
    def stable(self) -> bool:
        return not self.unstable_modes


def stability_check(coeffs: ZonalCoefficients) -> StabilityReport:
    """Stable iff W_hat_k >= 0 (to _COEFF_TOL) for every k >= 1 up to the truncation.

    W_hat_0 is left out: adding a constant to W changes neither the dynamics
    nor the stationary states.
    """
    negative = np.nonzero(coeffs.coeffs[1:] < -_COEFF_TOL)[0]
    return StabilityReport(unstable_modes=tuple(int(k) + 1 for k in negative))


def convexity_threshold(spec: KernelSpec) -> Optional[float]:
    """Uniqueness threshold gamma_o = (n-2)/(4C), C bounding |W'|, |W''|, |W'(+-1)|.

    Returns None when the needed derivative bounds do not exist (Onsager) or
    were not supplied (custom kernel without derivative_bound).
    """
    n = spec.n
    if spec.family == "transformer":
        b = spec.beta
        c = max(math.exp(b), b * math.exp(b))
    elif spec.family == "opinion":
        p = spec.p
        if p < 1.0 or (1.0 < p < 2.0):
            return None  # W' or W'' blows up at t = -1
        first = p * 2.0 ** (p - 1.0)
        second = p * (p - 1.0) * 2.0 ** (p - 2.0) if p >= 2.0 else 0.0
        c = max(first, second)
    elif spec.family == "onsager":
        return None  # W'(t) = -t/sqrt(1-t^2) is unbounded
    elif spec.family == "heat":
        grid = np.linspace(-1.0, 1.0, 4001)
        c = max(
            float(np.max(np.abs(_heat_derivative(spec, grid, order=1)))),
            float(np.max(np.abs(_heat_derivative(spec, grid, order=2)))),
        )
    else:
        if spec.derivative_bound is None:
            return None
        c = spec.derivative_bound
    return (n - 2.0) / (4.0 * c)
