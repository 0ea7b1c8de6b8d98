"""Fixed points of the Gibbs map, branch continuation, and transition scans.

The iteration is damped Picard: rho <- (1 - tau) rho + tau G(rho) with
G(rho) = exp(-gamma W*rho) / Z.  G is evaluated through one precomputed
convolution matrix per (kernel, rule) pair, so a single solve is a loop of
small dense mat-vecs.  The same loop advances a block of densities, one per
column, with one mat-mat per step: a transition scan solves all its seeds at
one gamma that way.  Densities are relative to the normalized measure (see
`meanfield`), so Z and the residual ||rho - G(rho)|| are c_lambda-weighted sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .harmonics import ZonalCoefficients, c_lambda, spectral_basis, y_l0
from .kernels import _COEFF_TOL, stability_check
from .meanfield import (
    EnergyReport,
    ZonalDensity,
    _check_gamma,
    free_energy,
    gamma_sharp,
    make_density,
    uniform_density,
)
from .specfun import QuadratureRule, gauss_jacobi_rule

__all__ = [
    "BifurcationSet",
    "BranchPoint",
    "ResonanceReport",
    "SolveResult",
    "SolverConfig",
    "TransitionReport",
    "bifurcation_points",
    "competitor_energy_gap",
    "find_transition",
    "gibbs_fixed_point",
    "residual",
    "resonance_check",
    "trace_branch",
]


@dataclass(frozen=True)
class SolverConfig:
    tau: float = 0.5
    tol: float = 1e-11
    max_iters: int = 20000
    K: int = 48
    M: int = 72

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"damping tau must lie in (0, 1], got {self.tau}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.K < 0:
            raise ValueError(f"truncation K must be >= 0, got {self.K}")
        if self.M < self.K + 2:
            raise ValueError(f"quadrature order {self.M} must be >= K+2 = {self.K + 2}")


class GibbsOperator:
    """Gibbs map G and residual norm on a fixed quadrature grid, matrices precomputed.

    Both act on one density (M,) or column-wise on a block of densities (M, S).
    """

    def __init__(self, kernel: ZonalCoefficients, rule: QuadratureRule, K: int):
        if K > kernel.K:
            raise ValueError(f"K={K} exceeds kernel truncation {kernel.K}")
        n = rule.n
        if n != kernel.n:
            raise ValueError("dimension mismatch between kernel and rule")
        basis = spectral_basis(n, K, rule.order)
        self.rule = basis.rule
        self.K = K
        self.conv_matrix = basis.synthesis @ (kernel.coeffs[: K + 1, None] * basis.analysis)
        self._clam = basis.c_lam
        self._gamma, self._exponent_matrix = None, None

    def gibbs(self, gamma: float, values: np.ndarray) -> np.ndarray:
        if gamma != self._gamma:  # -gamma W*, formed once per gamma
            self._gamma, self._exponent_matrix = gamma, -gamma * self.conv_matrix
        expo = self._exponent_matrix @ values
        expo -= expo.max(axis=0)  # Z is scale invariant; keeps exp in range
        e = np.exp(expo)
        return e / (self._clam * np.dot(self.rule.weights, e))

    def distance(self, values: np.ndarray, image: np.ndarray):
        """Normalized-L2 norm of values - image, e.g. image = G(values).

        A float for one density, an (S,) array for a block.
        """
        d = values - image
        norm_sq = self._clam * np.dot(self.rule.weights, d * d)
        return math.sqrt(norm_sq) if d.ndim == 1 else np.sqrt(norm_sq)


@dataclass(frozen=True)
class SolveResult:
    density: ZonalDensity
    residual: float
    iterations: int
    converged: bool
    message: str = ""


def residual(kernel: ZonalCoefficients, gamma: float, density: ZonalDensity) -> float:
    """Normalized-L2 distance of rho from its Gibbs image."""
    op = GibbsOperator(kernel, density.rule, density.coeffs.K)
    return op.distance(density.values, op.gibbs(gamma, density.values))


def _unsettled(res, tol: float) -> bool:
    """True while some residual is above tol and finite (NaN compares False)."""
    if isinstance(res, float):
        return tol < res < math.inf
    return bool(np.any((res > tol) & (res < math.inf)))


def _damped_picard(
    op: GibbsOperator, gamma: float, values: np.ndarray, config: SolverConfig
) -> tuple[np.ndarray, float | np.ndarray, int]:
    """Damped Picard steps on one density (M,) or on a block (M, S), column-wise.

    Steps until every residual is at most tol or non-finite, or max_iters
    steps are done; converged columns keep stepping with the others.  The
    image G(rho) that measures a step's residual also drives the next step,
    so i steps evaluate G exactly i + 1 times.  Returns the last iterate,
    its residuals (as from `op.distance`) and the number of steps.
    """
    tau, tol = config.tau, config.tol
    # an overflow shows up as a non-finite residual, which ends the solve
    with np.errstate(over="ignore", invalid="ignore"):
        image = op.gibbs(gamma, values)
        res = op.distance(values, image)
        iters = 0
        while iters < config.max_iters and _unsettled(res, tol):
            iters += 1
            values = (1.0 - tau) * values + tau * image
            image = op.gibbs(gamma, values)
            res = op.distance(values, image)
    return values, res, iters


def gibbs_fixed_point(
    kernel: ZonalCoefficients,
    gamma: float,
    init: ZonalDensity,
    config: SolverConfig = SolverConfig(),
    op: Optional[GibbsOperator] = None,
) -> SolveResult:
    """Damped Picard iteration from init until the residual drops below tol.

    Stops at once when the residual turns non-finite; the result is then
    not converged and carries the last finite iterate.
    """
    _check_gamma(gamma)
    if op is None:
        op = GibbsOperator(kernel, init.rule, init.coeffs.K)
    values, res, iters = _damped_picard(op, gamma, init.values, config)
    converged = res <= config.tol
    if converged:
        msg = ""
    elif math.isfinite(res):
        msg = f"no convergence after {iters} iterations"
    else:
        msg = f"non-finite residual at iteration {iters}"
    density = make_density(init.n, init.rule, values, op.K)
    return SolveResult(
        density=density, residual=res, iterations=iters, converged=converged, message=msg
    )


@dataclass(frozen=True)
class BifurcationSet:
    """Bifurcation points (k, gamma_k) plus any coefficient ties that were excluded."""

    points: tuple[tuple[int, float], ...]
    ties: tuple[int, ...] = ()


def bifurcation_points(kernel: ZonalCoefficients) -> BifurcationSet:
    """All (k, gamma_k = -1/W_hat_k) with W_hat_k < 0 unique among the W_hat_j, j >= 1."""
    unstable = stability_check(kernel).unstable_modes
    if not unstable:
        raise ValueError("stable kernel: no bifurcation points")
    coeffs = kernel.coeffs
    # the count includes W_hat_k itself, so > 1 means another j >= 1 ties with it
    ties = tuple(k for k in unstable if np.sum(np.abs(coeffs[1:] - coeffs[k]) <= _COEFF_TOL) > 1)
    points = tuple((k, -1.0 / coeffs[k]) for k in unstable if k not in ties)
    return BifurcationSet(points=points, ties=ties)


@dataclass(frozen=True)
class BranchPoint:
    gamma: float
    density: ZonalDensity
    dominant_mode: int
    amplitude: float
    energy: EnergyReport
    residual: float
    iterations: int

    @property
    def free_energy(self) -> float:
        return self.energy.free_energy


def _seeded_density(
    n: int, rule: QuadratureRule, K: int, base: np.ndarray, mode: int, amplitude: float
) -> ZonalDensity:
    values = np.clip(base + amplitude * y_l0(mode, n, rule.nodes), 1e-14, None)
    return make_density(n, rule, values, K)


def trace_branch(
    kernel: ZonalCoefficients,
    mode: int,
    gamma_grid: Sequence[float],
    config: SolverConfig = SolverConfig(),
) -> tuple[list[BranchPoint], str]:
    """Continue the non-uniform branch of the given mode along an ascending grid.

    The first point is seeded from the uniform state kicked by the mode's
    eigenvector (both signs are tried; the smaller-amplitude non-uniform
    state is kept as the branch).  Every later point starts from the
    previous point's state.  Returns the traced points and a diagnostic
    string ('' when the whole grid was covered).
    """
    gamma_grid = list(gamma_grid)
    if not gamma_grid:
        return [], "empty gamma grid"
    rule = gauss_jacobi_rule(kernel.n, config.M)
    op = GibbsOperator(kernel, rule, config.K)
    uniform = uniform_density(kernel.n, rule, config.K)
    seeds = [
        _seeded_density(kernel.n, rule, config.K, uniform.values, mode, sign * 0.01)
        for sign in (+1.0, -1.0)
    ]
    branch: list[BranchPoint] = []
    for gamma in gamma_grid:
        found = []
        for seed in seeds:
            result = gibbs_fixed_point(kernel, gamma, seed, config, op=op)
            l, amp = result.density.dominant_mode()
            if result.converged and abs(amp) > 10 * config.tol:
                found.append((abs(amp), l, amp, result))
        if not found:
            if branch:
                return branch, f"branch lost at gamma={gamma} (fell back to uniform)"
            return branch, f"branch not found at gamma={gamma}"
        _, l, amp, result = min(found, key=lambda c: c[0])
        branch.append(
            BranchPoint(gamma, result.density, l, amp, free_energy(kernel, result.density, gamma),
                        result.residual, result.iterations)
        )
        seeds = [result.density]
    return branch, ""


@dataclass(frozen=True)
class ResonanceReport:
    satisfied: bool
    gamma_sharp: float
    modes: tuple[int, ...]
    witness_modes: tuple[int, ...]
    witness_coeffs: tuple[float, ...]
    u3: float
    bandwidth: float
    bandwidth_limit: float


def harmonic_combination(
    n: int, modes: Sequence[int], coeffs: Sequence[float], rule: QuadratureRule
) -> tuple[np.ndarray, float]:
    """Sup-normalized combination u of zonal harmonics and its cube mean.

    Returns (values on the rule's nodes, <u^3> against the normalized measure).
    """
    dense = np.linspace(-1.0, 1.0, 2001)
    sup = float(np.max(np.abs(sum(c * y_l0(m, n, dense) for m, c in zip(modes, coeffs)))))
    if sup == 0.0:
        raise ValueError("zero harmonic combination")
    values = sum(c / sup * y_l0(m, n, rule.nodes) for m, c in zip(modes, coeffs))
    u3 = c_lambda(0.5 * (n - 2)) * rule.integrate(values**3)
    return values, u3


_MAX_COMBO = 3  # largest number of resonant modes combined in a witness


def resonance_check(kernel: ZonalCoefficients, delta: float = 0.0) -> ResonanceReport:
    """Search the delta-resonant modes for a sup-normalized u with nonzero cube integral.

    Single modes are scanned first, then sign/weight patterns over pairs and
    triples of resonant modes.  The bandwidth test is
    delta < min(1/4, <u^3>^2 / 49).
    """
    gs = gamma_sharp(kernel)
    n = kernel.n
    threshold = -(1.0 - delta) / gs.gamma
    resonant = [k for k in range(1, kernel.coeffs.size) if kernel.coeffs[k] <= threshold + 1e-15]
    rule = gauss_jacobi_rule(n, max(3 * max(resonant) + 4, 16))
    best = (0.0, (), ())
    weights = (1.0, 0.5)
    for size in range(1, min(_MAX_COMBO, len(resonant)) + 1):
        for modes in itertools.combinations(resonant, size):
            patterns = itertools.product(*[[w * s for w in weights for s in (1.0, -1.0)]] * size)
            seen = set()
            for coeffs in patterns:
                key = tuple(c / coeffs[0] for c in coeffs)  # overall scale is irrelevant
                if coeffs[0] < 0 or key in seen:
                    continue
                seen.add(key)
                _, u3 = harmonic_combination(n, modes, coeffs, rule)
                if abs(u3) > abs(best[0]):
                    best = (u3, modes, coeffs)
    u3, modes, coeffs = best
    limit = min(0.25, u3**2 / 49.0)
    satisfied = abs(u3) > 1e-12 and delta < limit
    return ResonanceReport(
        satisfied=satisfied,
        gamma_sharp=gs.gamma,
        modes=gs.modes,
        witness_modes=tuple(modes),
        witness_coeffs=tuple(coeffs),
        u3=u3,
        bandwidth=delta,
        bandwidth_limit=limit,
    )


def competitor_energy_gap(
    kernel: ZonalCoefficients,
    u_values: np.ndarray,
    u3: float,
    epsilon: float,
    gamma: float,
    rule: QuadratureRule,
    K: int,
) -> float:
    """Free-energy gap F(1 + eps xi u) - F(1) to the uniform state, xi = sign(<u^3>)."""
    n = kernel.n
    xi = 1.0 if u3 >= 0.0 else -1.0
    perturb = 1.0 + epsilon * xi * u_values
    if np.any(perturb <= 0.0):
        raise ValueError("competitor density nonpositive at some node; reduce epsilon")
    density = make_density(n, rule, perturb, K)
    uniform = uniform_density(n, rule, K)
    return (
        free_energy(kernel, density, gamma).free_energy
        - free_energy(kernel, uniform, gamma).free_energy
    )


@dataclass(frozen=True)
class TransitionReport:
    gamma_sharp: Optional[float]
    gamma_c_bracket: Optional[tuple[float, float]]
    type: str  # "discontinuous" | "continuous-candidate" | "none"
    witness: dict = field(default_factory=dict)


_GAP_TOL = 1e-12
_BRACKET_RTOL = 1e-3  # relative width at which bisection of the bracket stops


def find_transition(
    kernel: ZonalCoefficients,
    gamma_grid: Optional[Sequence[float]] = None,
    config: SolverConfig = SolverConfig(),
) -> TransitionReport:
    """Scan gamma in (0, gamma_#] for the first point where a competitor beats uniform.

    Candidates at each gamma: the uniform state, Gibbs fixed points grown
    from each unstable mode's eigenvector (several amplitudes, both signs),
    and the cubic-resonance competitor with the prescribed epsilon.  The
    seeds at one gamma are solved together as one (M, S) Picard block.
    Only the upper end of the bracket (lo, hi) is certified: a witness beats
    uniform at hi, so gamma_c <= hi.  At lo every cold seed (four per seed
    mode, 16 for four modes) relaxed to uniform and the competitor lost, so
    gamma_c may lie below lo.  When the grid's first point already beats
    uniform, half of it is tried as lo; if a candidate wins there too no
    bracket is reported.
    """
    if stability_check(kernel).stable:
        return TransitionReport(
            gamma_sharp=None, gamma_c_bracket=None, type="none", witness={"reason": "stable kernel"}
        )
    gs = gamma_sharp(kernel)
    if gamma_grid is None:
        gamma_grid = np.geomspace(0.2 * gs.gamma, gs.gamma, 200)
    gamma_grid = np.asarray(sorted(gamma_grid), dtype=float)

    rule = gauss_jacobi_rule(kernel.n, config.M)
    op = GibbsOperator(kernel, rule, config.K)
    uniform = uniform_density(kernel.n, rule, config.K)

    seed_modes = sorted({k for k, _ in bifurcation_points(kernel).points[:4]} | set(gs.modes))
    labels, seeds = [], []
    for k in seed_modes:
        sup = abs(y_l0(k, kernel.n, 1.0))
        for amp, sign in itertools.product((0.3, 0.8), (+1.0, -1.0)):
            labels.append(f"mode{k}{'+' if sign > 0 else '-'}{amp}")
            seed = _seeded_density(kernel.n, rule, config.K, uniform.values, k, sign * amp / sup)
            seeds.append(seed.values)
    seeds = np.column_stack(seeds)

    reso = resonance_check(kernel, delta=0.0)
    competitor = None
    if abs(reso.u3) > 1e-12:
        u_values, u3 = harmonic_combination(
            kernel.n, reso.witness_modes, reso.witness_coeffs, rule
        )
        eps = min(0.5, abs(u3) / 4.0)
        competitor = (u_values, u3, eps)

    def gap_at(gamma: float) -> tuple[float, dict]:
        """Lowest free-energy gap to uniform among the fixed points grown from the
        seed columns (solved together as one block) and the competitor."""
        f_uniform = free_energy(kernel, uniform, gamma).free_energy
        best_gap, witness = 0.0, {"kind": "uniform"}
        values, res, _ = _damped_picard(op, gamma, seeds, config)
        for label, column, column_res in zip(labels, values.T, res):
            if not column_res <= config.tol:
                continue
            density = make_density(kernel.n, rule, column, config.K)
            gap = free_energy(kernel, density, gamma).free_energy - f_uniform
            if gap < best_gap:
                mode, amp = density.dominant_mode()
                best_gap = gap
                witness = {
                    "kind": "fixed-point",
                    "seed": label,
                    "dominant_mode": mode,
                    "amplitude": amp,
                    "residual": float(column_res),
                    "gap": gap,
                }
        if competitor is not None:
            u_values, u3, eps = competitor
            try:
                gap = competitor_energy_gap(kernel, u_values, u3, eps, gamma, rule, config.K)
            except ValueError:
                gap = math.inf
            if gap < best_gap:
                best_gap = gap
                witness = {"kind": "competitor", "epsilon": eps, "u3": u3, "gap": gap}
        return best_gap, witness

    prev_gamma = None
    for gamma in gamma_grid:
        gap, witness = gap_at(gamma)
        if gap < -_GAP_TOL:
            break
        prev_gamma = gamma
    else:
        return TransitionReport(
            gamma_sharp=gs.gamma,
            gamma_c_bracket=None,
            type="none",
            witness={"reason": "no sign change on the gamma grid"},
        )
    if prev_gamma is None:  # certify a lower end below the grid
        prev_gamma = 0.5 * gamma
        if gap_at(prev_gamma)[0] < -_GAP_TOL:
            return TransitionReport(
                gamma_sharp=gs.gamma,
                gamma_c_bracket=None,
                type="none",
                witness={"reason": f"uniform already loses at gamma={prev_gamma}"},
            )

    lo, hi = prev_gamma, gamma
    while (hi - lo) / hi > _BRACKET_RTOL:
        mid = 0.5 * (lo + hi)
        gap, wit = gap_at(mid)
        if gap < -_GAP_TOL:
            hi, witness = mid, wit
        else:
            lo = mid
    step = float(np.min(np.diff(gamma_grid))) if gamma_grid.size > 1 else 0.0
    kind = "discontinuous" if hi <= gs.gamma - step else "continuous-candidate"
    return TransitionReport(
        gamma_sharp=gs.gamma, gamma_c_bracket=(lo, hi), type=kind, witness=witness
    )
