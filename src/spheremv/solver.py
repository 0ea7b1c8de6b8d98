"""Fixed points of the Gibbs map, branch continuation, and transition scans.

The iteration is damped Picard: rho <- (1 - tau) rho + tau G(rho) with
G(rho) = exp(-gamma W*rho) / Z.  G is evaluated through one precomputed
convolution matrix per (kernel, rule) pair, so a single solve is a loop of
small dense mat-vecs.  A block of densities, one gamma per column, takes
one mat-mat per step in `_damped_picard`, a generator that yields as columns
leave the block, each at the step it would stop alone in `_picard_alone`,
the engine of a lone solve: a transition scan steps the seeds of up to 16
gammas of its grid as one block, and then each round of bisection midpoints;
it scores each gamma once its seeds have all left and stops at the first winner.
Below gamma_# a density also stops once its moments lie in a ball that
provably relaxes to the uniform state (`GibbsOperator.basin_radius`), and it
is returned as that limit, 1.  Where no such ball exists, a lone solve runs
Picard down to the residual _HANDOFF and finishes with guarded Newton on the
moments a = P_S rho (`_newton`), S cut to the modes that G can resolve at gamma
(`GibbsOperator.resolved_support`).  There a branch walk follows one
pseudo-arclength arc per side from the bifurcation point (a = 0, gamma_k),
along +e_k and -e_k (`_arc`), and takes each point by `_newton` alone from
the arc's prediction at its gamma.
Densities are relative to the normalized measure (see `meanfield`), so Z
and the residual ||rho - G(rho)|| are plain quadrature means.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .harmonics import ZonalCoefficients, spectral_basis, y_l0
from .kernels import _COEFF_TOL, stability_check
from .meanfield import (
    EnergyReport,
    ZonalDensity,
    _check_gamma,
    free_energy,
    free_energy_gap,
    gamma_sharp,
    make_density,
)
from .specfun import QuadratureRule, gauss_jacobi_rule

_log = logging.getLogger("spheremv")

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


# The unit round-off of a double: a field below it on every node leaves exp unchanged to
# one rounding.
_ROUND_OFF = 2.0**-53


class GibbsOperator:
    """Gibbs map G and residual norm on a fixed quadrature grid, matrices precomputed.

    Both act on one density (M,) or column-wise on a block of densities (M, S).
    For reports, `evaluations` counts the `gibbs` calls and `columns` the
    densities they evaluate, `certified` counts the columns that
    `_damped_picard` returned as the uniform limit that `basin_radius` proves,
    and `handoffs` and `rejected` count the lone solves that `gibbs_fixed_point`
    handed to Newton and those whose Newton root it rejected.
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
        self.evaluations = self.columns = self.certified = self.handoffs = self.rejected = 0
        # (W * rho)(t_i) = sum_k W_hat_k Y_k(t_i) sum_j w_j Y_k(t_j) rho_j
        self._table, w_hat = basis.table, kernel.coeffs[: K + 1]
        self.conv_matrix = self._table.T @ (w_hat[:, None] * self._table * self.rule.weights)
        # the support S = {1 <= k <= K : W_hat_k != 0}: G sees only the moments on it
        self._support = np.flatnonzero(w_hat[1:]) + 1
        self._w_support = w_s = w_hat[self._support]
        self._w_range = (float(w_s.min()), float(w_s.max())) if w_s.size else None

    @functools.cached_property
    def _basin(self) -> tuple[np.ndarray, np.ndarray, bool, float]:
        """P_S (|S|, M), W_hat_S Y_S (|S|, M), whether {0} u S is orthonormal under the rule, and B.

        Built at the first gamma that needs them: below the instability for
        the basin, and at a Newton handoff for the moment image.
        """
        weights = self.rule.weights
        rows = self._table[np.r_[0, self._support]]
        gram = (rows * weights) @ rows.T
        orthonormal = np.max(np.abs(gram - np.eye(len(rows)))) <= 1e-10
        scaled = self._w_support[:, None] * rows[1:]
        # B = max_i |(W_hat_k Y_k(t_i))_{k in S}|, which bounds |W * rho| by B ||a||
        sup_bound = np.max(np.linalg.norm(scaled, axis=0))
        return rows[1:] * weights, scaled, bool(orthonormal), float(sup_bound)

    @functools.cached_property
    def _tail_sums(self) -> np.ndarray:
        """sum_{j in S, j >= k} |W_hat_j| h_j^2 for each k in S, h_j = max_i |Y_j(t_i)|; a term
        that overflows is inf, so the modes up to it are all kept."""
        sup = np.max(np.abs(self._table[self._support]), axis=1)
        with np.errstate(over="ignore"):
            return np.cumsum((np.abs(self._w_support) * sup * sup)[::-1])[::-1]

    def resolved_support(self, gamma: float) -> np.ndarray:
        """S_gamma, the leading part of S that is left when the tail T = {k >= k_T} is dropped,
        k_T the least k in S with gamma sum_{j in T} |W_hat_j| h_j^2 <= 2^-53.

        Every density the moment system evaluates is G of something, a probability
        density on the nodes, so |a_j| <= h_j, the dropped field gamma sum_{j in T}
        W_hat_j a_j Y_j is at most 2^-53 on every node, and G moves by a relative
        e^(2^-53) - 1, one rounding of `exp`.  Newton and the branch walk's arc solve
        on S_gamma; Picard, the residual and `basin_radius` keep all of S.
        """
        # the tail sums fall with k; the bound is read as a quotient, which cannot overflow
        return self._support[: int(np.count_nonzero(self._tail_sums > _ROUND_OFF / float(gamma)))]

    def moments_sq(self, values: np.ndarray):
        """||P_S rho||^2 of one density, or per column of a block."""
        a = self._basin[0] @ values
        return np.dot(a, a) if a.ndim == 1 else np.einsum("ij,ij->j", a, a)

    def moment_image(self, gamma: float, a: np.ndarray) -> np.ndarray:
        """G at the moments a on the leading len(a) modes of S, from the field
        Y_S^T (W_hat_S a), whose rows `_basin` holds."""
        return self._boltzmann(gamma, self._basin[1][: len(a)].T @ a)

    def moment_jacobian(self, gamma: float, image: np.ndarray) -> np.ndarray:
        """dF/da = I + gamma Cov_p(Y_S) diag(W_hat_S) of F(a) = a - P_S G(a), at p = G(a) = image,
        on S = S_gamma (`resolved_support`)."""
        _, cov_w = self._covariance(image, len(self.resolved_support(gamma)))
        return np.eye(len(cov_w)) + gamma * cov_w

    def _covariance(self, image: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
        """E_p Y_S and Cov_p(Y_S) diag(W_hat_S) at the density p = image, S the leading
        `size` modes of the support."""
        proj, scaled = self._basin[0][:size], self._basin[1][:size]
        mean = proj @ image
        return mean, (proj * image) @ scaled.T - np.outer(mean, self._w_support[:size] * mean)

    def gibbs(self, gamma, values: np.ndarray) -> np.ndarray:
        """G(rho) at gamma, a float or one value per column of a block (S,)."""
        self.evaluations += 1
        self.columns += 1 if values.ndim == 1 else values.shape[1]
        return self._boltzmann(gamma, self.conv_matrix @ values)

    def _boltzmann(self, gamma, expo: np.ndarray) -> np.ndarray:
        """e^u / <e^u> with u = -gamma W * rho, given W * rho; overwrites it."""
        expo *= -gamma
        expo -= expo.max(axis=0)  # Z is scale invariant; keeps exp in range
        e = np.exp(expo, out=expo)
        e /= np.dot(self.rule.weights, e)
        return e

    def norm(self, d: np.ndarray):
        """Normalized-L2 norm, e.g. of the residual rho - G(rho).

        A float for one density, an (S,) array for a block.
        """
        mean_sq = np.dot(self.rule.weights, d * d)
        return math.sqrt(mean_sq) if d.ndim == 1 else np.sqrt(mean_sq)

    def uniform_residual(self, gamma: float) -> float:
        """||1 - G(1)|| at gamma, measured without the Picard evaluation that `gibbs` counts."""
        ones = np.ones(self.rule.order)
        return self.norm(ones - self._boltzmann(gamma, self.conv_matrix @ ones))

    def basin_bound(self, gamma: float, tau: float) -> float:
        """basin_radius^2, the bound on ||P_S rho||^2, or -1 when the radius is 0."""
        radius = self.basin_radius(float(gamma), tau)
        return radius * radius if radius > 0.0 else -1.0

    def basin_radius(self, gamma: float, tau: float) -> float:
        """A radius r such that damped Picard from any rho with ||P_S rho|| <= r tends to 1.

        Let B = max_i (sum_{k in S} W_hat_k^2 Y_k(t_i)^2)^(1/2),
        q = max_{k in S} |1 - tau (1 + gamma W_hat_k)| and, when q < 1,
        x = (1 - q) / (tau gamma B), s = x / ((1 + x) e^x) for x <= 1 and
        s = min(1, x / (2 e)) for x > 1, and r = s / (gamma B); else r = 0.
        Either way s (1 + s) e^s <= x: for x <= 1, s <= x; for x > 1,
        s <= 1 and s <= x / (2 e).  An empty S gives r = inf (G is then
        constant), and so does a gamma B that underflows; an x that overflows
        gives s = 1.

        Proof.  G depends on rho only through a = P_S rho.  Put
        u = -gamma sum_{k in S} W_hat_k a_k Y_k; by Cauchy-Schwarz
        |u| <= gamma B ||a|| =: sigma <= s on the nodes.  The rows of
        {Y_0} u S are orthonormal under the rule, so <u> = 0, and Jensen gives
        Z = <e^u> >= 1.  Write e^u = 1 + u + g: g = e^u - 1 - u lies in
        [0, phi] with phi = e^sigma - 1 - sigma <= (sigma^2 / 2) e^sigma
        wherever |u| <= sigma, and so does its mean <g>.  Then
        G = e^u / Z = 1 + u + f with f = (g - <g> - u <g>) / Z, and since
        |g - <g>| <= phi, |f| <= phi (1 + sigma) <= (sigma^2 / 2)(1 + sigma) e^sigma.
        P_S u has entries -gamma W_hat_k a_k, so one step
        a' = (1 - tau) a + tau P_S G has entries
        (1 - tau (1 + gamma W_hat_k)) a_k + tau (P_S f)_k, and by Bessel
        ||a'|| <= q ||a|| + tau ||f||
        <= q ||a|| + (tau gamma B / 2) sigma (1 + sigma) e^sigma ||a||
        <= ((1 + q) / 2) ||a||, since sigma (1 + sigma) e^sigma <= s (1 + s) e^s <= x.
        The ball ||a|| <= r is invariant and a -> 0 geometrically, so
        G(a_n) -> 1 uniformly and
        rho_n = (1 - tau)^n rho_0 + sum_j tau (1 - tau)^(n-1-j) G(a_j) -> 1.

        s, r and the test ||a||^2 <= r^2 are rounded floats, so s (1 + s) e^s
        may exceed x by a relative delta of a few ulps.  That only moves the
        rate to (1 + q) / 2 + delta (1 - q) / 2, still below 1 for q < 1, so
        the ball stays invariant and a still tends to 0.

        Bessel and <u> = 0 need the support orthonormal under the rule; when
        max |sum_i w_i Y_j Y_k - delta_jk| over {0} u S exceeds 1e-10 (the
        weights lose accuracy at high n) r is 0.  Plain floats, so an
        overflowing gamma gives q = inf and r = 0 without a warning.
        """
        if self._w_range is None:
            return math.inf
        gamma = float(gamma)
        low, high = self._w_range  # |1 - tau (1 + gamma w)| is largest at an end of the range
        q = max(abs(1.0 - tau * (1.0 + gamma * low)), abs(1.0 - tau * (1.0 + gamma * high)))
        # gamma_# = -1 / low as `gamma_sharp` has it, so that no round-off in q certifies there
        if not q < 1.0 or (low < 0.0 and gamma >= -1.0 / low):
            return 0.0
        _, _, orthonormal, sup_bound = self._basin
        if not orthonormal:
            return 0.0
        gb = gamma * sup_bound
        if gb == 0.0:
            return math.inf
        x = (1.0 - q) / tau / gb  # inf where it overflows, never a ZeroDivisionError
        s = x / ((1.0 + x) * math.exp(x)) if x <= 1.0 else min(1.0, x / (2.0 * math.e))
        return s / gb


@dataclass(frozen=True)
class SolveResult:
    density: ZonalDensity
    residual: float
    iterations: int  # Picard steps
    converged: bool
    message: str = ""
    newton_steps: int = 0


def residual(kernel: ZonalCoefficients, gamma: float, density: ZonalDensity) -> float:
    """Normalized-L2 distance of rho from its Gibbs image."""
    op = GibbsOperator(kernel, density.rule, density.coeffs.K)
    return op.norm(density.values - op.gibbs(gamma, density.values))


# gammas whose seeds are solved as one Picard block
_GROUP_WIDTH = 16


def _picard_alone(
    op: GibbsOperator, gamma: float, values: np.ndarray, config: SolverConfig
) -> tuple[np.ndarray, float, int]:
    """Damped Picard steps on one density (M,), the lone solve that each column of a
    `_damped_picard` block equals; its per-step test is kept to floats."""
    tau, tol = config.tau, config.tol
    bound = op.basin_bound(gamma, tau)
    step, inside = 0, False
    # an overflow shows up as a non-finite residual, which stops the solve
    with np.errstate(over="ignore", invalid="ignore"):
        delta = values - op.gibbs(gamma, values)
        res = op.norm(delta)
        while tol < res < math.inf:
            inside = bound > 0.0 and op.moments_sq(values) <= bound
            if inside or step == config.max_iters:
                break
            step += 1
            values = values - tau * delta
            delta = values - op.gibbs(gamma, values)
            res = op.norm(delta)
    if inside:  # the proven limit replaces the iterate
        op.certified += 1
        return np.ones(len(values)), op.uniform_residual(float(gamma)), step
    return values, res, step


def _damped_picard(op: GibbsOperator, gamma, values: np.ndarray, config: SolverConfig):
    """Damped Picard steps column-wise on a block of densities (M, S), as a generator.

    gamma is a float or one value per column, and each column leaves the block
    at the step where it would stop alone (`_picard_alone`): its residual is
    at most tol or non-finite, its moments lie in the ball ||P_S rho|| <= r(gamma)
    of `GibbsOperator.basin_radius`, which proves that it relaxes to uniform,
    or it has taken max_iters steps.  A column still above tol but inside the
    ball is replaced, as it leaves, by its limit, the uniform density 1, with
    the residual ||1 - G(1)||.  After each step at which columns leave, it
    yields (iterates (M, S), residuals (S,), stopped (S,), steps): the
    columns that `stopped` marks hold their final iterate and residual, and
    later steps write only the others.  The last yield has every column
    stopped, at the step count of the slowest.  The residual rho - G(rho)
    that a step measures also drives the next step,
    rho <- rho - tau (rho - G(rho)), so i steps evaluate G at i + 1 iterates.
    """
    tau, tol = config.tau, config.tol
    gammas = np.broadcast_to(np.asarray(gamma, dtype=float), values.shape[1:])
    distinct, which = np.unique(gammas, return_inverse=True)
    bounds = np.array([op.basin_bound(g, tau) for g in distinct])[which]
    uniform = functools.cache(op.uniform_residual)  # once per gamma that certifies a column
    out, last = np.empty_like(values), np.empty(len(gammas))
    stopped = np.zeros(len(gammas), dtype=bool)
    live, step, delta = np.arange(len(gammas)), 0, np.zeros_like(values)
    while True:
        # an overflow shows up as a non-finite residual, which stops the column;
        # the caller's error state is back at each yield
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                values = values - tau * delta  # the first delta is 0: G at the start
                delta = values - op.gibbs(gammas, values)
                res = op.norm(delta)
                stepping = (res > tol) & (res < math.inf)
                inside = stepping & (op.moments_sq(values) <= bounds)  # certified; no ball at -1
                stepping &= ~inside
                if step == config.max_iters:
                    stepping[:] = False
                if not stepping.all():
                    break
                step += 1
            stop = live[~stepping]  # the stopped columns leave the block
            out[:, stop], last[stop], stopped[stop] = values[:, ~stepping], res[~stepping], True
            if inside.any():  # the proven limit replaces the iterate
                out[:, live[inside]] = 1.0
                last[live[inside]] = [uniform(float(g)) for g in gammas[inside]]
                op.certified += int(np.count_nonzero(inside))
        yield out, last, stopped, step
        if not stepping.any():
            return
        live, values, delta = live[stepping], values[:, stepping], delta[:, stepping]
        gammas, bounds = gammas[stepping], bounds[stepping]
        step += 1


# A lone solve that no basin ball can certify hands its Picard iterate to
# Newton on the moments once the residual is at most _HANDOFF; Newton takes at
# most _NEWTON_STEPS steps.
_HANDOFF = 1e-5
_NEWTON_STEPS = 8


def _newton(
    op: GibbsOperator, gamma: float, values: np.ndarray, config: SolverConfig
) -> tuple[Optional[tuple[np.ndarray, float]], int]:
    """Newton on F(a) = a - P_S G(a), a = P_S rho, S = S_gamma (`GibbsOperator.resolved_support`),
    from the Picard iterate `values`.

    Returns ((root, residual) or None, steps).  Each step solves
    dF/da d = -F at a = P_S rho and takes rho <- G(a + d), so it evaluates
    G twice: through `GibbsOperator.moment_image`, and through `gibbs` for the
    residual ||rho - G(rho)|| and the next F; so n steps make n + 1 `gibbs`
    calls.  It takes at least one step, so that a start already within tol
    is polished.  The root is accepted only when its residual is at most tol,
    the residual fell at every step (at most _NEWTON_STEPS), rho > 0 on every
    node, and it is the Picard limit of `values`: every eigenvalue lambda of
    dF/da at the root a_N has |1 - tau lambda| < 1, and
    ||F(a_h) - dF/da(a_N) (a_h - a_N)|| <= ||F(a_h)|| / 4 at a_h = P_S values.
    A singular dF/da rejects the root too.
    """
    proj = op._basin[0][: len(op.resolved_support(gamma))]
    # an overflow shows up as a non-finite residual, which rejects the root
    with np.errstate(over="ignore", invalid="ignore"):
        image = op.gibbs(gamma, values)
        res = op.norm(values - image)
        start = a = proj @ values
        f_start = f = a - proj @ image
        steps = 0
        try:
            while res > config.tol or not steps:  # a start within tol is polished too
                if steps == _NEWTON_STEPS:
                    return None, steps
                step = np.linalg.solve(op.moment_jacobian(gamma, image), f)
                values = op.moment_image(gamma, a - step)
                image = op.gibbs(gamma, values)
                steps += 1
                last, res = res, op.norm(values - image)
                if not res < last:
                    return None, steps
                a = proj @ values
                f = a - proj @ image
            jac = op.moment_jacobian(gamma, image)
            attracts = np.all(np.abs(1.0 - config.tau * np.linalg.eigvals(jac)) < 1.0)
        except np.linalg.LinAlgError:
            return None, steps
        near = np.linalg.norm(f_start - jac @ (start - a)) <= 0.25 * np.linalg.norm(f_start)
    if attracts and near and np.all(values > 0.0):
        return (values, res), steps
    return None, steps


def gibbs_fixed_point(
    kernel: ZonalCoefficients,
    gamma: float,
    init: ZonalDensity,
    config: SolverConfig = SolverConfig(),
    op: Optional[GibbsOperator] = None,
) -> SolveResult:
    """Damped Picard iteration from init until the residual drops below tol.

    Below gamma_# the iteration also stops once its moments prove that it
    relaxes to uniform (`GibbsOperator.basin_radius`); the result is then
    the uniform density, converged, and its message says so.  Where no such
    ball exists (at or above gamma_#, or wherever `basin_radius` is 0),
    Picard stops at the residual _HANDOFF and `_newton` finishes on the
    moments; when the guard rejects its root, Picard resumes from the handoff
    iterate with the steps left, which is the plain Picard solve.
    `iterations` counts Picard steps, `newton_steps` the Newton steps,
    accepted or not.  Stops at once when the residual turns non-finite; the
    result is then not converged and carries the last finite iterate.
    """
    _check_gamma(gamma)
    if op is None:
        op = GibbsOperator(kernel, init.rule, init.coeffs.K)
    before = op.certified
    handoff = config.tol if op.basin_bound(gamma, config.tau) > 0.0 else max(config.tol, _HANDOFF)
    values, res, iters = _picard_alone(op, gamma, init.values, replace(config, tol=handoff))
    newton_steps = 0
    if config.tol < res <= handoff:
        op.handoffs += 1
        root, newton_steps = _newton(op, gamma, values, config)
        if root is not None:
            values, res = root
        else:
            op.rejected += 1
            if iters < config.max_iters:
                rest = replace(config, max_iters=config.max_iters - iters)
                values, res, more = _picard_alone(op, gamma, values, rest)
                iters += more
    certified = op.certified > before
    converged = certified or res <= config.tol
    if certified:
        msg = f"certified to relax to the uniform state at iteration {iters}"
    elif converged:
        msg = ""
    elif math.isfinite(res):
        msg = f"no convergence after {iters} iterations"
    else:
        msg = f"non-finite residual at iteration {iters}"
    if _log.isEnabledFor(logging.DEBUG):  # resolved_support builds the tail sums
        _log.debug(
            "gibbs_fixed_point: gamma %.6g, %d Picard steps, %d Newton steps (%d of %d support "
            "modes resolved), residual %.3g", gamma, iters, newton_steps,
            len(op.resolved_support(gamma)), len(op._support), res,
        )
    density = make_density(init.n, init.rule, values, op.K)
    return SolveResult(
        density=density, residual=res, iterations=iters, converged=converged, message=msg,
        newton_steps=newton_steps,
    )


@dataclass(frozen=True)
class BifurcationSet:
    """Bifurcation points (k, gamma_k) plus any coefficient ties that were excluded."""

    points: tuple[tuple[int, float], ...]
    ties: tuple[int, ...] = ()


def bifurcation_points(kernel: ZonalCoefficients) -> BifurcationSet:
    """All (k, gamma_k = -1/W_hat_k) with W_hat_k < 0 unique among the W_hat_j, j >= 1."""
    found = _simple_modes(kernel)
    if not (found.points or found.ties):
        raise ValueError("stable kernel: no bifurcation points")
    return found


def _simple_modes(kernel: ZonalCoefficients) -> BifurcationSet:
    """`bifurcation_points` without the error: empty on a stable kernel."""
    unstable = stability_check(kernel).unstable_modes
    coeffs = kernel.coeffs
    # column k counts the j >= 1 within _COEFF_TOL of W_hat_k, itself included, so > 1 is a tie
    counts = np.sum(np.abs(coeffs[1:, None] - coeffs[list(unstable)]) <= _COEFF_TOL, axis=0)
    ties = tuple(k for k, count in zip(unstable, counts) if count > 1)
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
    n: int, rule: QuadratureRule, K: int, mode: int, amplitude: float
) -> ZonalDensity:
    """The uniform state 1 / <1> of `uniform_density` kicked by amplitude * Y_mode."""
    base = 1.0 / rule.integrate(np.ones(rule.order))
    values = np.clip(base + amplitude * y_l0(mode, n, rule.nodes), 1e-14, None)
    return make_density(n, rule, values, K)


# The arc out of (a = 0, gamma_k) steps in arclength in z = (a, gamma / gamma_k):
_ARC_STEP = 3e-2  # first step: on every CLI kernel the branch is still near its tangent e_k
_ARC_FLOOR = 1e-6  # a step that keeps failing below this ends the arc
_ARC_POINTS = 100  # points to reach the next grid gamma; the CLI walks need at most a dozen
_ARC_NEWTON = 6  # corrector steps per point; a point that needs more is retried at half the step
_ARC_FAST = 2  # a point corrected in at most this many steps doubles the next step
# The points only guide the prediction, and `_newton` finishes at each grid gamma, so they
# stop short of round-off.
_ARC_TOL = 1e-8


def _arc_system(
    op: GibbsOperator, z: np.ndarray, gamma_k: float, border: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """F(a, gamma) = a - P_S G(a, gamma) at z = (a, gamma / gamma_k), S the leading len(a) modes
    of the support, and the bordered Jacobian [dF/dz; border] (|S| + 1, |S| + 1), with
    dF/dz = [dF/da, gamma_k dF/dgamma], dF/da = I + gamma C diag(W_hat_S) and
    dF/dgamma = C (W_hat_S a), C = Cov_p(Y_S) at p = G(a, gamma).  a is the iterate, not
    P_S p: the two differ away from a fixed point."""
    a, gamma = z[:-1], gamma_k * z[-1]
    mean, cov_w = op._covariance(op.moment_image(gamma, a), len(a))
    jac = np.empty((len(z), len(z)))
    jac[:-1, :-1] = np.eye(len(a)) + gamma * cov_w
    jac[:-1, -1] = gamma_k * (cov_w @ a)
    jac[-1] = border
    return a - mean, jac


def _arc_corrector(
    op: GibbsOperator, z: np.ndarray, tangent: np.ndarray, gamma_k: float
) -> Optional[tuple[np.ndarray, np.ndarray, int]]:
    """Newton on F = 0 from the prediction z, within the plane through z normal to the tangent:
    each step solves [dF/dz; tangent] d = -(F, 0).  Returns (point, [dF/dz; tangent] there,
    steps) once ||F|| <= _ARC_TOL, or None after _ARC_NEWTON steps.  Raises
    FloatingPointError on a non-finite iterate and np.linalg.LinAlgError on a singular
    bordered Jacobian."""
    z = z.copy()
    for steps in itertools.count():
        f, jac = _arc_system(op, z, gamma_k, tangent)
        if not (np.isfinite(f).all() and np.isfinite(jac).all()):
            raise FloatingPointError("non-finite continuation iterate")
        if np.linalg.norm(f) <= _ARC_TOL:
            return z, jac, steps
        if steps == _ARC_NEWTON:
            return None
        z -= np.linalg.solve(jac, np.append(f, 0.0))


def _arc_tangent(bordered: np.ndarray) -> np.ndarray:
    """The unit null vector t of dF/dz with previous . t > 0, from the bordered Jacobian
    [dF/dz; previous]: t solves it against e_last.  Raises np.linalg.LinAlgError when it is
    singular."""
    last = np.zeros(len(bordered))
    last[-1] = 1.0
    t = np.linalg.solve(bordered, last)
    return t / np.linalg.norm(t)


def _arc(
    op: GibbsOperator, mode: int, sign: float, grid: Sequence[float], config: SolverConfig,
    tally: dict,
):
    """The guarded-Newton root (values, residual) at each gamma of the ascending grid in turn,
    on the branch continued by pseudo-arclength from (a = 0, gamma_k) along sign * e_k.

    The arc runs on S_gamma of the last gamma (`GibbsOperator.resolved_support`) in
    z = (a, gamma / gamma_k), so that one step rule serves every gamma_k.  Each point is
    predicted along the unit tangent t as z + h t and corrected in the plane normal to t
    (`_arc_corrector`), and its tangent is the next t (`_arc_tangent`).  The step h starts at
    _ARC_STEP, doubles after a point corrected in at most _ARC_FAST steps and halves when the
    corrector fails or its point passes the next gamma.  A prediction that would pass the
    next gamma is cut to land on it, and `_newton` runs there from `moment_image(gamma, a)`
    at the prediction: a root that the guard accepts is yielded and the arc restarts from
    it.  The arc returns when the guard rejects that root, so it calls `_newton` at most once
    per grid gamma, and when a Jacobian is singular, an iterate is not finite, h falls below
    _ARC_FLOOR or _ARC_POINTS points do not reach the next gamma.  tally["newton"] adds up
    the Newton steps at the grid gammas and tally["points"] the arc points.
    """
    support = op.resolved_support(grid[-1])  # it holds the mode: gamma |W_hat_k| > 1, h_k >= 1
    j = int(np.searchsorted(support, mode))
    gamma_k = -1.0 / op._w_support[j]
    z, t, h = np.zeros(len(support) + 1), np.zeros(len(support) + 1), _ARC_STEP
    z[-1], t[j] = 1.0, sign
    for gamma in grid:
        end, points = gamma / gamma_k, 0
        # an overflow shows up as a non-finite iterate, which ends the arc; the caller's
        # error state is back at each yield
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                while True:
                    if h < _ARC_FLOOR or points == _ARC_POINTS:
                        return
                    if t[-1] > 0.0 and z[-1] + h * t[-1] >= end:  # cut to land on gamma
                        cut = (end - z[-1]) / t[-1]
                        start = op.moment_image(gamma, z[:-1] + cut * t[:-1])
                        root, steps = _newton(op, gamma, start, config)
                        tally["newton"] += steps
                        if root is None:
                            return
                        break
                    corrected = _arc_corrector(op, z + h * t, t, gamma_k)
                    if corrected is None or corrected[0][-1] >= end:
                        h *= 0.5
                        continue
                    z, jac, steps = corrected
                    t = _arc_tangent(jac)
                    points += 1
                    tally["points"] += 1
                    h *= 2.0 if steps <= _ARC_FAST else 1.0
                z = np.append(op._basin[0][: len(support)] @ root[0], end)
                t = _arc_tangent(_arc_system(op, z, gamma_k, t)[1])
            except (np.linalg.LinAlgError, FloatingPointError):
                return
        yield root


def trace_branch(
    kernel: ZonalCoefficients,
    mode: int,
    gamma_grid: Sequence[float],
    config: SolverConfig = SolverConfig(),
) -> tuple[list[BranchPoint], str]:
    """Continue the non-uniform branch of the given mode along an ascending grid.

    The first point has two sides, one per sign of the mode's eigenvector,
    and the smaller-amplitude non-uniform state of the two is kept as the
    branch.  Where a lone solve would hand off to Newton (_HANDOFF above tol)
    and the mode is a simple unstable mode (the rule of `bifurcation_points`)
    with gamma_k below the first gamma, so that gamma_# is too and no basin
    ball exists there, each side is an arc continued from the bifurcation
    point (a = 0, gamma_k) along +e_k or -e_k by pseudo-arclength (`_arc`),
    and its guarded-Newton root at the first gamma is the side's state, with
    no Picard step, so its `iterations` is 0.  The kept side's arc then gives
    every later point in the same way.  An arc ends at the first root that
    the guard rejects.  A side with no arc, or whose arc ends or reaches a
    uniform root at the first gamma, is the `gibbs_fixed_point` solve from
    the uniform state kicked by +-0.01 Y_mode; a later point with no arc, or
    where it ends or reaches a uniform root, is the `gibbs_fixed_point` solve
    started from the previous state, and so is every point after it.  Returns
    the traced points and a diagnostic string ('' when the whole grid was
    covered).
    """
    gamma_grid = list(gamma_grid)
    if not gamma_grid:
        return [], "empty gamma grid"
    rule = gauss_jacobi_rule(kernel.n, config.M)
    op = GibbsOperator(kernel, rule, config.K)
    seeds = [_seeded_density(kernel.n, rule, config.K, mode, sign * 0.01) for sign in (+1.0, -1.0)]
    gamma_k = dict(_simple_modes(kernel).points).get(mode) if mode <= config.K else None
    tally = {"newton": 0, "points": 0}
    arcs = [None, None]
    if _HANDOFF > config.tol and gamma_k is not None and gamma_k < gamma_grid[0]:
        arcs = [_arc(op, mode, sign, gamma_grid, config, tally) for sign in (+1.0, -1.0)]
    branch: list[BranchPoint] = []
    diagnostic, picard, continued, fell_back = "", 0, 0, 0

    def non_uniform(result: SolveResult) -> Optional[tuple[float, int, float, SolveResult]]:
        l, amp = result.density.dominant_mode()
        if result.converged and abs(amp) > 10 * config.tol:
            return abs(amp), l, amp, result
        return None

    for gamma in gamma_grid:
        found = []
        for arc, seed in zip(arcs, seeds):
            root = None if arc is None else next(arc, None)
            side = None if root is None else non_uniform(SolveResult(
                density=make_density(kernel.n, rule, root[0], config.K), residual=root[1],
                iterations=0, converged=True))
            if arc is not None and not branch:
                continued, fell_back = continued + (side is not None), fell_back + (side is None)
            if side is None:
                arc, result = None, gibbs_fixed_point(kernel, gamma, seed, config, op=op)
                picard += result.iterations
                tally["newton"] += result.newton_steps
                side = non_uniform(result)
            if side is not None:
                found.append((*side, arc))
        if not found:
            diagnostic = (f"branch lost at gamma={gamma} (fell back to uniform)" if branch
                          else f"branch not found at gamma={gamma}")
            break
        _, l, amp, result, arc = min(found, key=lambda c: c[0])
        branch.append(
            BranchPoint(gamma, result.density, l, amp, free_energy(kernel, result.density, gamma),
                        result.residual, result.iterations)
        )
        arcs, seeds = [arc], [result.density]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "trace_branch: %d points, %d Picard steps, %d Newton steps, %d of %d handoffs "
            "rejected, %d first-point sides continued from gamma_k, %d fell back to their seeds, "
            "%d arc points; %d to %d of %d support modes resolved",
            len(branch), picard, tally["newton"], op.rejected, op.handoffs, continued, fell_back,
            tally["points"], len(op.resolved_support(gamma_grid[0])),
            len(op.resolved_support(gamma_grid[-1])), len(op._support),
        )
    return branch, diagnostic


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
    u3 = rule.integrate(values**3)
    return values, u3


_MAX_COMBO = 3  # largest number of resonant modes combined in a witness


def resonance_check(kernel: ZonalCoefficients, delta: float = 0.0) -> ResonanceReport:
    """Search the delta-resonant modes for a sup-normalized u with nonzero cube integral.

    Single modes are scanned first, then sign/weight patterns over pairs and
    triples of resonant modes.  The bandwidth test is
    delta < min(1/4, <u^3>^2 / 49), for a bandwidth delta in [0, 1).
    """
    if not 0.0 <= delta < 1.0:  # delta >= 1 would count stable modes as resonant
        raise ValueError(f"bandwidth delta must lie in [0, 1), got {delta}")
    gs = gamma_sharp(kernel)
    n = kernel.n
    threshold = -(1.0 - delta) / gs.gamma
    resonant = [k for k, w in enumerate(kernel.coeffs) if k >= 1 and w <= threshold + _COEFF_TOL]
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
    xi = 1.0 if u3 >= 0.0 else -1.0
    perturb = 1.0 + epsilon * xi * u_values
    if np.any(perturb <= 0.0):
        raise ValueError("competitor density nonpositive at some node; reduce epsilon")
    basis = spectral_basis(kernel.n, K, rule.order)
    return free_energy_gap(kernel, basis, gamma, perturb / rule.integrate(perturb))


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
    seeds of up to 16 gammas are solved as one Picard block, each seed
    leaving it at the step it would stop alone.  In grid order, each gamma is
    scored by its moments in one `free_energy_gap` call at the step where its
    last seed leaves (no call when every settled seed is certified uniform),
    and stepping stops at the first gamma where a candidate beats uniform; the
    seeds of the gammas above it are dropped unscored.
    Bisection then narrows the bracket in rounds: the midpoints of four
    levels of halving (lo, hi), where a piece is still wider than the
    tolerance (up to 15), are solved and scored in the same way as one
    block, and the lowest winning midpoint of each round is the new hi, the
    point below it the new lo (hi is kept when no midpoint wins).  Every
    gamma of the grid must be positive and finite.
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
    for gamma in gamma_grid:
        _check_gamma(gamma)

    basis = spectral_basis(kernel.n, config.K, config.M)
    rule = basis.rule
    op = GibbsOperator(kernel, rule, config.K)

    seed_modes = sorted({k for k, _ in bifurcation_points(kernel).points[:4]} | set(gs.modes))
    labels, seeds = [], []
    for k in seed_modes:
        sup = abs(y_l0(k, kernel.n, 1.0))
        for amp, sign in itertools.product((0.3, 0.8), (+1.0, -1.0)):
            labels.append(f"mode{k}{'+' if sign > 0 else '-'}{amp}")
            seed = _seeded_density(kernel.n, rule, config.K, k, sign * amp / sup)
            seeds.append(seed.values)
    seeds = np.column_stack(seeds)

    # the competitor 1 + eps xi u at unit mass, scored after the seeds at each gamma
    reso = resonance_check(kernel, delta=0.0)
    competitor = None
    if abs(reso.u3) > 1e-12:
        u_values, u3 = harmonic_combination(
            kernel.n, reso.witness_modes, reso.witness_coeffs, rule
        )
        eps = min(0.5, abs(u3) / 4.0)
        perturb = 1.0 + eps * math.copysign(1.0, u3) * u_values
        if np.all(perturb > 0.0):
            competitor = perturb / rule.integrate(perturb)
            rival = {"kind": "competitor", "epsilon": eps, "u3": u3}

    # gammas scored, bisection midpoints scored and entered, and seed columns
    # scored, within tol, certified uniform and left unscored, for the debug log
    tally = {"gammas": 0, "midpoints": 0, "entered": 0, "columns": 0, "within_tol": 0,
             "certified": 0, "unscored": 0}

    def score(gamma: float, values: np.ndarray, res: np.ndarray) -> tuple[float, dict]:
        """Lowest free-energy gap to uniform among the fixed points the seed columns
        relaxed to at gamma and the competitor; gaps above -_GAP_TOL count as 0."""
        settled = np.flatnonzero(res <= config.tol)
        tally["gammas"] += 1
        tally["columns"] += res.size
        tally["within_tol"] += settled.size
        block = values[:, settled]
        # `_damped_picard` yields a certified column as exactly 1
        certified = np.all(block == 1.0, axis=0)
        tally["certified"] += int(np.count_nonzero(certified))
        gaps = np.empty(0)
        # a certified column's gap is round-off and cannot win; with any other column the
        # whole settled block is scored, since its gaps depend on the column count
        if not certified.all():
            gaps = free_energy_gap(kernel, basis, gamma, block / (rule.weights @ block))
        if competitor is not None:  # its own call: a column more moves the seeds' gaps by round-off
            gaps = np.append(gaps, free_energy_gap(kernel, basis, gamma, competitor))
        if not (gaps.size and gaps.min() < -_GAP_TOL):
            return 0.0, {"kind": "uniform"}
        best = int(np.argmin(gaps))  # the first of equal gaps: seed order, then the competitor
        gap = float(gaps[best])
        if competitor is not None and best == gaps.size - 1:
            return gap, {**rival, "gap": gap}
        column = settled[best]
        mode, amp = make_density(kernel.n, rule, values[:, column], config.K).dominant_mode()
        return gap, {"kind": "fixed-point", "seed": labels[column], "dominant_mode": mode,
                     "amplitude": amp, "residual": float(res[column]), "gap": gap}

    def first_win(gammas: Sequence[float]) -> Optional[tuple[int, dict]]:
        """Solve the seeds at the gammas, _GROUP_WIDTH gammas to a block, and score them
        in order: (index, witness) of the first where a candidate beats uniform."""
        width = seeds.shape[1]
        for start in range(0, len(gammas), _GROUP_WIDTH):
            chunk, scored = gammas[start : start + _GROUP_WIDTH], 0
            block = _damped_picard(op, np.repeat(chunk, width), np.tile(seeds, len(chunk)), config)
            for values, res, stopped, _ in block:
                # score each gamma once all its seeds have stopped; the block ends at a winner
                while scored < len(chunk):
                    columns = slice(scored * width, (scored + 1) * width)
                    if not stopped[columns].all():
                        break
                    gap, witness = score(chunk[scored], values[:, columns], res[columns])
                    scored += 1
                    if gap < -_GAP_TOL:
                        tally["unscored"] += (len(chunk) - scored) * width
                        return start + scored - 1, witness
        return None

    def report(**fields) -> TransitionReport:
        _log.debug(
            "find_transition: %d gammas scored, %d of them bisection midpoints of %d entered; "
            "%d seed columns, %d within tol, %d certified to relax to uniform, "
            "%d left unscored at a first winner; %d block steps, %d column-steps",
            tally["gammas"], tally["midpoints"], tally["entered"], tally["columns"],
            tally["within_tol"], tally["certified"], tally["unscored"], op.evaluations, op.columns,
        )
        return TransitionReport(gamma_sharp=gs.gamma, **fields)

    # The grid's gammas are solved in blocks and scored in grid order, up to the
    # first where a candidate beats uniform.
    won = first_win(gamma_grid)
    if won is None:
        return report(
            gamma_c_bracket=None,
            type="none",
            witness={"reason": "no sign change on the gamma grid"},
        )
    i, witness = won
    hi = gamma_grid[i]
    lo = gamma_grid[i - 1] if i else 0.5 * hi
    if not i and first_win([lo]) is not None:  # certify a lower end below the grid
        return report(
            gamma_c_bracket=None,
            type="none",
            witness={"reason": f"uniform already loses at gamma={lo}"},
        )

    while (hi - lo) / hi > _BRACKET_RTOL:
        # Each round solves the midpoints of four levels of halving (lo, hi), where
        # a piece is still wide, and the lowest winner among them is the new hi.
        points = [lo, hi]
        for _ in range(4):
            points = sorted(points + [
                0.5 * (l + h) for l, h in zip(points, points[1:]) if (h - l) / h > _BRACKET_RTOL
            ])
        midpoints = points[1:-1]
        tally["entered"] += len(midpoints)
        scored = tally["gammas"]
        won = first_win(midpoints)
        tally["midpoints"] += tally["gammas"] - scored
        i, witness = won or (len(midpoints), witness)  # hi itself when no midpoint wins
        lo, hi = points[i], points[i + 1]
    step = float(np.min(np.diff(gamma_grid))) if gamma_grid.size > 1 else 0.0
    kind = "discontinuous" if hi <= gs.gamma - step else "continuous-candidate"
    return report(gamma_c_bracket=(lo, hi), type=kind, witness=witness)
