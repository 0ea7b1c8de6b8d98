"""Interacting-particle Langevin dynamics on S^{n-1}.

Projected Euler-Maruyama: each step moves a particle by the pairwise drift
plus tangential Gaussian noise and renormalizes back onto the sphere.  The
empirical moments of Y_{l,0} about an estimated symmetry axis are the order
parameters compared against the mean-field solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .kernels import KernelSpec, profile_derivative
from .specfun import zonal_table

__all__ = [
    "MomentSummary",
    "ParticleEnsemble",
    "SimConfig",
    "empirical_moments",
    "kernel_force",
    "order_axis",
    "simulate",
    "step",
    "uniform_ensemble",
]

_NORM_TOL = 1e-12


def _unit_norms(norms) -> bool:
    """True when every norm is within _NORM_TOL of 1; NaN fails."""
    return bool(np.all(np.abs(norms - 1.0) <= _NORM_TOL))


def _unit_vector(v, name: str) -> np.ndarray:
    """v as a float array; raises ValueError unless it is a finite unit vector."""
    v = np.asarray(v, dtype=float)
    if not _unit_norms(np.linalg.norm(v)):
        raise ValueError(f"{name} must be a unit vector")
    return v


@dataclass(frozen=True)
class ParticleEnsemble:
    """N unit vectors in R^n plus the generator state that produced them."""

    n: int
    positions: np.ndarray  # shape (N, n); a step leaves it column-major
    rng: np.random.Generator

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != self.n or pos.shape[0] == 0:
            raise ValueError(f"positions must have shape (N, {self.n}) with N >= 1")
        if not _unit_norms(np.sqrt(np.einsum("ij,ij->i", pos, pos))):
            raise ValueError("all particle positions must be unit vectors")

    @property
    def size(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    steps: int = 1000
    gamma: float = math.inf  # inf means noiseless dynamics
    seed: int = 0
    burn_in: float = 0.5
    record_every: int = 100

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf):  # also rejects NaN
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not self.gamma > 0.0:  # also rejects NaN
            raise ValueError(f"gamma must be positive (inf allowed), got {self.gamma}")
        if not (0.0 <= self.burn_in < 1.0):
            raise ValueError(f"burn_in fraction must lie in [0, 1), got {self.burn_in}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


def uniform_ensemble(n: int, count: int, seed: int = 0) -> ParticleEnsemble:
    """Ensemble of `count` points sampled uniformly on S^{n-1}."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return ParticleEnsemble(n=n, positions=g, rng=rng)


_TILE = 128


@functools.lru_cache(maxsize=16)  # probed once per kernel, not once per step
def _kernel_is_inert(spec: KernelSpec) -> bool:
    """True when W' vanishes identically (probed on a dense grid), so the
    pairwise drift is exactly zero and the O(N^2) sum can be skipped."""
    probe = np.linspace(-1.0, 1.0, 1001)
    try:
        return bool(np.all(profile_derivative(spec, probe) == 0.0))
    except ValueError:
        return False


def _pairwise_drift(spec: KernelSpec, positions: np.ndarray) -> np.ndarray:
    """Drift -(1/N) sum_{j != i} W'(<x_i,x_j>)(x_j - <x_i,x_j> x_i) for every particle i.

    W'(<x_i,x_j>) is symmetric in (i, j), so it is evaluated once per pair, on
    _TILE x _TILE tiles (I, J) with I <= J; a tile feeds the pulls
    p_i = sum_{j != i} W'(t_ij) x_j of both its row block and its column
    block, and its temporaries stay in cache.  The radial term comes from the
    pull: sum_j W'(t_ij) t_ij = <x_i, p_i>, so the drift is -(p_i - <x_i, p_i> x_i)/N.
    The inner products of a tile multiply by a slice of one C-ordered copy of
    the transposed positions, a plain GEMM: a transposed view takes numpy's
    slower paths, and on a diagonal tile the symmetric A A^T one.
    """
    count = positions.shape[0]
    columns = np.ascontiguousarray(positions.T)
    pull = np.zeros_like(positions)
    for i in range(0, count, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, count, _TILE):
            cols = slice(j, j + _TILE)
            dw = profile_derivative(spec, positions[rows] @ columns[:, cols])
            if i == j:
                np.fill_diagonal(dw, 0.0)  # no self force
            pull[rows] += dw @ positions[cols]
            if i != j:
                pull[cols] += dw.T @ positions[rows]
    return -_tangent_part(pull, positions) / count


def _tangent_part(pull: np.ndarray, x: np.ndarray) -> np.ndarray:
    """pull - <x, pull> x row by row, in place: <x, pull> is the radial sum."""
    pull -= np.einsum("...i,...i->...", x, pull)[..., None] * x
    return pull


def kernel_force(spec: KernelSpec, x: np.ndarray, ensemble: ParticleEnsemble) -> np.ndarray:
    """Tangential interaction force at the unit vector x from the whole ensemble."""
    x = _unit_vector(x, "x")
    dw = profile_derivative(spec, ensemble.positions @ x)
    return -_tangent_part(dw @ ensemble.positions, x) / ensemble.size


def _advance(
    x: np.ndarray, out: np.ndarray, spec: KernelSpec, config: SimConfig, rng: np.random.Generator
) -> None:
    """Write one projected Euler-Maruyama step from the column-major positions x into out.

    Column-major, the per-particle dot products, norms and divides run along
    length-N rows.  The normals are drawn straight into out in (n, N) order,
    which fixes the normals a particle gets for a seed.  The step is
    x' = (1 - s<xi, x>) x + s xi (+ dt drift), s = sqrt(2 dt / gamma), scaling
    the dead x in place.  The O(N^2) drift tiles get a C-ordered copy of x.
    """
    drift = None if _kernel_is_inert(spec) else _pairwise_drift(spec, np.ascontiguousarray(x))
    if math.isfinite(config.gamma):
        s = math.sqrt(2.0 * config.dt / config.gamma)
        rng.standard_normal(out=out.T)
        x *= (1.0 - s * np.einsum("ij,ij->i", out, x))[:, None]
        out *= s
        out += x
    else:
        np.copyto(out, x)
    if drift is not None:
        out += config.dt * drift
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]
    if not np.all((norms >= 1e-8) & (norms < math.inf)):  # NaN fails both
        raise RuntimeError("step left a particle non-finite or collapsed to the origin; reduce dt")
    out /= norms


def step(ensemble: ParticleEnsemble, spec: KernelSpec, config: SimConfig) -> ParticleEnsemble:
    """One projected Euler-Maruyama step; deterministic given the generator state.

    The kernel of `simulate` on a column-major copy: the input is never written.
    """
    x = np.array(ensemble.positions, dtype=float, order="F")
    out = np.empty_like(x)
    _advance(x, out, spec, config, ensemble.rng)
    return replace(ensemble, positions=out)


def order_axis(ensemble: ParticleEnsemble) -> np.ndarray:
    """Top eigenvector of the empirical second-moment matrix (1/N) sum x x^T."""
    second = ensemble.positions.T @ ensemble.positions / ensemble.size
    _, vecs = np.linalg.eigh(second)
    axis = vecs[:, -1]
    # orient along the cluster when there is one: the sign of <axis, mean>
    if np.sum(ensemble.positions @ axis) < 0.0:
        axis = -axis
    return axis


@dataclass(frozen=True)
class MomentSummary:
    """Sample means and standard errors of Y_{l,0}(<axis, x>) per requested degree."""

    degrees: tuple[int, ...]
    means: np.ndarray
    standard_errors: np.ndarray


def empirical_moments(
    ensemble: ParticleEnsemble, axis: np.ndarray, degrees: Sequence[int]
) -> MomentSummary:
    axis = _unit_vector(axis, "axis")
    degrees = tuple(int(l) for l in degrees)
    if min(degrees, default=0) < 0:
        raise ValueError(f"degrees must be >= 0, got {degrees}")
    t = np.clip(ensemble.positions @ axis, -1.0, 1.0)
    table = zonal_table(max(degrees, default=0), ensemble.n, t)  # row l is y_l0(l, n, t)
    means, errs = [], []
    for l in degrees:
        means.append(float(np.mean(table[l])))
        errs.append(float(np.std(table[l], ddof=1) / math.sqrt(ensemble.size)))
    return MomentSummary(
        degrees=degrees,
        means=np.array(means),
        standard_errors=np.array(errs),
    )


@dataclass(frozen=True)
class SimResult:
    ensemble: ParticleEnsemble
    recorded_steps: np.ndarray
    moments: np.ndarray  # shape (records, len(degrees))
    degrees: tuple[int, ...]


def simulate(
    spec: KernelSpec,
    config: SimConfig,
    count: int,
    degrees: Sequence[int] = (1, 2),
    init: Optional[ParticleEnsemble] = None,
) -> SimResult:
    """Run the particle dynamics, recording moments about the running order axis.

    Moments are recorded every `config.record_every` steps after the burn-in
    fraction of the run; the result's ensemble is the final state.  A given
    `init` must hold `count` particles on the sphere of `spec`; it is copied
    once and never written.  The run equals chained `step` calls bit for bit,
    but steps in place between two buffers and builds (and checks) a
    `ParticleEnsemble` only at each record and at the end.
    """
    if init is not None and (init.n != spec.n or init.size != count):
        raise ValueError(
            f"init ensemble is {init.size} particles on S^{init.n - 1}; "
            f"expected {count} on S^{spec.n - 1}"
        )
    ensemble = init if init is not None else uniform_ensemble(spec.n, count, config.seed)
    x = np.array(ensemble.positions, dtype=float, order="F")
    out = np.empty_like(x)
    first_record = int(config.burn_in * config.steps)
    recorded, rows = [], []
    for k in range(1, config.steps + 1):
        _advance(x, out, spec, config, ensemble.rng)
        x, out = out, x
        due = k >= first_record and k % config.record_every == 0
        if due or (k == config.steps and not rows):  # the final state when nothing was due
            ensemble = ParticleEnsemble(n=spec.n, positions=x, rng=ensemble.rng)
            summary = empirical_moments(ensemble, order_axis(ensemble), degrees)
            recorded.append(k)
            rows.append(summary.means)
    if recorded[-1] != config.steps:
        ensemble = ParticleEnsemble(n=spec.n, positions=x, rng=ensemble.rng)
    return SimResult(
        ensemble=ensemble,
        recorded_steps=np.array(recorded),
        moments=np.vstack(rows),
        degrees=tuple(int(l) for l in degrees),
    )
