"""Property-based checks of the shared spectral basis, the Picard engine, the free-energy gap,
the branch walk's arc, the particle drift and the kernel JSON reader."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spheremv.harmonics import (
    ZonalCoefficients,
    ZonalProfile,
    decompose,
    omega_n,
    reconstruct,
    spectral_basis,
)
from spheremv.kernels import (
    _COEFF_TOL,
    KernelSpec,
    coefficients,
    kernel_spec_from_json,
    stability_check,
)
from spheremv.meanfield import convolve, free_energy_gap, gamma_sharp, linear_spectrum, make_density
from spheremv.particles import ParticleEnsemble, SimConfig, _pairwise_drift, step, uniform_ensemble
from spheremv.solver import (
    GibbsOperator,
    SolverConfig,
    _damped_picard,
    _picard_alone,
    bifurcation_points,
    gibbs_fixed_point,
    trace_branch,
)
from spheremv import solver
from spheremv.specfun import gauss_jacobi_rule

from helpers import DRIFT_SPECS, assert_columns_solve_alone, block_solve, outer_rule

FEW = settings(max_examples=25, deadline=None)


@st.composite
def truncations(draw, max_K=20):
    """(n, K, M) with M >= K + 2, the condition every transform needs."""
    n = draw(st.integers(3, 8))
    K = draw(st.integers(0, max_K))
    M = draw(st.integers(K + 2, K + 12))
    return n, K, M


def _random_setup(n, K, M, seed):
    """A decaying random kernel and a smooth positive density on the (n, K, M) basis."""
    rng = np.random.default_rng(seed)
    k = np.arange(K + 1)
    kernel = ZonalCoefficients(n=n, coeffs=rng.normal(size=K + 1) / (1.0 + k) ** 2)
    rule = gauss_jacobi_rule(n, M)
    values = np.exp(rng.normal(scale=0.5) * rule.nodes + rng.normal(scale=0.5) * rule.nodes**2)
    return kernel, make_density(n, rule, values, K)


@FEW
@given(truncations(), st.integers(0, 2**32 - 1))
def test_synthesis_then_decompose_round_trip(dims, seed):
    n, K, M = dims
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, K + 1)
    rule = gauss_jacobi_rule(n, M)
    values = reconstruct(ZonalCoefficients(n=n, coeffs=coeffs), rule.nodes)
    basis = spectral_basis(n, K, M)
    assert np.allclose(basis.table.T @ (basis.at_one * coeffs), values, rtol=1e-12, atol=1e-12)
    back = decompose(ZonalProfile(n=n, rule=rule, values=values), K)
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-9


@FEW
@given(truncations(), st.floats(0.05, 30.0), st.integers(0, 2**32 - 1))
def test_gibbs_image_is_positive_with_unit_mass(dims, gamma, seed):
    n, K, M = dims
    kernel, density = _random_setup(n, K, M, seed)
    image = GibbsOperator(kernel, density.rule, K).gibbs(gamma, density.values)
    assert np.all(image > 0.0)
    _, weights = outer_rule(n, M)  # the same nodes, weights from scipy
    mass = omega_n(n - 1) / omega_n(n) * np.dot(weights, image)  # against sigma / omega_n
    assert mass == pytest.approx(1.0, abs=1e-12)


@FEW
@given(
    truncations(max_K=12),
    st.floats(0.1, 20.0),
    st.floats(0.1, 1.0),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
# Picard reaches the handoff residual at its last allowed step and Newton is rejected,
# so no steps are left for Picard to resume with
@example(dims=(8, 10, 17), gamma=9.0, tau=0.90625, max_iters=9, seed=4712)
def test_picard_evaluates_gibbs_once_per_iteration(dims, gamma, tau, max_iters, seed):
    n, K, M = dims
    kernel, density = _random_setup(n, K, M, seed)
    op = GibbsOperator(kernel, density.rule, K)
    calls, runs = [], []
    evaluate = op.gibbs

    def counted(g, values):
        calls.append(g)
        return evaluate(g, values)

    def recorded(*args):
        out = _picard_alone(*args)
        runs.append(out[2])
        return out

    op.gibbs = counted
    config = SolverConfig(tau=tau, tol=1e-9, max_iters=max_iters, K=K, M=M)
    with mock.patch.object(solver, "_picard_alone", recorded):
        result = gibbs_fixed_point(kernel, gamma, density, config, op=op)
    # a Picard run of i steps evaluates G at i + 1 iterates, and a Newton handoff adds
    # n + 1 for its n steps; Picard resumes at the handoff iterate after a rejected
    # handoff, unless the first run took every step
    assert op.rejected <= op.handoffs <= 1
    assert len(runs) == 1 + (op.rejected and runs[0] < max_iters)
    assert sum(runs) == result.iterations
    newton = op.handoffs * (result.newton_steps + 1)
    assert len(calls) == result.iterations + len(runs) + newton
    assert result.iterations <= max_iters
    assert result.newton_steps <= solver._NEWTON_STEPS * op.handoffs


@FEW
@given(
    truncations(max_K=12),
    st.floats(0.05, 20.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_moment_jacobian_matches_central_differences(dims, gamma, scale, seed):
    n, K, M = dims
    kernel, _ = _random_setup(n, K, M, seed)
    op = GibbsOperator(kernel, gauss_jacobi_rule(n, M), K)
    proj = op._basin[0][: len(op.resolved_support(gamma))]
    a = scale * np.random.default_rng(seed).normal(size=len(proj))

    def residual(a):  # F(a) = a - P_S G(a)
        return a - proj @ op.moment_image(gamma, a)

    h = 1e-6
    columns = [(residual(a + h * e) - residual(a - h * e)) / (2.0 * h) for e in np.eye(len(a))]
    differences = np.array(columns).T.reshape(len(a), len(a))
    jacobian = op.moment_jacobian(gamma, op.moment_image(gamma, a))
    assert np.allclose(jacobian, differences, rtol=1e-6, atol=1e-6)


@FEW
@given(truncations())
def test_cached_rule_and_basis_are_read_only(dims):
    n, K, M = dims
    rule = gauss_jacobi_rule(n, M)
    basis = spectral_basis(n, K, M)
    assert gauss_jacobi_rule(n, M) is rule and basis.rule is rule
    assert spectral_basis(n, K, M) is basis
    arrays = [rule.nodes, rule.weights, basis.table, basis.at_one]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@FEW
@given(
    truncations(max_K=12),
    st.floats(0.1, 5.0),
    st.floats(0.1, 0.5),
    st.integers(1, 30),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@example(dims=(6, 4, 6), gamma=4.0, tau=0.46875, max_iters=25, S=4, seed=6)
def test_block_solve_equals_its_columns(dims, gamma, tau, max_iters, S, seed):
    n, K, M = dims
    kernel, _ = _random_setup(n, K, M, seed)
    seeds = [_random_setup(n, K, M, seed + j + 1)[1] for j in range(S)]
    op = GibbsOperator(kernel, seeds[0].rule, K)
    # With tau <= 1/2 the error shrinks at most 2x per step, so nothing reaches
    # tol = 1e-300: a column stops at max_iters or when it is certified to relax
    # to uniform, and the block stops with its slowest column.
    config = SolverConfig(tau=tau, tol=1e-300, max_iters=max_iters, K=K, M=M)
    block = np.column_stack([d.values for d in seeds])
    result = block_solve(op, gamma, block, config)
    alone = assert_columns_solve_alone(op, kernel, gamma, block, config, result)
    assert result[2] == max(steps for _, _, steps in alone) <= max_iters
    assert all(steps == max_iters or np.all(lone == 1.0) for lone, _, steps in alone)


@FEW
@given(
    truncations(max_K=12),
    st.floats(0.1, 5.0),
    st.floats(0.1, 0.5),
    st.integers(1, 60),
    st.floats(-11.0, -2.0).map(lambda exponent: 10.0**exponent),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_each_column_of_a_block_stops_as_if_alone(dims, gamma, tau, max_iters, tol, S, seed):
    # With a real tol the columns of one block stop at different steps; each
    # leaves the block at its own stop, so it is its lone (M,) solve.
    n, K, M = dims
    kernel, _ = _random_setup(n, K, M, seed)
    op = GibbsOperator(kernel, gauss_jacobi_rule(n, M), K)
    config = SolverConfig(tau=tau, tol=tol, max_iters=max_iters, K=K, M=M)
    block = np.column_stack([_random_setup(n, K, M, seed + j + 1)[1].values for j in range(S)])
    result = block_solve(op, gamma, block, config)
    alone = assert_columns_solve_alone(op, kernel, gamma, block, config, result)
    assert result[2] == max(steps for _, _, steps in alone) <= max_iters


@FEW
@given(
    truncations(max_K=12),
    st.lists(st.tuples(st.floats(0.1, 5.0), st.integers(1, 4)), min_size=1, max_size=6),
    st.floats(0.1, 0.5),
    st.integers(1, 30),
    st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5]),
    st.integers(0, 23),
    st.integers(0, 2**32 - 1),
)
# every gamma at or above gamma_# = 1.2994050403559874 of the seed-13 kernel, so that no
# column has a basin radius and the ball test certifies none
@example(dims=(3, 4, 8), runs=[(1.2994050403559874, 1), (2.0, 2), (4.0, 3)], tau=0.5,
         max_iters=30, tol=1e-2, nan_at=2, seed=13)
def test_each_column_of_a_mixed_gamma_block_stops_as_if_alone(
    dims, runs, tau, max_iters, tol, nan_at, seed
):
    # One gamma per column, in runs of equal gamma, and one NaN column: each column
    # leaves the block at its own stop, so it is its lone (M,) solve at its gamma.
    n, K, M = dims
    kernel, _ = _random_setup(n, K, M, seed)
    op = GibbsOperator(kernel, gauss_jacobi_rule(n, M), K)
    config = SolverConfig(tau=tau, tol=tol, max_iters=max_iters, K=K, M=M)
    gammas = np.repeat([gamma for gamma, _ in runs], [length for _, length in runs])
    block = np.column_stack(
        [_random_setup(n, K, M, seed + j + 1)[1].values for j in range(len(gammas))]
    )
    block[:, nan_at % len(gammas)] = np.nan
    result = block_solve(op, gammas, block, config)
    alone = assert_columns_solve_alone(op, kernel, gammas, block, config, result)
    assert result[2] == max(steps for _, _, steps in alone) <= max_iters


@FEW
@given(
    truncations(max_K=12),
    st.lists(st.tuples(st.floats(0.1, 5.0), st.integers(1, 4)), min_size=1, max_size=6),
    st.floats(0.1, 0.5),
    st.integers(1, 30),
    st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5]),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_each_yield_holds_the_columns_stopped_by_then(dims, runs, tau, max_iters, tol, data, seed):
    # The block yields after each step at which columns leave it: the marked columns
    # are their lone solves, the marks grow in the order of the lone stops, and the
    # last yield has every column stopped, at the slowest column's step count.
    n, K, M = dims
    kernel, _ = _random_setup(n, K, M, seed)
    op = GibbsOperator(kernel, gauss_jacobi_rule(n, M), K)
    config = SolverConfig(tau=tau, tol=tol, max_iters=max_iters, K=K, M=M)
    gammas = np.repeat([gamma for gamma, _ in runs], [length for _, length in runs])
    block = np.column_stack(
        [_random_setup(n, K, M, seed + j + 1)[1].values for j in range(len(gammas))]
    )
    if data.draw(st.booleans()):
        block[:, data.draw(st.integers(0, len(gammas) - 1))] = np.nan
    seen = [
        (stopped.copy(), values[:, stopped].copy(), res[stopped].copy(), steps)
        for values, res, stopped, steps in _damped_picard(op, gammas, block, config)
    ]
    stops = np.array([_picard_alone(op, g, column, config)[2] for g, column in zip(gammas, block.T)])
    assert [steps for *_, steps in seen] == np.unique(stops).tolist()
    for stopped, values, res, steps in seen:
        assert stopped.tolist() == (stops <= steps).tolist()
        assert_columns_solve_alone(op, kernel, gammas[stopped], block[:, stopped], config, (values, res, steps))
    assert seen[-1][0].all() and seen[-1][3] == stops.max() <= max_iters


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12),
    st.floats(1e-4, 3.0),
    st.floats(0.05, 2.0),
    st.one_of(st.none(), st.floats(1e-9, 0.5)),
    st.integers(0, 2**32 - 1),
)
@example(2, 1e-3, 1.0, 1e-6, 0)  # nearly attained: a tiny mass at u = sigma
@example(2, 2.0, 1.0, 1e-6, 0)
def test_basin_lemma_bounds_the_nonlinear_part(points, sigma, concentration, mass, seed):
    # The lemma behind `GibbsOperator.basin_radius`: under probability weights with
    # <u> = 0 and |u| <= sigma, sup |e^u / <e^u> - 1 - u| <= (e^sigma - 1 - sigma)(1 + sigma).
    # A mass is a two-point law, u = sigma at that mass and the counterweight elsewhere;
    # a tiny one brings the sup to about phi(sigma), within 1 + 4 sigma / 3 of the bound.
    rng = np.random.default_rng(seed)
    if mass is not None:
        p = np.array([mass, 1.0 - mass])
        u = np.array([1.0, -mass / (1.0 - mass)])
    else:
        p = rng.dirichlet(np.full(points, concentration))  # skewed for a small concentration
        u = rng.uniform(-1.0, 1.0, points)
        u -= p @ u
    u *= sigma / np.max(np.abs(u))  # |u| <= sigma with equality
    e = np.exp(u)
    f = np.max(np.abs(e / (p @ e) - 1.0 - u))
    bound = (math.expm1(sigma) - sigma) * (1.0 + sigma)
    assert f <= bound * (1.0 + 1e-12) + 1e-15  # e / Z - 1 - u cancels to within 1e-15
    if mass is not None and mass <= 1e-6 and sigma <= 1e-3:
        assert f >= 0.99 * bound


@settings(max_examples=40, deadline=None)
@given(
    truncations(max_K=12),
    st.floats(0.05, 0.95),
    st.floats(0.2, 1.0),
    st.floats(0.5, 2.0).filter(lambda mass: abs(mass - 1.0) > 1e-3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_basin_radius_certifies_relaxation_to_uniform(dims, fraction, tau, mass, worst, seed):
    # Damped Picard from ||a_0|| = 0.99 r(gamma), in a plain loop on the moments
    # a = <rho, Y_k>, k in S: ||a_n|| <= ((1 + q) / 2)^n ||a_0|| and rho_n -> 1.
    n, K, M = dims
    kernel, _ = _random_setup(n, K, M, seed)
    assume(K >= 1 and stability_check(kernel).unstable_modes)
    gamma = fraction * gamma_sharp(kernel).gamma
    basis = spectral_basis(n, K, M)
    w = basis.rule.weights
    support = np.flatnonzero(kernel.coeffs[1:]) + 1
    w_hat, table = kernel.coeffs[support], basis.table[support]
    q = float(np.max(np.abs(1.0 - tau * (1.0 + gamma * w_hat))))
    r = GibbsOperator(kernel, basis.rule, K).basin_radius(gamma, tau)
    if q >= 1.0:
        assert r == 0.0
        return
    assume(q <= 0.98)  # a few thousand steps reach 1e-9
    assert 0.0 < r < math.inf
    rng = np.random.default_rng(seed)
    # along the node where sum W_hat_k^2 Y_k^2 peaks, which drives |W * rho| to its bound
    node = int(np.argmax(np.sum((w_hat[:, None] * table) ** 2, axis=0)))
    direction = w_hat * table[:, node] if worst else rng.normal(size=support.size)
    a = 0.99 * r * direction / np.linalg.norm(direction)
    other = rng.normal(size=M)
    other -= table.T @ (table @ (w * other))  # no moment in S
    rho = mass + table.T @ a + 0.5 * other

    def moments(rho):
        return table @ (w * rho)

    a0 = np.linalg.norm(moments(rho))
    rate, steps = (1.0 + q) / 2.0, 0
    while steps < 20000 and max(rate**steps * a0, (1.0 - tau) ** steps * 10.0) > 1e-12:
        steps += 1
        u = -gamma * ((w_hat * moments(rho)) @ table)
        image = np.exp(u - u.max())
        rho = (1.0 - tau) * rho + tau * image / (w @ image)
        assert np.linalg.norm(moments(rho)) <= rate**steps * a0 + 1e-13
    assert np.max(np.abs(rho - 1.0)) <= 1e-9


@FEW
@given(truncations(), st.floats(0.05, 30.0), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_free_energy_gap_of_a_block_equals_its_columns(dims, gamma, S, seed):
    n, K, M = dims
    kernel, _ = _random_setup(n, K, M, seed)
    basis = spectral_basis(n, K, M)
    block = np.column_stack([_random_setup(n, K, M, seed + j + 1)[1].values for j in range(S)])
    block[0, S - 1] = 0.0  # the last column leaves the positive cone
    gaps = free_energy_gap(kernel, basis, gamma, block)
    assert gaps.shape == (S,) and gaps[-1] == math.inf
    for column, gap in zip(block.T, gaps):
        single = free_energy_gap(kernel, basis, gamma, column)
        assert single == pytest.approx(gap, rel=1e-12, abs=1e-13)


@FEW
@given(truncations(), st.integers(0, 2**32 - 1))
def test_spherical_convolution_is_symmetric(dims, seed):
    n, K, M = dims
    kernel, rho = _random_setup(n, K, M, seed)
    _, sigma = _random_setup(n, K, M, seed + 1)
    rule = rho.rule
    # <W*rho, sigma> = <rho, W*sigma> on the sphere's measure
    w_rho, w_sigma = convolve(kernel, rho).values, convolve(kernel, sigma).values
    left = rule.integrate(w_rho * sigma.values)
    right = rule.integrate(rho.values * w_sigma)
    scale = rule.integrate(np.abs(w_rho) * sigma.values)
    assert abs(left - right) <= 1e-12 * max(scale, 1e-300)


@FEW
@given(
    st.integers(3, 8),
    st.lists(st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-6), min_size=2, max_size=12),
)
def test_linear_spectrum_flips_sign_at_each_bifurcation(n, tail):
    assume(min(tail) < 0.0)  # at least one unstable mode
    coeffs = np.array([1.0] + tail)
    kernel = ZonalCoefficients(n=n, coeffs=coeffs)
    L = coeffs.size - 1
    for k, gamma_k in bifurcation_points(kernel).points:
        below = linear_spectrum(kernel, gamma_k * (1.0 - 1e-9), L).eigenvalues
        above = linear_spectrum(kernel, gamma_k * (1.0 + 1e-9), L).eigenvalues
        assert below[k] < 0.0 < above[k]


def _outcome(scan, kernel):
    try:
        return scan(kernel)
    except ValueError:
        return "raises"


@st.composite
def tied_coefficients(draw):
    """(n, coefficient list) drawn from a small pool of values, so that ties are common."""
    pool = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
    K = draw(st.integers(0, 10))
    return draw(st.integers(3, 8)), [draw(st.sampled_from(pool)) for _ in range(K + 1)]


@settings(max_examples=200, deadline=None)
@given(tied_coefficients(), st.floats(-10.0, 10.0))
def test_mode_zero_does_not_decide_stability(dims, shift):
    n, coeffs = dims
    kernel = ZonalCoefficients(n=n, coeffs=coeffs)
    shifted = ZonalCoefficients(n=n, coeffs=[coeffs[0] + shift] + coeffs[1:])
    outcomes = []
    for scan in (stability_check, gamma_sharp, bifurcation_points):
        outcome = _outcome(scan, kernel)
        assert _outcome(scan, shifted) == outcome
        outcomes.append(outcome)
    report, gs, bif = outcomes
    assert report.stable == (gs == "raises") == (bif == "raises")


@settings(max_examples=200, deadline=None)
@given(tied_coefficients())
def test_ties_are_the_modes_another_mode_matches(dims):
    n, coeffs = dims
    unstable = [k for k in range(1, len(coeffs)) if coeffs[k] < -_COEFF_TOL]
    ties = [k for k in unstable if sum(abs(c - coeffs[k]) <= _COEFF_TOL for c in coeffs[1:]) > 1]
    found = solver._simple_modes(ZonalCoefficients(n=n, coeffs=coeffs))
    assert list(found.ties) == ties
    assert found.points == tuple((k, -1.0 / coeffs[k]) for k in unstable if k not in ties)


FIRST_MODE_SPECS = [
    KernelSpec(n=3, family="onsager"), KernelSpec(n=4, family="transformer", beta=1.0),
    KernelSpec(n=3, family="opinion", p=5.0), KernelSpec(n=3, family="heat", epsilon=0.3),
    KernelSpec(n=4, family="onsager"), KernelSpec(n=5, family="onsager"),
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIRST_MODE_SPECS), st.floats(1.003, 1.5))
def test_first_mode_walk_is_the_guarded_walk(spec, scale):
    # the arc's Newton leaves out the Picard-limit test of a lone solve; wherever that test
    # would accept every root of the walk, the walk is the one with the test, bit for bit
    config = SolverConfig(K=16, M=40)
    kernel = coefficients(spec, config.K)
    mode, gamma_k = bifurcation_points(kernel).points[0]
    grid = np.linspace(scale * gamma_k, 3.0 * gamma_k, 6)
    branch, diagnostic = trace_branch(kernel, mode, grid, config)
    newton, rejected = solver._newton, []

    def guarded(op, gamma, values, config, picard_limit=True):
        out = newton(op, gamma, values, config)
        rejected.extend([] if picard_limit or out[0] is not None else [gamma])
        return out

    with mock.patch.object(solver, "_newton", guarded):
        guarded_branch, guarded_diagnostic = trace_branch(kernel, mode, grid, config)
    assume(not rejected)
    assert branch and diagnostic == guarded_diagnostic and len(branch) == len(guarded_branch)
    for p, q in zip(branch, guarded_branch):
        assert np.array_equal(p.density.values, q.density.values)
        assert (p.gamma, p.dominant_mode, p.amplitude, p.residual, p.iterations) == (
            q.gamma, q.dominant_mode, q.amplitude, q.residual, q.iterations)
        assert p.free_energy == q.free_energy


@FEW
@given(st.sampled_from(DRIFT_SPECS), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_drift_is_permutation_equivariant_and_tangent(spec, count, seed):
    x = uniform_ensemble(spec.n, count, seed=seed).positions
    perm = np.random.default_rng(seed).permutation(count)
    drift = _pairwise_drift(spec, x)
    # a permutation moves particles across tiles, so the sums run in another order
    scale = max(1.0, np.max(np.abs(drift)))
    assert np.allclose(_pairwise_drift(spec, x[perm]), drift[perm], rtol=1e-12, atol=1e-13 * scale)
    assert np.max(np.abs(np.sum(drift * x, axis=1))) <= 1e-13


def _step_spec(family, n):
    if family == "inert":
        return KernelSpec(n=n, family="custom", profile=np.ones_like, profile_derivative=np.zeros_like)
    parameter = {"transformer": {"beta": 1.0}, "opinion": {"p": 5.0}}.get(family, {})
    return KernelSpec(n=n, family=family, **parameter)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["onsager", "transformer", "opinion", "inert"]),
    st.sampled_from([3, 4, 5]),
    st.integers(1, 300),
    st.one_of(st.floats(0.5, 50.0), st.just(math.inf)),
    st.integers(0, 2**32 - 1),
)
def test_step_is_blind_to_the_input_layout(family, n, count, gamma, seed):
    # the same step from a row-major and a column-major copy of one ensemble;
    # a noisy step hands back column-major positions whatever it was given
    spec, config = _step_spec(family, n), SimConfig(dt=1e-3, gamma=gamma)
    rows = uniform_ensemble(n, count, seed=seed).positions
    outs = [
        step(ParticleEnsemble(n=n, positions=x, rng=np.random.default_rng(seed)), spec, config)
        for x in (rows, np.asfortranarray(rows))
    ]
    assert np.allclose(outs[0].positions, outs[1].positions, rtol=0.0, atol=1e-15)
    assert outs[0].rng.bit_generator.state == outs[1].rng.bit_generator.state
    if math.isfinite(gamma):
        assert all(out.positions.T.flags.c_contiguous for out in outs)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# mostly objects with the reader's keys, so the property reaches the field checks
KERNEL_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries(
    {},
    optional={
        "n": st.integers(-2, 12) | JSON_VALUES,
        "family": st.sampled_from(["transformer", "onsager", "opinion", "heat", "custom"])
        | JSON_VALUES,
        "beta": JSON_VALUES,
        "p": JSON_VALUES,
        "epsilon": JSON_VALUES,
        "derivative_bound": JSON_VALUES,
        "profile": JSON_VALUES,
    },
)


@settings(max_examples=300, deadline=None)
@given(KERNEL_DOCUMENTS)
def test_kernel_json_gives_a_spec_or_a_config_error(document):
    try:
        spec = kernel_spec_from_json(json.dumps(document))
    except (ValueError, KeyError):
        return
    assert isinstance(spec, KernelSpec)
