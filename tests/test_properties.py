"""Property-based checks of the shared spectral basis, the Picard engine, the particle drift
and the kernel JSON reader."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spheremv.harmonics import (
    ZonalCoefficients,
    ZonalProfile,
    decompose,
    omega_n,
    reconstruct,
    spectral_basis,
)
from spheremv.kernels import KernelSpec, kernel_spec_from_json, stability_check
from spheremv.meanfield import convolve, gamma_sharp, linear_spectrum, make_density
from spheremv.particles import _pairwise_drift, uniform_ensemble
from spheremv.solver import (
    GibbsOperator,
    SolverConfig,
    _damped_picard,
    bifurcation_points,
    gibbs_fixed_point,
)
from spheremv.specfun import gauss_jacobi_rule

from helpers import DRIFT_SPECS

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
    assert np.allclose(spectral_basis(n, K, M).synthesis @ coeffs, values, rtol=1e-12, atol=1e-12)
    back = decompose(ZonalProfile(n=n, rule=rule, values=values), K)
    assert np.max(np.abs(back.coeffs - coeffs)) < 1e-9


@FEW
@given(truncations(), st.floats(0.05, 30.0), st.integers(0, 2**32 - 1))
def test_gibbs_image_is_positive_with_unit_mass(dims, gamma, seed):
    n, K, M = dims
    kernel, density = _random_setup(n, K, M, seed)
    image = GibbsOperator(kernel, density.rule, K).gibbs(gamma, density.values)
    assert np.all(image > 0.0)
    mass = omega_n(n - 1) / omega_n(n) * density.rule.integrate(image)  # against sigma / omega_n
    assert mass == pytest.approx(1.0, abs=1e-12)


@FEW
@given(
    truncations(max_K=12),
    st.floats(0.1, 20.0),
    st.floats(0.1, 1.0),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
def test_picard_evaluates_gibbs_once_per_iteration(dims, gamma, tau, max_iters, seed):
    n, K, M = dims
    kernel, density = _random_setup(n, K, M, seed)
    op = GibbsOperator(kernel, density.rule, K)
    calls = []
    evaluate = op.gibbs

    def counted(g, values):
        calls.append(g)
        return evaluate(g, values)

    op.gibbs = counted
    config = SolverConfig(tau=tau, tol=1e-9, max_iters=max_iters, K=K, M=M)
    result = gibbs_fixed_point(kernel, gamma, density, config, op=op)
    assert len(calls) == result.iterations + 1
    assert result.iterations <= max_iters


@FEW
@given(truncations())
def test_cached_rule_and_basis_are_read_only(dims):
    n, K, M = dims
    rule = gauss_jacobi_rule(n, M)
    basis = spectral_basis(n, K, M)
    assert gauss_jacobi_rule(n, M) is rule and basis.rule is rule
    assert spectral_basis(n, K, M) is basis
    arrays = [rule.nodes, rule.weights, basis.table, basis.at_one, basis.norm,
              basis.factors, basis.analysis, basis.synthesis]
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
def test_block_solve_equals_its_columns(dims, gamma, tau, max_iters, S, seed):
    n, K, M = dims
    kernel, _ = _random_setup(n, K, M, seed)
    seeds = [_random_setup(n, K, M, seed + j + 1)[1] for j in range(S)]
    op = GibbsOperator(kernel, seeds[0].rule, K)
    # With tau <= 1/2 the error shrinks at most 2x per step, so nothing reaches
    # tol = 1e-300 and both paths take exactly max_iters steps.
    config = SolverConfig(tau=tau, tol=1e-300, max_iters=max_iters, K=K, M=M)
    block = np.column_stack([d.values for d in seeds])
    values, res, iters = _damped_picard(op, gamma, block, config)
    assert values.shape == (M, S) and res.shape == (S,) and iters == max_iters
    for column, column_res, density in zip(values.T, res, seeds):
        single = gibbs_fixed_point(kernel, gamma, density, config, op=op)
        assert single.iterations == max_iters and not single.converged
        assert np.allclose(column, single.density.values, rtol=1e-12, atol=0.0)
        assert column_res == pytest.approx(single.residual, rel=1e-9)


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
