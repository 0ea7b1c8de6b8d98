"""Property-based checks of the shared spectral basis and the Picard engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremv.harmonics import (
    ZonalCoefficients,
    ZonalProfile,
    decompose,
    omega_n,
    reconstruct,
    spectral_basis,
)
from spheremv.meanfield import make_density
from spheremv.solver import GibbsOperator, SolverConfig, gibbs_fixed_point
from spheremv.specfun import gauss_jacobi_rule

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
    assert omega_n(n - 1) * density.rule.integrate(image) == pytest.approx(1.0, abs=1e-12)


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
