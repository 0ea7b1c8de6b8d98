import math

import numpy as np
import pytest
import sympy
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_gegenbauer

from spheremv.specfun import (
    QuadratureRule, _recurrence_coefficients, gauss_jacobi_rule, zonal_table,
)

from helpers import c_lambda, gegenbauer_at_one, gegenbauer_norm_sq, zonal_norm


def _gegenbauer(k, lam, t):
    """C_k^lam(t) = C_k^lam(1) Y_k(t) / Y_k(1) from zonal_table on S^{2 lam + 1}, a float for scalar t.

    The ratio does not depend on how Y_k is normalised, and C_k^lam(1) is the
    closed form, so this checks the shape of the package's harmonics.
    """
    n = int(round(2 * lam + 2))
    values = zonal_table(k, n, t)[k] * gegenbauer_at_one(k, lam) / zonal_table(k, n, 1.0)[k, 0]
    return float(values[0]) if np.ndim(t) == 0 else values


class TestGegenbauerEval:
    def test_degree_zero_is_one(self):
        assert _gegenbauer(0, 0.5, 0.3) == 1.0

    def test_degree_one_is_2_lambda_t(self):
        assert _gegenbauer(1, 0.5, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_degree_two_legendre(self):
        # C_2^{1/2}(t) = (3 t^2 - 1)/2
        assert _gegenbauer(2, 0.5, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_array_input(self):
        t = np.linspace(-1, 1, 7)
        vals = _gegenbauer(3, 1.0, t)
        assert vals.shape == t.shape

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            _gegenbauer(2, 0.0, 0.3)

    def test_rejects_nonfinite_t(self):
        with pytest.raises(ValueError):
            _gegenbauer(2, 0.5, math.nan)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 4.0])
    def test_rodrigues_formula_agreement(self, lam):
        # C_k^lam(t) = (-1)^k 2^k Gamma(lam+k) Gamma(k+2lam) /
        #   (k! Gamma(lam) Gamma(2k+2lam)) (1-t^2)^{1/2-lam} d^k/dt^k (1-t^2)^{k+lam-1/2}
        x = sympy.symbols("x")
        grid = np.linspace(-0.99, 0.99, 50)
        for k in range(11):
            expr = (
                sympy.Rational(-1) ** k
                * 2**k
                * sympy.gamma(lam + k)
                * sympy.gamma(k + 2 * lam)
                / (sympy.factorial(k) * sympy.gamma(lam) * sympy.gamma(2 * k + 2 * lam))
                * (1 - x**2) ** (sympy.Rational(1, 2) - lam)
                * sympy.diff((1 - x**2) ** (k + lam - sympy.Rational(1, 2)), x, k)
            )
            fn = sympy.lambdify(x, sympy.simplify(expr), "numpy")
            expected = np.asarray(fn(grid), dtype=float)
            got = _gegenbauer(k, lam, grid)
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_table_matches_single_evaluations(self):
        # a row of the degree-8 table equals the last row of the degree-k table
        t = np.linspace(-1, 1, 11)
        table = zonal_table(8, 5, t)
        for k in range(9):
            assert np.allclose(table[k], zonal_table(k, 5, t)[k], atol=1e-13)


class TestGegenbauerNormSq:
    # the squared norms against the probability weight c_lam (1-t^2)^{lam-1/2}

    def test_degree_zero(self):
        rule = gauss_jacobi_rule(3, 12)
        assert rule.integrate(eval_gegenbauer(0, 0.5, rule.nodes) ** 2) == pytest.approx(
            0.5 * 2.0, rel=1e-14
        )

    def test_degree_one(self):
        rule = gauss_jacobi_rule(3, 12)
        assert rule.integrate(eval_gegenbauer(1, 0.5, rule.nodes) ** 2) == pytest.approx(
            0.5 * 2.0 / 3.0, rel=1e-14
        )

    def test_degree_two(self):
        rule = gauss_jacobi_rule(3, 12)
        assert rule.integrate(eval_gegenbauer(2, 0.5, rule.nodes) ** 2) == pytest.approx(
            0.5 * 2.0 / 5.0, rel=1e-14
        )

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_quadrature_oracle(self, lam, k):
        n = int(2 * lam + 2)
        rule = gauss_jacobi_rule(n, 40)
        vals = eval_gegenbauer(k, lam, rule.nodes)
        expected = c_lambda(lam) * gegenbauer_norm_sq(k, lam)
        assert rule.integrate(vals**2) == pytest.approx(expected, rel=1e-11)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):  # lam = -1 is the sphere dimension n = 0
            _gegenbauer(2, -1.0, 0.3)


class TestGaussJacobiRule:
    # the weights are probabilities: the Jacobi weight (1-t^2)^{(n-3)/2} times c_lam

    def test_weights_sum_n3(self):
        rule = gauss_jacobi_rule(3, 12)
        assert np.sum(rule.weights) == pytest.approx(c_lambda(0.5) * 2.0, rel=1e-12)

    def test_weights_sum_n5(self):
        rule = gauss_jacobi_rule(5, 12)
        assert np.sum(rule.weights) == pytest.approx(c_lambda(1.5) * 4.0 / 3.0, rel=1e-12)

    def test_exactness_t4_with_three_nodes(self):
        rule = gauss_jacobi_rule(3, 3)
        assert rule.integrate(rule.nodes**4) == pytest.approx(c_lambda(0.5) * 2.0 / 5.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_invariants(self, n):
        rule = gauss_jacobi_rule(n, 16)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(np.abs(rule.nodes) < 1.0)
        assert np.all(rule.weights > 0)
        # total mass is the weight's integral via the Beta function, times c_lam
        alpha = 0.5 * (n - 3)
        total = math.exp(
            (2 * alpha + 1) * math.log(2.0)
            + 2 * math.lgamma(alpha + 1.0)
            - math.lgamma(2 * alpha + 2.0)
        )
        assert np.sum(rule.weights) == pytest.approx(c_lambda(alpha + 0.5) * total, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_monomial_exactness(self, n):
        import mpmath

        M = 6
        rule = gauss_jacobi_rule(n, M)
        alpha = 0.5 * (n - 3)
        for deg in range(0, 2 * M - 1, 2):
            # int t^deg (1-t^2)^alpha dt over the total int (1-t^2)^alpha dt
            exact = float(mpmath.beta((deg + 1) / 2.0, alpha + 1.0) / mpmath.beta(0.5, alpha + 1.0))
            got = rule.integrate(rule.nodes ** float(deg))
            assert got == pytest.approx(exact, rel=1e-12)
        for deg in range(1, 2 * M - 1, 2):
            assert abs(rule.integrate(rule.nodes ** float(deg))) < 1e-14

    def test_orthogonality_of_gegenbauer(self):
        n = 5
        lam = 0.5 * (n - 2)
        rule = gauss_jacobi_rule(n, 20)
        table = [eval_gegenbauer(k, lam, rule.nodes) for k in range(8)]
        for k in range(6):
            for j in range(k + 1, 8):
                assert abs(rule.integrate(table[k] * table[j])) < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 7, 100, 4096, 10**9])
    def test_matches_scipys_tridiagonal_golub_welsch(self, n):
        # the off-diagonal is the textbook Jacobi matrix of (1-t^2)^alpha, whose
        # monic recurrence has beta_j = j (j+2 alpha) / ((2j+2 alpha)^2 - 1)
        alpha = 0.5 * (n - 3)
        j = np.arange(1.0, 424)
        beta = j * (j + 2 * alpha) / ((2 * j + 2 * alpha) ** 2 - 1.0)
        np.testing.assert_allclose(_recurrence_coefficients(n, 423), np.sqrt(beta), rtol=1e-15)
        # the oracle is scipy's tridiagonal eigensolver on that same matrix: a
        # weight far below the largest one is exact only to an absolute round-off,
        # so a re-rounded off-diagonal would move it by more than 1e-13 of itself
        for order in (2, 3, 8, 33, 129, 424):
            off = _recurrence_coefficients(n, order - 1)
            nodes, vecs = eigh_tridiagonal(np.zeros(order), off)
            weights = vecs[0] ** 2 / math.fsum(vecs[0] ** 2)
            rule = gauss_jacobi_rule(n, order)
            np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=1e-15)
            np.testing.assert_allclose(rule.weights, weights, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [3, 100, 10**9])
    def test_one_node_rule_is_the_origin(self, n):
        # eigh of the 1x1 zero Jacobi matrix: node 0 with the whole mass
        rule = gauss_jacobi_rule(n, 1)
        assert rule.nodes.tolist() == [0.0] and rule.weights.tolist() == [1.0]
        assert not (rule.nodes.flags.writeable or rule.weights.flags.writeable)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gauss_jacobi_rule(2, 5)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(3, 0)


def test_value_at_one_matches_recurrence():
    # Y_k(1) = A_k C_k^lam(1), both factors in closed form
    for lam in (0.5, 1.0, 3.5):
        n = int(2 * lam + 2)
        table = zonal_table(9, n, 1.0)
        for k in range(10):
            assert table[k, 0] == pytest.approx(zonal_norm(k, n) * gegenbauer_at_one(k, lam), rel=1e-12)


class TestZonalTable:
    @pytest.mark.parametrize("n", [3, 4, 7, 40])
    def test_normalized_gegenbauer(self, n):
        # Y_k = A_k C_k^{(n-2)/2}, with A_k from the closed-form norms
        lam = 0.5 * (n - 2)
        t = np.linspace(-1.0, 1.0, 21)
        table = zonal_table(10, n, t)
        for k in range(11):
            expected = zonal_norm(k, n) * eval_gegenbauer(k, lam, t)
            assert np.allclose(table[k], expected, rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 7, 40])
    def test_value_at_one_is_root_of_harmonic_dimension(self, n):
        # dim_k = (2k+n-2)/(n-2) C_k^{(n-2)/2}(1)
        lam = 0.5 * (n - 2)
        at_one = zonal_table(12, n, 1.0)[:, 0]
        for k in range(13):
            dim = (2 * k + n - 2) / (n - 2) * gegenbauer_at_one(k, lam)
            assert at_one[k] == pytest.approx(math.sqrt(dim), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 4096, 10**9])
    def test_orthonormal_under_the_rule(self, n):
        rule = gauss_jacobi_rule(n, 12)
        table = zonal_table(8, n, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.allclose(gram, np.eye(9), atol=1e-12)

    def test_shape_and_scalar_point(self):
        assert zonal_table(4, 3, 0.2).shape == (5, 1)
        assert zonal_table(4, 3, np.zeros((2, 3))).shape == (5, 2, 3)

    def test_overflow_is_reported_without_warnings(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="exceeds double precision"):
                zonal_table(48, 2**53, 1.0)

    def test_rejects_bad_inputs(self):
        for args in ((-1, 3, 0.0), (2, 2, 0.0), (2, 3, math.nan), (2, 3, math.inf)):
            with pytest.raises(ValueError):
                zonal_table(*args)
