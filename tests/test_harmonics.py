import json
import math

import numpy as np
import pytest

from spheremv.harmonics import (
    ZonalCoefficients,
    ZonalProfile,
    decompose,
    omega_n,
    reconstruct,
    sphere_integral,
    triple_product_integral,
    y_l0,
)
from spheremv.cli import main
from spheremv.kernels import KernelSpec, coefficients
from spheremv.specfun import gauss_jacobi_rule

from helpers import gegenbauer_at_one, outer_rule, zonal_norm


class TestOmegaN:
    def test_sphere_surface_values(self):
        assert omega_n(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert omega_n(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert omega_n(4) == pytest.approx(2 * math.pi**2, rel=1e-14)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            omega_n(1)


class TestCLambda:
    # c_lam = |S^{n-2}| / |S^{n-1}| = 1 / int (1-t^2)^{(n-3)/2} dt is left only in the
    # paper-style triple product: one_d = normalized / c_lam

    @staticmethod
    def _c_lam(n):
        tp = triple_product_integral(2, n)
        return tp.normalized / tp.one_d

    def test_half(self):
        assert self._c_lam(3) == pytest.approx(0.5, rel=1e-14)

    def test_one(self):
        assert self._c_lam(4) == pytest.approx(2.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_reciprocal_of_weight_integral(self, n):
        _, weights = outer_rule(n, 10)
        assert self._c_lam(n) == pytest.approx(1.0 / np.sum(weights), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            triple_product_integral(2, 2)


class TestZonalNormConstant:
    # the normalisation A_l of Y_{l,0} = A_l C_l^{(n-2)/2}, as carried by y_l0

    def test_degree_zero_is_one(self):
        for n in (3, 4, 7):
            assert y_l0(0, n, 0.3) == pytest.approx(1.0, rel=1e-13)

    def test_known_legendre_values(self):
        # Y_l = sqrt(2l+1) P_l on S^2, and P_l(1) = 1
        assert y_l0(2, 3, 1.0) == pytest.approx(math.sqrt(5.0), rel=1e-13)
        assert y_l0(1, 3, 1.0) == pytest.approx(math.sqrt(3.0), rel=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("l", [0, 1, 2, 5])
    def test_unit_norm_under_normalized_inner_product(self, l, n):
        rule = gauss_jacobi_rule(n, 30)
        vals = y_l0(l, n, rule.nodes)
        assert rule.integrate(vals**2) == pytest.approx(1.0, rel=1e-11)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            y_l0(-1, 3, 0.0)
        with pytest.raises(ValueError):
            y_l0(2, 2, 0.0)


class TestDecompose:
    def test_constant_profile(self):
        rule = gauss_jacobi_rule(4, 20)
        prof = ZonalProfile(n=4, rule=rule, values=np.full(rule.order, 2.5))
        coeffs = decompose(prof, 6)
        assert coeffs.coeffs[0] == pytest.approx(2.5, rel=1e-13)
        assert np.max(np.abs(coeffs.coeffs[1:])) < 1e-13

    def test_linear_profile_n3(self):
        rule = gauss_jacobi_rule(3, 20)
        prof = ZonalProfile(n=3, rule=rule, values=rule.nodes.copy())
        coeffs = decompose(prof, 5)
        assert coeffs.coeffs[1] == pytest.approx(1.0 / 3.0, rel=1e-13)
        others = np.delete(coeffs.coeffs, 1)
        assert np.max(np.abs(others)) < 1e-13

    def test_exponential_profile_zero_mode(self):
        rule = gauss_jacobi_rule(3, 30)
        prof = ZonalProfile(n=3, rule=rule, values=-np.exp(rule.nodes))
        coeffs = decompose(prof, 5)
        assert coeffs.coeffs[0] == pytest.approx(-math.sinh(1.0), rel=1e-12)

    def test_insufficient_order_rejected(self):
        rule = gauss_jacobi_rule(3, 6)
        prof = ZonalProfile(n=3, rule=rule, values=np.ones(6))
        with pytest.raises(ValueError):
            decompose(prof, 5)

    def test_even_profile_has_zero_odd_coefficients(self):
        rule = gauss_jacobi_rule(5, 24)
        prof = ZonalProfile(n=5, rule=rule, values=np.cosh(rule.nodes))
        coeffs = decompose(prof, 10)
        assert np.max(np.abs(coeffs.coeffs[1::2])) < 1e-12

    def test_odd_profile_has_zero_even_coefficients(self):
        rule = gauss_jacobi_rule(4, 24)
        prof = ZonalProfile(n=4, rule=rule, values=np.sinh(rule.nodes))
        coeffs = decompose(prof, 10)
        assert np.max(np.abs(coeffs.coeffs[0::2])) < 1e-12


class TestReconstruct:
    def test_cubic_roundtrip(self):
        rule = gauss_jacobi_rule(4, 20)
        vals = 1.0 + 0.5 * rule.nodes - 2.0 * rule.nodes**2 + 0.25 * rule.nodes**3
        coeffs = decompose(ZonalProfile(n=4, rule=rule, values=vals), 3)
        back = reconstruct(coeffs, rule.nodes)
        assert np.max(np.abs(back - vals)) < 1e-12

    def test_constant(self):
        coeffs = ZonalCoefficients(n=3, coeffs=np.array([3.0, 0.0, 0.0]))
        vals = reconstruct(coeffs, np.linspace(-1, 1, 9))
        assert np.allclose(vals, 3.0, atol=1e-14)

    def test_rejects_out_of_range(self):
        coeffs = ZonalCoefficients(n=3, coeffs=np.array([1.0]))
        with pytest.raises(ValueError):
            reconstruct(coeffs, np.array([1.5]))

    def test_coefficient_roundtrip_identity(self):
        # decompose(reconstruct(c)) == c for sequences supported on <= K
        rng = np.random.default_rng(3)
        for n in (3, 5):
            rule = gauss_jacobi_rule(n, 40)
            c = rng.normal(size=9)
            vals = reconstruct(ZonalCoefficients(n=n, coeffs=c), rule.nodes)
            back = decompose(ZonalProfile(n=n, rule=rule, values=vals), 8)
            assert np.max(np.abs(back.coeffs - c)) < 1e-11

    def test_heat_series_truncation_bound(self):
        from spheremv.kernels import _heat_series_coeffs

        n, eps, K = 3, 0.25, 6
        full = _heat_series_coeffs(n, eps)
        t = np.linspace(-1.0, 1.0, 101)
        lo = reconstruct(ZonalCoefficients(n=n, coeffs=full[: K + 1]), t)
        hi = reconstruct(ZonalCoefficients(n=n, coeffs=full[: K + 11]), t)
        tail = sum(
            abs(full[k]) * (2 * k + n - 2) / (n - 2) * gegenbauer_at_one(k, 0.5 * (n - 2))
            for k in range(K + 1, min(K + 11, full.size))
        )
        assert np.max(np.abs(hi - lo)) <= tail + 1e-15


class TestParseval:
    @pytest.mark.parametrize("n", [3, 4])
    def test_norm_identity(self, n):
        lam = 0.5 * (n - 2)
        rule = gauss_jacobi_rule(n, 60)
        vals = np.exp(0.7 * rule.nodes) - 0.3 * rule.nodes**2
        coeffs = decompose(ZonalProfile(n=n, rule=rule, values=vals), 40)
        # normalized coefficients <g, Y_l>
        proj = np.array(
            [zonal_norm(k, n) * gegenbauer_at_one(k, lam) * coeffs.coeffs[k] for k in range(41)]
        )
        lhs = rule.integrate(vals**2)
        assert lhs == pytest.approx(float(np.sum(proj**2)), rel=1e-9)


class TestTripleProduct:
    def test_odd_degree_vanishes(self):
        for l in (1, 3, 5, 7):
            tp = triple_product_integral(l, 3)
            assert abs(tp.one_d) < 1e-12
            assert abs(tp.sigma) < 1e-12

    def test_raw_legendre_value(self):
        # at n = 3 the l = 2 polynomial is Legendre P_2; int P_2^3 dt = 4/35
        tp = triple_product_integral(2, 3)
        raw = tp.one_d / zonal_norm(2, 3) ** 3
        assert raw == pytest.approx(4.0 / 35.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_closed_form_l2(self, n):
        tp = triple_product_integral(2, n)
        a = zonal_norm(2, n)
        expected = (
            a**3
            * 4.0
            * (n - 2.0) ** 3
            * math.sqrt(math.pi)
            * math.gamma(0.5 * (n + 1))
            / ((n + 2.0) * (n + 4.0) * math.gamma(0.5 * n - 1.0))
        )
        assert tp.one_d == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_closed_form_l4(self, n):
        tp = triple_product_integral(4, n)
        a = zonal_norm(4, n)
        expected = (
            a**3
            * (n - 2.0) ** 3
            * n**4
            * (n**2 - 4.0)
            * math.sqrt(math.pi)
            * math.gamma(0.5 * (n + 5))
            / (64.0 * math.gamma(0.5 * n + 6.0))
        )
        assert tp.one_d == pytest.approx(expected, rel=1e-8)

    def test_sigma_and_normalized_conventions(self):
        tp = triple_product_integral(2, 4)
        assert tp.sigma == pytest.approx(omega_n(3) * tp.one_d, rel=1e-13)
        assert tp.normalized == pytest.approx(tp.sigma / omega_n(4), rel=1e-13)

    def test_single_mode_resonance_even_l_up_to_16(self):
        # recorded observation (not an assertion of the general conjecture):
        # every even degree up to 16 has a nonzero cube integral at n = 3, 4
        for n in (3, 4):
            for l in range(2, 17, 2):
                assert abs(triple_product_integral(l, n).sigma) > 1e-10


class TestSerialization:
    # coefficients leave the program only through the CLI's decompose artifact
    ONSAGER = '{"n": 3, "family": "onsager"}'

    def _decompose(self, capsys, *extra):
        assert main(["decompose", "--kernel", self.ONSAGER, "--K", "10", *extra]) == 0
        return capsys.readouterr().out

    def _expected(self):
        return coefficients(KernelSpec(n=3, family="onsager"), 10).coeffs

    def test_json_roundtrip(self, capsys):
        data = json.loads(self._decompose(capsys, "--format", "json"))
        assert json.loads(data["config"]["kernel"])["n"] == 3
        assert [int(row["k"]) for row in data["rows"]] == list(range(11))
        back = [float(row["coeff"]) for row in data["rows"]]
        assert np.array_equal(back, self._expected())

    def test_csv_roundtrip_17_digits(self, capsys):
        lines = self._decompose(capsys).strip().splitlines()
        assert lines[1] == "k,coeff"
        back = [float(line.split(",")[1]) for line in lines[2:]]
        assert np.array_equal(back, self._expected())

    def test_json_has_17_significant_digits(self, capsys):
        # JSON numbers are written as repr (the shortest exact digits, at most 17);
        # the CSV cells of the same rows carry all 17
        expected = self._expected()
        text = self._decompose(capsys, "--format", "json")
        assert all(f'"coeff": {float(c)!r}' in text for c in expected)
        lines = self._decompose(capsys).strip().splitlines()[2:]
        assert [line.split(",")[1] for line in lines] == [f"{c:.17g}" for c in expected]


def test_sphere_integral_of_uniform():
    rule = gauss_jacobi_rule(5, 16)
    prof = ZonalProfile(n=5, rule=rule, values=np.full(rule.order, 1.0 / omega_n(5)))
    assert sphere_integral(prof) == pytest.approx(1.0, rel=1e-12)
