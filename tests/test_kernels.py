import json
import math
import re

import numpy as np
import pytest
from scipy.special import gammasgn, iv

from spheremv.harmonics import ZonalCoefficients
from spheremv.kernels import (
    KernelSpec,
    closed_form_coefficients,
    coefficients,
    convexity_threshold,
    kernel_spec_from_json,
    profile_derivative,
    profile_values,
    quadrature_coefficients,
    stability_check,
    _heat_series,
)
from spheremv.specfun import gauss_jacobi_rule


def _spec(n, family, **kw):
    return KernelSpec(n=n, family=family, **kw)


class TestKernelSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _spec(3, "transformer", beta=-1.0)
        with pytest.raises(ValueError):
            _spec(3, "opinion", p=0.0)
        with pytest.raises(ValueError):
            _spec(3, "heat")
        with pytest.raises(ValueError):
            _spec(3, "custom")
        with pytest.raises(ValueError):
            _spec(2, "onsager")
        with pytest.raises(ValueError):
            _spec(3, "nonsense")
        with pytest.raises(ValueError, match="derivative_bound must be >= 0"):
            _spec(3, "custom", profile=lambda t: t**2, derivative_bound=-2.0)

    def test_json_parsing(self):
        spec = kernel_spec_from_json('{"n": 4, "family": "transformer", "beta": 2.0}')
        assert spec.n == 4 and spec.family == "transformer" and spec.beta == 2.0

    def test_malformed_inline_json_reports_the_json_error(self):
        with pytest.raises(ValueError, match=r"malformed kernel JSON: Expecting"):
            kernel_spec_from_json('{"n": 3,')

    @pytest.mark.parametrize("key", ["n", "family"])
    def test_missing_key_is_named(self, key):
        data = {k: v for k, v in {"n": 3, "family": "onsager"}.items() if k != key}
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            kernel_spec_from_json(data)

    def test_json_custom_profile_table(self):
        t = np.linspace(-1, 1, 41)
        table = [[float(x), float(x**2)] for x in t]
        spec = kernel_spec_from_json({"n": 3, "family": "custom", "profile": table})
        grid = np.linspace(-1, 1, 11)
        assert np.max(np.abs(spec.profile(grid) - grid**2)) < 1e-10

    @pytest.mark.parametrize(
        "table,span",
        [
            ([[0, 1], [0.5, 2], [0.7, 1]], "[0, 0.7]"),
            ([[-1, 1], [0, 0]], "[-1, 0]"),
            ([[-0.5, 1], [0.5, 0]], "[-0.5, 0.5]"),
        ],
    )
    def test_table_short_of_the_interval_is_rejected(self, table, span):
        with pytest.raises(ValueError, match=re.escape(f"spans {span}")):
            kernel_spec_from_json({"n": 3, "family": "custom", "profile": table})

    @pytest.mark.parametrize(
        "table",
        [
            [[-1.0, 1.0], [0.0, 0.0], [1.0, 1.0]],  # the README's example
            [[-1, -1], [0, -1], [1, -1]],
            [[-1, 1.0], [0, -0.5], [1, -2.0]],
            [[-2, 0.0], [0, 1.0], [2, 0.0]],  # wider than [-1, 1]
        ],
    )
    def test_table_spanning_the_interval_is_accepted(self, table):
        spec = kernel_spec_from_json({"n": 3, "family": "custom", "profile": table})
        assert np.all(np.isfinite(spec.profile(np.linspace(-1, 1, 11))))

    def test_reversed_table_keeps_the_splines_error(self):
        table = [[1, 1], [0, 0], [-1, 0]]
        with pytest.raises(ValueError, match="strictly increasing"):
            kernel_spec_from_json({"n": 3, "family": "custom", "profile": table})


class TestClosedForms:
    def test_onsager_odd_coefficients_vanish(self):
        for n in (3, 4, 7):
            coeffs = closed_form_coefficients(_spec(n, "onsager"), 15)
            assert np.max(np.abs(coeffs.coeffs[1::2])) == 0.0

    def test_onsager_n3_anchor_values(self):
        coeffs = closed_form_coefficients(_spec(3, "onsager"), 4)
        assert coeffs.coeffs[0] == pytest.approx(math.pi / 4.0, rel=1e-12)
        assert coeffs.coeffs[2] == pytest.approx(-math.pi / 32.0, rel=1e-12)

    def test_opinion_integer_p_truncates(self):
        coeffs = closed_form_coefficients(_spec(3, "opinion", p=2.0), 8)
        assert coeffs.coeffs[3] == 0.0
        assert np.max(np.abs(coeffs.coeffs[3:])) == 0.0

    def test_transformer_zero_mode(self):
        coeffs = closed_form_coefficients(_spec(3, "transformer", beta=1.0), 2)
        assert coeffs.coeffs[0] == pytest.approx(-math.sinh(1.0), rel=1e-12)

    def test_transformer_bessel_form(self):
        n, beta = 5, 2.0
        coeffs = closed_form_coefficients(_spec(n, "transformer", beta=beta), 6)
        for k in range(7):
            expected = (
                -(2 ** (0.5 * (n - 2)))
                * beta ** (-0.5 * n)
                * math.gamma(0.5 * n)
                * iv(k + 0.5 * (n - 2), beta)
            )
            assert coeffs.coeffs[k] == pytest.approx(expected, rel=1e-12)

    def test_heat_anchor(self):
        coeffs = closed_form_coefficients(_spec(3, "heat", epsilon=0.5), 2)
        assert coeffs.coeffs[1] == pytest.approx(-math.exp(-1.0) / (4 * math.pi), rel=1e-12)

    def test_heat_decay_law(self):
        n, eps = 4, 0.2
        coeffs = closed_form_coefficients(_spec(n, "heat", epsilon=eps), 10)
        amp = math.gamma(n / 2.0) / (2.0 * math.pi ** (n / 2.0))
        for k in range(11):
            assert coeffs.coeffs[k] == pytest.approx(
                -amp * math.exp(-k * (k + n - 2.0) * eps), rel=1e-13
            )

    def test_custom_rejected(self):
        spec = _spec(3, "custom", profile=lambda t: np.ones_like(t))
        with pytest.raises(ValueError):
            closed_form_coefficients(spec, 4)


class TestQuadratureAgreement:
    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    @pytest.mark.parametrize(
        "family,kw",
        [
            ("transformer", {"beta": 1.0}),
            ("onsager", {}),
            ("opinion", {"p": 2.5}),
            ("opinion", {"p": 5.0}),
            ("heat", {"epsilon": 0.3}),
        ],
    )
    def test_closed_form_matches_quadrature(self, n, family, kw):
        spec = _spec(n, family, **kw)
        a = closed_form_coefficients(spec, 20).coeffs
        b = quadrature_coefficients(spec, 20, 200).coeffs
        assert np.all(np.abs(a - b) <= np.maximum(1e-8 * np.abs(a), 1e-12))


class TestRatiosAndSigns:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_onsager_ratio_below_one(self, n):
        coeffs = closed_form_coefficients(_spec(n, "onsager"), 20).coeffs
        for k in range(1, 9):
            ratio = coeffs[2 * k + 2] / coeffs[2 * k]
            assert 0.0 < ratio < 1.0

    @pytest.mark.parametrize("n,p", [(3, 2.5), (4, 3.5), (5, 5.0)])
    def test_opinion_ratio_identity(self, n, p):
        # W_hat_{p,k+1} / W_hat_{p,k} = (p - k) / (n - 1 + k + p)
        coeffs = closed_form_coefficients(_spec(n, "opinion", p=p), 12).coeffs
        for k in range(6):
            if coeffs[k] == 0.0 or abs(p - k) < 1e-12:
                continue
            expected = (p - k) / (n - 1.0 + k + p)
            assert coeffs[k + 1] / coeffs[k] == pytest.approx(expected, rel=1e-10)

    def test_opinion_sign_rule_beyond_p(self):
        # for k > p the sign of W_hat_{p,k} is the sign of (-1)^k / Gamma(-1-p)
        for n, p in [(3, 2.5), (4, 4.3)]:
            coeffs = closed_form_coefficients(_spec(n, "opinion", p=p), 14).coeffs
            for k in range(int(p) + 1, 15):
                expected = (-1.0) ** k * gammasgn(-1.0 - p)
                assert math.copysign(1.0, coeffs[k]) == expected


class TestDispatch:
    def test_custom_constant_profile(self):
        spec = _spec(3, "custom", profile=lambda t: np.ones_like(t))
        coeffs = coefficients(spec, 6)
        assert coeffs.coeffs[0] == pytest.approx(1.0, rel=1e-13)
        assert np.max(np.abs(coeffs.coeffs[1:])) < 1e-13

    def test_named_family_uses_closed_form(self):
        spec = _spec(4, "heat", epsilon=0.4)
        a = coefficients(spec, 8).coeffs
        b = closed_form_coefficients(spec, 8).coeffs
        assert np.array_equal(a, b)


class TestStability:
    def test_transformer_unstable_from_mode_one(self):
        # every W_hat_k < 0 at beta = 0.7; W_hat_0 is the mass mode and never counts
        rep = stability_check(coefficients(_spec(3, "transformer", beta=0.7), 10))
        assert not rep.stable and rep.unstable_modes == tuple(range(1, 11))

    def test_custom_t_squared_stable(self):
        spec = _spec(3, "custom", profile=lambda t: t**2)
        rep = stability_check(coefficients(spec, 10))
        assert rep.stable

    def test_heat_unstable(self):
        rep = stability_check(coefficients(_spec(5, "heat", epsilon=0.2), 10))
        assert not rep.stable


class TestConvexityThreshold:
    def test_transformer(self):
        for n, beta in [(3, 1.0), (4, 2.0)]:
            got = convexity_threshold(_spec(n, "transformer", beta=beta))
            expected = (n - 2.0) / (4.0 * max(beta * math.exp(beta), math.exp(beta)))
            assert got == pytest.approx(expected, rel=1e-13)

    def test_opinion_p_at_least_two(self):
        n, p = 3, 3.0
        got = convexity_threshold(_spec(n, "opinion", p=p))
        expected = (n - 2.0) / (4.0 * max(2 ** (p - 1) * p, 2 ** (p - 2) * p * (p - 1)))
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("p", [0.5, 1.5])
    def test_opinion_with_a_singular_derivative_not_applicable(self, p):
        assert convexity_threshold(_spec(3, "opinion", p=p)) is None

    def test_onsager_not_applicable(self):
        assert convexity_threshold(_spec(3, "onsager")) is None

    def test_custom_requires_bound(self):
        spec = _spec(3, "custom", profile=lambda t: t**2)
        assert convexity_threshold(spec) is None
        spec2 = _spec(3, "custom", profile=lambda t: t**2, derivative_bound=2.0)
        assert convexity_threshold(spec2) == pytest.approx(1.0 / 8.0, rel=1e-13)

    def test_zero_derivative_bound_gives_no_limit(self):
        spec = _spec(3, "custom", profile=lambda t: np.zeros_like(t), derivative_bound=0.0)
        assert convexity_threshold(spec) == math.inf

    def test_flat_heat_kernel_gives_no_limit(self):
        # e^{-k(k+1) eps} is below the series' tail tolerance for every k >= 1 at
        # eps = 30, so the series stops at k = 0 and W' = W'' = 0
        assert convexity_threshold(_spec(3, "heat", epsilon=30.0)) == math.inf

    @pytest.mark.parametrize(
        "n,eps,expected",
        [
            (3, 0.05, 0.0016534521619485255),
            (3, 0.3, 0.4829947040598102),
            (4, 0.05, 0.0026242045096539412),
            (10, 0.3, 50.49099406377821),
        ],
    )
    def test_heat_matches_gegenbauer_derivatives(self, n, eps, expected):
        # values computed from d/dt C_k^lam = 2 lam C_{k-1}^{lam+1} (Gegenbauer series)
        got = convexity_threshold(_spec(n, "heat", epsilon=eps))
        assert got == pytest.approx(expected, rel=1e-14)


# One kernel per family for the shape and argument checks; the custom W' returns
# its argument, so only a copy keeps the result apart from it.
PROFILE_SPECS = [
    _spec(4, "transformer", beta=1.5),
    _spec(3, "onsager"),
    _spec(3, "opinion", p=5.0),
    _spec(3, "opinion", p=0.5),
    _spec(3, "heat", epsilon=0.3),
    _spec(5, "custom", profile=lambda t: 0.5 * t * t, profile_derivative=lambda t: t),
]


class TestProfiles:
    def test_custom_derivative_must_be_supplied(self):
        with pytest.raises(ValueError, match="no derivative"):
            profile_derivative(_spec(3, "custom", profile=lambda t: t**2), np.zeros(3))

    def test_onsager_derivative_clamped_at_poles(self):
        vals = profile_derivative(_spec(3, "onsager"), np.array([-1.0, 1.0]))
        assert np.all(np.isfinite(vals))

    def test_onsager_derivative_closed_form(self):
        spec = _spec(3, "onsager")
        t = np.linspace(-1.0 + 1e-6, 1.0 - 1e-6, 41)
        assert np.allclose(profile_derivative(spec, t), -t / np.sqrt(1.0 - t * t), rtol=1e-14, atol=0.0)
        edge = 1.0 - 1e-9  # the clamp
        at_poles = profile_derivative(spec, np.array([-1.0, -1.5, 1.0, 1.5]))
        assert np.allclose(at_poles, np.array([1, 1, -1, -1]) * edge / np.sqrt(1.0 - edge * edge), rtol=1e-14)

    @pytest.mark.parametrize("p", [5.0, 0.5])
    def test_opinion_derivative_closed_form(self, p):
        spec = _spec(3, "opinion", p=p)
        t = np.linspace(-1.0 + 1e-6, 1.0, 41)
        assert np.allclose(profile_derivative(spec, t), -p * (1.0 + t) ** (p - 1.0), rtol=1e-14, atol=0.0)
        pole = profile_derivative(spec, np.array([-1.0]))[0]
        if p < 1.0:  # W' = -p (1+t)^(p-1) is singular at t = -1: the clamp (1+t) >= 1e-9
            assert math.isclose(pole, -p * 1e-9 ** (p - 1.0), rel_tol=1e-6)
        else:
            assert pole == 0.0

    @pytest.mark.parametrize("spec", PROFILE_SPECS, ids=lambda s: f"{s.family}-{s.p}")
    @pytest.mark.parametrize("shape", ["scalar", (), (7,), (3, 5)], ids=str)
    def test_derivative_shape_and_argument_safety(self, spec, shape):
        grid = np.random.default_rng(4).uniform(-0.95, 0.95, size=15)
        if shape == "scalar":
            t, flat = float(grid[0]), grid[:1]
        else:
            flat = grid[: int(np.prod(shape))]
            t = flat.reshape(shape).copy()
        before = np.array(t, copy=True)
        for evaluate in (profile_values, profile_derivative):
            got = evaluate(spec, t)
            assert np.shape(got) == np.shape(t)
            assert np.array_equal(t, before)  # the argument is never written
            assert not np.shares_memory(got, t)
            assert np.array_equal(np.ravel(got), evaluate(spec, flat))

    def test_transformer_profile_and_derivative(self):
        spec = _spec(3, "transformer", beta=2.0)
        t = np.linspace(-1, 1, 9)
        assert np.allclose(profile_values(spec, t), -np.exp(2 * t) / 2.0)
        assert np.allclose(profile_derivative(spec, t), -np.exp(2 * t))

    def test_heat_profile_consistent_with_series(self):
        from spheremv.harmonics import reconstruct
        from spheremv.kernels import _heat_series_coeffs

        n, eps = 3, 0.4
        spec = _spec(n, "heat", epsilon=eps)
        t = np.linspace(-1, 1, 21)
        series = reconstruct(
            ZonalCoefficients(n=n, coeffs=_heat_series_coeffs(n, eps)), t
        )
        assert np.max(np.abs(profile_values(spec, t) - series)) < 1e-12

    def test_heat_derivative_finite_difference(self):
        spec = _spec(4, "heat", epsilon=0.5)
        t = np.linspace(-0.9, 0.9, 13)
        h = 1e-6
        fd = (profile_values(spec, t + h) - profile_values(spec, t - h)) / (2 * h)
        assert np.max(np.abs(profile_derivative(spec, t) - fd)) < 1e-8

    @pytest.mark.parametrize("n,eps", [(3, 0.3), (4, 0.5), (10, 0.1)])
    def test_heat_second_derivative_finite_difference(self, n, eps):
        spec = _spec(n, "heat", epsilon=eps)
        t = np.linspace(-0.9, 0.9, 13)
        h = 1e-6
        fd = (profile_derivative(spec, t + h) - profile_derivative(spec, t - h)) / (2 * h)
        second = _heat_series(spec, t, 2)
        assert np.max(np.abs(second - fd)) < 1e-8 * max(1.0, np.max(np.abs(second)))

    def test_heat_derivatives_vanish_past_the_series(self):
        # at eps = 30 the series stops at k = 0, at eps = 10 (n = 3) at k = 1
        t = np.linspace(-1.0, 1.0, 5)
        for eps, orders in ((30.0, (1, 2)), (10.0, (2,))):
            spec = _spec(3, "heat", epsilon=eps)
            for order in orders:
                assert np.array_equal(_heat_series(spec, t, order), np.zeros_like(t))
        first = _heat_series(_spec(3, "heat", epsilon=10.0), t, 1)
        assert np.all(first == first[0]) and first[0] != 0.0  # W' of c0 + c1 t is c1

    def test_heat_derivative_on_a_block(self):
        # the particle engine evaluates W' on the (chunk, N) inner-product block
        spec = _spec(3, "heat", epsilon=0.3)
        block = np.random.default_rng(2).uniform(-1.0, 1.0, size=(5, 7))
        flat = profile_derivative(spec, block.ravel())
        assert np.array_equal(profile_derivative(spec, block), flat.reshape(block.shape))
