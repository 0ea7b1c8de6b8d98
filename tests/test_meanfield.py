import math

import numpy as np
import pytest

from spheremv.harmonics import ZonalCoefficients, omega_n, spectral_basis, y_l0
from spheremv.kernels import KernelSpec, coefficients, profile_values
from spheremv.meanfield import (
    ZonalDensity,
    convolve,
    entropy,
    free_energy,
    free_energy_gap,
    gamma_sharp,
    interaction_energy,
    linear_spectrum,
    make_density,
    uniform_density,
)
from spheremv.specfun import gauss_jacobi_rule

from helpers import (
    brute_force_convolution,
    brute_force_interaction,
    outer_rule,
    random_smooth_density,
)


RULE3 = gauss_jacobi_rule(3, 48)
RULE4 = gauss_jacobi_rule(4, 48)


def _perturbed(n, rule, mode, eps, K=24):
    vals = 1.0 + eps * y_l0(mode, n, rule.nodes)
    return make_density(n, rule, vals, K)


class TestZonalDensity:
    def test_uniform_mass(self):
        d = uniform_density(3, RULE3, 16)
        assert d.mass() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_values(self):
        vals = np.full(RULE3.order, 1.0 / omega_n(3))
        vals[0] = -0.1
        with pytest.raises(ValueError):
            ZonalDensity(n=3, rule=RULE3, values=vals, coeffs=ZonalCoefficients(3, np.array([1.0])))

    def test_rejects_wrong_mass(self):
        vals = np.full(RULE3.order, 2.0)
        with pytest.raises(ValueError, match="mass"):
            ZonalDensity(n=3, rule=RULE3, values=vals, coeffs=ZonalCoefficients(3, np.array([2.0])))

    def test_rejects_non_finite_values(self):
        vals = np.full(RULE3.order, 1.0 / omega_n(3))
        vals[5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ZonalDensity(n=3, rule=RULE3, values=vals, coeffs=ZonalCoefficients(3, np.array([1.0])))

    def test_rejects_values_of_wrong_length(self):
        vals = np.full(RULE3.order - 1, 1.0 / omega_n(3))
        with pytest.raises(ValueError, match="rule order"):
            ZonalDensity(n=3, rule=RULE3, values=vals, coeffs=ZonalCoefficients(3, np.array([1.0])))

    def test_coefficient_cache_consistent(self):
        d = _perturbed(3, RULE3, 2, 0.3)
        from spheremv.harmonics import ZonalProfile, decompose

        re = decompose(ZonalProfile(n=3, rule=RULE3, values=d.values), d.coeffs.K)
        assert np.max(np.abs(re.coeffs - d.coeffs.coeffs)) < 1e-10

    def test_perturbation_coefficients(self):
        eps = 0.12
        d = _perturbed(4, RULE4, 3, eps)
        u = d.perturbation_coefficients()
        assert u[0] == 0.0
        assert u[3] == pytest.approx(eps, rel=1e-10)
        others = np.delete(u, 3)
        assert np.max(np.abs(others)) < 1e-10
        mode, amp = d.dominant_mode()
        assert mode == 3 and amp == pytest.approx(eps, rel=1e-10)

    def test_dominant_mode_at_zero_truncation(self):
        # at K = 0 no mode l >= 1 is kept, so the truncated perturbation is zero
        rule = gauss_jacobi_rule(3, 2)
        kicked = make_density(3, rule, 1.0 + 0.5 * y_l0(1, 3, rule.nodes), 0)
        assert uniform_density(3, rule, 0).dominant_mode() == (0, 0.0)
        assert kicked.dominant_mode() == (0, 0.0)


class TestConvolve:
    def test_uniform_gives_constant(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 16)
        d = uniform_density(3, RULE3, 16)
        conv = convolve(kernel, d)
        expected = kernel.coeffs[0]
        assert np.max(np.abs(conv.values - expected)) < 1e-12

    def test_single_mode_scaling(self):
        kernel = coefficients(KernelSpec(n=3, family="transformer", beta=1.0), 24)
        eps = 0.1
        d = _perturbed(3, RULE3, 1, eps)
        conv = convolve(kernel, d)
        from spheremv.harmonics import ZonalProfile, decompose

        cc = decompose(ZonalProfile(n=3, rule=RULE3, values=conv.values), 24)
        assert cc.coeffs[1] == pytest.approx(
            kernel.coeffs[1] * d.coeffs.coeffs[1], rel=1e-11
        )

    def test_dimension_mismatch(self):
        kernel = coefficients(KernelSpec(n=4, family="onsager"), 16)
        with pytest.raises(ValueError):
            convolve(kernel, uniform_density(3, RULE3, 16))

    def test_heat_against_nested_quadrature(self):
        spec = KernelSpec(n=3, family="heat", epsilon=0.4)
        kernel = coefficients(spec, 24)
        d = _perturbed(3, RULE3, 2, 0.1)
        t_eval = np.linspace(-0.98, 0.98, 32)
        oracle = brute_force_convolution(
            lambda s: profile_values(spec, s),
            lambda s: (1.0 + 0.1 * y_l0(2, 3, s)) / omega_n(3),
            3,
            t_eval,
        )
        from spheremv.harmonics import reconstruct

        conv_c = ZonalCoefficients(n=3, coeffs=kernel.coeffs[:25] * d.coeffs.coeffs)
        got = reconstruct(conv_c, t_eval)
        assert np.max(np.abs(got - oracle)) < 1e-8

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_densities_against_nested_quadrature(self, n):
        # spectral convolution vs brute-force double quadrature
        spec = KernelSpec(n=n, family="transformer", beta=1.2)
        kernel = coefficients(spec, 40)
        rule = gauss_jacobi_rule(n, 60)
        rng = np.random.default_rng(n)
        for _ in range(5):
            density_fn = random_smooth_density(n, rng)
            d = make_density(n, rule, density_fn(rule.nodes), 40)
            t_eval = np.linspace(-0.95, 0.95, 16)
            oracle = brute_force_convolution(
                lambda s: profile_values(spec, s), density_fn, n, t_eval
            )
            from spheremv.harmonics import reconstruct

            conv_c = ZonalCoefficients(n=n, coeffs=kernel.coeffs[:41] * d.coeffs.coeffs)
            got = reconstruct(conv_c, t_eval)
            assert np.max(np.abs(got - oracle)) < 1e-7


class TestEntropy:
    def test_uniform_is_zero(self):
        assert entropy(uniform_density(4, RULE4, 8)) == pytest.approx(0.0, abs=1e-13)

    def test_quadratic_taylor_term(self):
        eps = 1e-3
        d = _perturbed(3, RULE3, 2, eps)
        assert entropy(d) == pytest.approx(eps**2 / 2.0, abs=1e-8)

    def test_cubic_taylor_coefficient(self):
        # (E(rho(1+eps u)) - eps^2 ||u||^2/2) / eps^3 -> -<u^3>/6 in the
        # normalized measure
        u = y_l0(2, 3, RULE3.nodes)
        norm_sq = RULE3.integrate(u**2)
        u3 = RULE3.integrate(u**3)
        prev = None
        for eps in (1e-2, 1e-3, 1e-4):
            d = _perturbed(3, RULE3, 2, eps)
            cubic = (entropy(d) - 0.5 * eps**2 * norm_sq) / eps**3
            if prev is not None:
                assert abs(cubic - (-u3 / 6.0)) < abs(prev - (-u3 / 6.0)) + 1e-12
            prev = cubic
        assert prev == pytest.approx(-u3 / 6.0, rel=1e-2)

    def test_two_level_density(self):
        # smooth two-plateau density: a on the upper cap, b below, smoothed
        a_raw, b_raw, width, center = 3.0, 1.0, 25.0, 0.4
        shape = lambda t: b_raw + (a_raw - b_raw) / (1.0 + np.exp(-width * (t - center)))
        rule = gauss_jacobi_rule(3, 200)
        d = make_density(3, rule, shape(rule.nodes), 24)
        # independent evaluation with scipy quadrature on the same profile
        from scipy.integrate import quad

        mass = quad(lambda t: shape(t), -1, 1, limit=200)[0] * omega_n(2)
        val = quad(
            lambda t: shape(t) / mass * math.log(omega_n(3) * shape(t) / mass), -1, 1, limit=200
        )[0]
        expected = omega_n(2) * val
        assert entropy(d) == pytest.approx(expected, rel=1e-8)

    def test_nonpositive_gives_infinity(self):
        vals = np.full(RULE3.order, 1.0 / omega_n(3))
        vals[3] = 0.0
        vals /= omega_n(2) * RULE3.integrate(vals)
        d = make_density(3, RULE3, vals, 8)
        assert entropy(d) == math.inf


class TestInteractionEnergy:
    def test_uniform_value(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 16)
        d = uniform_density(3, RULE3, 16)
        assert interaction_energy(kernel, d) == pytest.approx(kernel.coeffs[0] / 2.0, rel=1e-12)

    def test_perturbation_identity(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 24)
        eps = 0.2
        d = _perturbed(3, RULE3, 2, eps)
        expected = 0.5 * kernel.coeffs[0] + 0.5 * kernel.coeffs[2] * eps**2
        assert interaction_energy(kernel, d) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_double_quadrature_oracle(self, n):
        spec = KernelSpec(n=n, family="transformer", beta=0.8)
        kernel = coefficients(spec, 40)
        rule = gauss_jacobi_rule(n, 60)
        rng = np.random.default_rng(17 + n)
        for _ in range(5):
            density_fn = random_smooth_density(n, rng)
            d = make_density(n, rule, density_fn(rule.nodes), 40)
            oracle = brute_force_interaction(
                lambda s: profile_values(spec, s), density_fn, n
            )
            assert interaction_energy(kernel, d) == pytest.approx(oracle, abs=1e-7)

    def test_stable_kernel_uniform_minimizes(self):
        spec = KernelSpec(n=3, family="custom", profile=lambda t: t**2)
        kernel = coefficients(spec, 16)
        base = interaction_energy(kernel, uniform_density(3, RULE3, 16))
        rng = np.random.default_rng(5)
        for _ in range(5):
            vals = np.exp(rng.normal(scale=0.5, size=RULE3.order))
            d = make_density(3, RULE3, vals, 16)
            assert interaction_energy(kernel, d) >= base - 1e-12


def _entropy_oracle(density_fn, n: int) -> float:
    """<rho log rho> against sigma / omega_n, rho = omega_n density_fn, by scipy's Gauss-Jacobi rule."""
    nodes, weights = outer_rule(n, 120)
    rho = omega_n(n) * density_fn(nodes)
    return omega_n(n - 1) / omega_n(n) * float(np.dot(weights, rho * np.log(rho)))


class TestFreeEnergyGap:
    @pytest.mark.parametrize("n", [3, 4])
    def test_nested_quadrature_oracle(self, n):
        # F(rho) - F(1) with the interaction of rho and of 1 by nested quadrature
        spec, gamma = KernelSpec(n=n, family="transformer", beta=0.8), 1.7
        kernel = coefficients(spec, 40)
        basis = spectral_basis(n, 40, 60)
        rng = np.random.default_rng(31 + n)
        profile = lambda s: profile_values(spec, s)
        uniform = brute_force_interaction(profile, lambda s: np.full_like(s, 1.0 / omega_n(n)), n)
        density_fns = [random_smooth_density(n, rng) for _ in range(3)]
        block = np.column_stack([fn(basis.rule.nodes) for fn in density_fns])
        block /= basis.rule.weights @ block
        oracles = [
            _entropy_oracle(fn, n) / gamma + brute_force_interaction(profile, fn, n) - uniform
            for fn in density_fns
        ]
        gaps = free_energy_gap(kernel, basis, gamma, block)
        assert gaps.shape == (3,)
        for j, oracle in enumerate(oracles):
            assert gaps[j] == pytest.approx(oracle, abs=1e-11)
            single = free_energy_gap(kernel, basis, gamma, block[:, j])
            assert isinstance(single, float) and single == pytest.approx(oracle, abs=1e-11)

    def test_matches_free_energy_difference(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 16)
        basis = spectral_basis(3, 16, RULE3.order)
        d = _perturbed(3, RULE3, 2, 0.4, K=16)
        expected = free_energy(kernel, d, 2.0).free_energy - free_energy(
            kernel, uniform_density(3, RULE3, 16), 2.0
        ).free_energy
        assert free_energy_gap(kernel, basis, 2.0, d.values) == pytest.approx(expected, abs=1e-14)

    def test_off_the_positive_cone_is_infinite(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        basis = spectral_basis(3, 8, RULE3.order)
        block = np.ones((RULE3.order, 3))
        block[0, 1], block[5, 2] = 0.0, -0.5
        block /= basis.rule.weights @ block
        gaps = free_energy_gap(kernel, basis, 2.0, block)
        assert gaps[0] == pytest.approx(0.0, abs=1e-14)
        assert gaps[1] == gaps[2] == math.inf

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_gamma(self, gamma):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        with pytest.raises(ValueError, match="gamma"):
            free_energy_gap(kernel, spectral_basis(3, 8, RULE3.order), gamma, np.ones(RULE3.order))


class TestFreeEnergy:
    def test_uniform_report(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        rep = free_energy(kernel, uniform_density(3, RULE3, 8), 2.0)
        assert rep.entropy == pytest.approx(0.0, abs=1e-13)
        assert rep.interaction == pytest.approx(kernel.coeffs[0] / 2.0, rel=1e-12)
        assert rep.free_energy == pytest.approx(kernel.coeffs[0] / 2.0, rel=1e-12)

    def test_monotone_in_gamma(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 16)
        d = _perturbed(3, RULE3, 2, 0.4, K=16)
        f1 = free_energy(kernel, d, 1.0).free_energy
        f2 = free_energy(kernel, d, 2.0).free_energy
        assert f1 > f2

    def test_rejects_nonpositive_gamma(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        with pytest.raises(ValueError):
            free_energy(kernel, uniform_density(3, RULE3, 8), 0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        with pytest.raises(ValueError, match="gamma"):
            free_energy(kernel, uniform_density(3, RULE3, 8), gamma)

    def test_json_report(self, capsys):
        import json

        from spheremv.cli import main

        gamma = 1.2 * 32.0 / math.pi
        argv = ["solve", "--kernel", '{"n": 3, "family": "onsager"}', "--K", "24",
                "--gamma", repr(gamma), "--mode", "2", "--format", "json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)["rows"][0]
        assert {"entropy", "interaction", "free_energy", "gamma"} <= set(data)
        assert set(data) == {
            "gamma", "mode", "amplitude", "entropy", "interaction", "free_energy", "residual",
            "iterations",
        }
        assert data["entropy"] / data["gamma"] + data["interaction"] == data["free_energy"]


class TestLinearSpectrum:
    def test_zero_mode(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        spec = linear_spectrum(kernel, 3.0, 8)
        assert spec.eigenvalues[0] == 0.0

    def test_onsager_zero_crossing(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        spec = linear_spectrum(kernel, 32.0 / math.pi, 8)
        assert spec.eigenvalues[2] == pytest.approx(0.0, abs=1e-12)

    def test_sign_above_threshold(self):
        kernel = coefficients(KernelSpec(n=4, family="heat", epsilon=0.3), 8)
        g1 = -1.0 / kernel.coeffs[1]
        spec = linear_spectrum(kernel, g1 * 1.001, 8)
        assert spec.eigenvalues[1] > 0.0

    def test_rejects_L_above_truncation(self):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        with pytest.raises(ValueError):
            linear_spectrum(kernel, 1.0, 9)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0])
    def test_rejects_invalid_gamma(self, gamma):
        kernel = coefficients(KernelSpec(n=3, family="onsager"), 8)
        with pytest.raises(ValueError, match="gamma"):
            linear_spectrum(kernel, gamma, 8)


class TestGammaSharp:
    def test_onsager(self):
        gs = gamma_sharp(coefficients(KernelSpec(n=3, family="onsager"), 16))
        assert gs.gamma == pytest.approx(32.0 / math.pi, rel=1e-12)
        assert gs.modes == (2,)

    def test_transformer_mode_one(self):
        kernel = coefficients(KernelSpec(n=4, family="transformer", beta=1.0), 16)
        gs = gamma_sharp(kernel)
        assert gs.modes == (1,)
        assert gs.gamma == pytest.approx(-1.0 / kernel.coeffs[1], rel=1e-13)

    def test_heat(self):
        eps = 0.3
        gs = gamma_sharp(coefficients(KernelSpec(n=3, family="heat", epsilon=eps), 16))
        assert gs.modes == (1,)
        assert gs.gamma == pytest.approx(4.0 * math.pi * math.exp(2.0 * eps), rel=1e-12)

    def test_stable_kernel_raises(self):
        kernel = coefficients(
            KernelSpec(n=3, family="custom", profile=lambda t: t**2), 8
        )
        with pytest.raises(ValueError, match="no instability"):
            gamma_sharp(kernel)
