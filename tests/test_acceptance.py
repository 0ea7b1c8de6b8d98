"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with -s to see them all).  The
particle cross-validation runs at a reduced scale by default; set
SPHEREMV_FULL_SCALE=1 for the full-size run (about two days on 2 cores).
"""

import math
import os

import numpy as np
from scipy.stats import kstest

from spheremv.harmonics import omega_n, triple_product_integral, y_l0, zonal_norm_constant
from spheremv.kernels import (
    KernelSpec,
    closed_form_coefficients,
    coefficients,
    convexity_threshold,
    quadrature_coefficients,
)
from spheremv.meanfield import gamma_sharp, linear_spectrum, make_density, uniform_density
from spheremv.particles import SimConfig, empirical_moments, order_axis, simulate
from spheremv.solver import (
    SolverConfig,
    bifurcation_points,
    competitor_energy_gap,
    find_transition,
    gibbs_fixed_point,
    harmonic_combination,
    trace_branch,
)
from spheremv.specfun import gauss_jacobi_rule

from helpers import brute_force_convolution, random_smooth_density

FAST = SolverConfig(K=32, M=48, max_iters=5000)
GAMMA_SHARP_ONSAGER = 32.0 / math.pi
FULL_SCALE = os.environ.get("SPHEREMV_FULL_SCALE") == "1"


def _criterion(num: int, passed: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def test_criterion_1_spectral_decompositions():
    worst = 0.0
    for n in (3, 4, 5, 10):
        for family, kw in (
            ("transformer", {"beta": 1.0}),
            ("onsager", {}),
            ("opinion", {"p": 5.0}),
            ("heat", {"epsilon": 0.3}),
        ):
            spec = KernelSpec(n=n, family=family, **kw)
            a = closed_form_coefficients(spec, 20).coeffs
            b = quadrature_coefficients(spec, 20, 200).coeffs
            err = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-4)))
            worst = max(worst, err)
            if not np.all(np.abs(a - b) <= np.maximum(1e-8 * np.abs(a), 1e-12)):
                _criterion(1, False, f"{family} n={n}: closed form vs quadrature err {err:.2e}")
    _criterion(1, True, f"4 families x n in {{3,4,5,10}}, k<=20; worst rel err {worst:.2e}")


def test_criterion_2_bifurcation_values():
    onsager = coefficients(KernelSpec(n=3, family="onsager"), 16)
    got = dict(bifurcation_points(onsager).points)
    ok = True
    for l in range(1, 6):
        expected = (
            8.0 * math.gamma(l + 2.0) * math.gamma(l + 1.0)
            / (math.gamma(l - 0.5) * math.gamma(l + 0.5))
        )
        ok = ok and abs(got[2 * l] - expected) <= 1e-10 * expected
    ok = ok and abs(got[2] - 32.0 / math.pi) <= 1e-10 * got[2]
    eps = 0.25
    heat = coefficients(KernelSpec(n=3, family="heat", epsilon=eps), 10)
    got_heat = dict(bifurcation_points(heat).points)
    for k in range(1, 9):
        expected = 4.0 * math.pi * math.exp(k * (k + 1.0) * eps)
        ok = ok and abs(got_heat[k] - expected) <= 1e-10 * expected
    _criterion(2, ok, "Onsager gamma_{2l} (l<=5) and heat gamma_k match closed forms to 1e-10")


def test_criterion_3_convolution_theorem():
    from spheremv.harmonics import ZonalCoefficients, reconstruct
    from spheremv.kernels import profile_values

    worst = 0.0
    for n in (3, 4):
        spec = KernelSpec(n=n, family="transformer", beta=1.2)
        kernel = coefficients(spec, 40)
        rule = gauss_jacobi_rule(n, 60)
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            density_fn = random_smooth_density(n, rng)
            d = make_density(n, rule, density_fn(rule.nodes), 40)
            t_eval = np.linspace(-0.95, 0.95, 16)
            oracle = brute_force_convolution(
                lambda s: profile_values(spec, s), density_fn, n, t_eval
            )
            conv = reconstruct(
                ZonalCoefficients(n=n, coeffs=kernel.coeffs[:41] * d.coeffs.coeffs),
                t_eval,
            )
            worst = max(worst, float(np.max(np.abs(conv - oracle))))
    _criterion(3, worst <= 1e-7, f"20 random smooth densities; worst abs error {worst:.2e}")


def test_criterion_4_linear_stability_sign_flip():
    ok = True
    for spec in (
        KernelSpec(n=3, family="onsager"),
        KernelSpec(n=3, family="heat", epsilon=0.3),
        KernelSpec(n=4, family="transformer", beta=1.0),
    ):
        kernel = coefficients(spec, 16)
        zero = linear_spectrum(kernel, 1.0, 16).eigenvalues[0]
        ok = ok and zero == 0.0
        for k, gamma_k in bifurcation_points(kernel).points:
            below = linear_spectrum(kernel, gamma_k * (1 - 1e-6), k).eigenvalues[k]
            above = linear_spectrum(kernel, gamma_k * (1 + 1e-6), k).eigenvalues[k]
            ok = ok and below < 0.0 < above
    _criterion(4, ok, "lambda_0 = 0 exactly; lambda_k flips sign across every gamma_k")


def test_criterion_5_uniqueness_regime():
    spec = KernelSpec(n=4, family="transformer", beta=1.0)
    kernel = coefficients(spec, FAST.K)
    gamma = 0.9 * convexity_threshold(spec)
    rule = gauss_jacobi_rule(4, FAST.M)
    rng = np.random.default_rng(42)
    worst_res, worst_amp = 0.0, 0.0
    for _ in range(10):
        vals = np.exp(rng.normal(scale=0.7, size=rule.order))
        seed = make_density(4, rule, vals, FAST.K)
        result = gibbs_fixed_point(kernel, gamma, seed, FAST)
        worst_res = max(worst_res, result.residual)
        worst_amp = max(worst_amp, abs(result.density.dominant_mode()[1]))
    ok = worst_res <= 1e-10 and worst_amp < 1e-7
    _criterion(
        5, ok, f"10 random seeds -> uniform; worst residual {worst_res:.1e}, amp {worst_amp:.1e}"
    )


def test_criterion_6_branch_behavior():
    kernel = coefficients(KernelSpec(n=3, family="onsager"), FAST.K)
    gamma2 = GAMMA_SHARP_ONSAGER
    grid = np.linspace(1.01 * gamma2, 1.5 * gamma2, 20)
    branch, diag = trace_branch(kernel, 2, grid, FAST)
    amps = [abs(p.amplitude) for p in branch]
    ok = (
        diag == ""
        and len(branch) == 20
        and all(p.dominant_mode == 2 for p in branch)
        and all(np.diff(amps[:5]) > 0.0)  # monotone decay toward gamma_2 from above
        and amps[0] < 0.2
        and max(p.residual for p in branch) <= 1e-9
    )
    detail = f"20 points traced; amp at 1.01*gamma_2 = {amps[0]:.3f}, max residual {max(p.residual for p in branch):.1e}" if branch else diag
    _criterion(6, ok, detail)


def test_criterion_7_discontinuous_transition():
    details = []
    ok = True
    for spec, gamma_sharp_expected in (
        (KernelSpec(n=3, family="onsager"), GAMMA_SHARP_ONSAGER),
        (KernelSpec(n=3, family="opinion", p=5.0), None),
    ):
        kernel = coefficients(spec, FAST.K)
        report = find_transition(kernel, config=FAST)
        gs = report.gamma_sharp
        lo, hi = report.gamma_c_bracket if report.gamma_c_bracket else (math.nan, math.nan)
        this_ok = (
            report.type == "discontinuous"
            and report.gamma_c_bracket is not None
            and hi < gs
            and report.witness.get("gap", 0.0) < 0.0
        )
        if gamma_sharp_expected is not None:
            this_ok = this_ok and abs(gs - gamma_sharp_expected) < 1e-10
        ok = ok and this_ok
        details.append(f"{spec.family}: gamma_c in ({lo:.5f}, {hi:.5f}) < gamma_# = {gs:.5f}")
    _criterion(7, ok, "; ".join(details))


def test_criterion_8_competitor_expansion():
    kernel = coefficients(KernelSpec(n=3, family="onsager"), FAST.K)
    rule = gauss_jacobi_rule(3, FAST.M)
    values, u3 = harmonic_combination(3, (2,), (1.0,), rule)
    predicted = -abs(u3) / (6.0 * GAMMA_SHARP_ONSAGER)
    ratios = [
        competitor_energy_gap(kernel, values, u3, eps, GAMMA_SHARP_ONSAGER, rule, FAST.K) / eps**3
        for eps in (2e-2, 1e-2)
    ]
    extrapolated = 2.0 * ratios[1] - ratios[0]  # removes the O(eps) error of the ratio
    rel = abs(extrapolated - predicted) / abs(predicted)
    _criterion(8, rel <= 0.05, f"cubic coefficient {extrapolated:.6e} vs {predicted:.6e} (rel {rel:.2%})")


def test_criterion_9_resonance_integrals():
    ok = True
    worst = 0.0
    for n in (3, 4, 5, 10):
        tp2 = triple_product_integral(2, n)
        a2 = zonal_norm_constant(2, n)
        exp2 = (
            a2**3 * 4.0 * (n - 2.0) ** 3 * math.sqrt(math.pi) * math.gamma(0.5 * (n + 1))
            / ((n + 2.0) * (n + 4.0) * math.gamma(0.5 * n - 1.0))
        )
        tp4 = triple_product_integral(4, n)
        a4 = zonal_norm_constant(4, n)
        exp4 = (
            a4**3 * (n - 2.0) ** 3 * n**4 * (n**2 - 4.0) * math.sqrt(math.pi)
            * math.gamma(0.5 * (n + 5)) / (64.0 * math.gamma(0.5 * n + 6.0))
        )
        for got, expected in ((tp2.one_d, exp2), (tp4.one_d, exp4)):
            rel = abs(got - expected) / abs(expected)
            worst = max(worst, rel)
            ok = ok and rel <= 1e-8
        for l in (1, 3, 5):
            ok = ok and abs(triple_product_integral(l, n).one_d) <= 1e-12
    _criterion(9, ok, f"l=2,4 closed forms at n in {{3,4,5,10}} (worst rel {worst:.1e}); odd l vanish")


def test_criterion_11_noise_free_smoke():
    spec = KernelSpec(
        n=3,
        family="custom",
        profile=lambda t: np.zeros_like(t),
        profile_derivative=lambda t: np.zeros_like(t),
    )
    config = SimConfig(dt=5e-3, steps=300, gamma=1.0, seed=7)
    result = simulate(spec, config, 100_000)
    t = result.ensemble.positions @ np.array([0.0, 0.0, 1.0])
    stat = kstest(t, lambda s: 0.5 * (s + 1.0))
    _criterion(
        11, stat.pvalue > 0.01, f"KS vs uniform latitude law: stat {stat.statistic:.4f}, p {stat.pvalue:.3f}"
    )


def test_criterion_10_particle_pde_cross_validation():
    gamma = 1.3 * GAMMA_SHARP_ONSAGER
    kernel = coefficients(KernelSpec(n=3, family="onsager"), FAST.K)
    rule = gauss_jacobi_rule(3, FAST.M)
    base = (1.0 + 0.3 * y_l0(2, 3, rule.nodes)) / omega_n(3)
    seed = make_density(3, rule, np.clip(base, 1e-14, None), FAST.K)
    pde = gibbs_fixed_point(kernel, gamma, seed, FAST)
    assert pde.converged
    target = pde.density.perturbation_coefficients()[2]

    spec = KernelSpec(n=3, family="onsager")
    if FULL_SCALE:
        count, sim = 20_000, SimConfig(dt=1e-3, steps=200_000, gamma=gamma, seed=11, record_every=5000)
    else:
        count, sim = 1_000, SimConfig(dt=2e-3, steps=10_000, gamma=gamma, seed=11, record_every=1000)
    result = simulate(spec, sim, count, degrees=(2,))
    axis = order_axis(result.ensemble)
    summary = empirical_moments(result.ensemble, axis, degrees=(2,))
    particle = float(summary.means[0])
    se = float(summary.standard_errors[0])
    tol = 0.05 * abs(target) + 3.0 * se
    diff = abs(particle - target)
    scale = "full" if FULL_SCALE else "reduced"
    _criterion(
        10,
        diff <= tol,
        f"{scale} scale N={count}: particle moment {particle:.4f} vs solver {target:.4f} "
        f"(diff {diff:.4f} <= tol {tol:.4f})",
    )
