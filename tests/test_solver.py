import itertools
import math
import warnings

import numpy as np
import pytest

from spheremv.harmonics import ZonalCoefficients, omega_n, y_l0
from spheremv.kernels import KernelSpec, coefficients
from spheremv.meanfield import (
    free_energy,
    gamma_sharp,
    linear_spectrum,
    make_density,
    uniform_density,
)
from spheremv import solver
from spheremv.solver import (
    GibbsOperator,
    SolverConfig,
    _damped_picard,
    bifurcation_points,
    competitor_energy_gap,
    find_transition,
    gibbs_fixed_point,
    harmonic_combination,
    residual,
    resonance_check,
    trace_branch,
)
from spheremv.specfun import bessel_i, gauss_jacobi_rule

FAST = SolverConfig(K=32, M=48, max_iters=5000)
RULE3 = gauss_jacobi_rule(3, FAST.M)

ONSAGER3 = coefficients(KernelSpec(n=3, family="onsager"), FAST.K)
GAMMA_SHARP_ONSAGER = 32.0 / math.pi


def _kicked_uniform(n, rule, mode, eps, K):
    vals = (1.0 + eps * y_l0(mode, n, rule.nodes)) / omega_n(n)
    return make_density(n, rule, np.clip(vals, 1e-14, None), K)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(tau=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tau=1.5)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(K=48, M=48)
        with pytest.raises(ValueError):
            SolverConfig(tol=math.nan)
        with pytest.raises(ValueError):
            SolverConfig(tol=math.inf)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=-3)
        with pytest.raises(ValueError):
            SolverConfig(K=-1)


class TestResidual:
    def test_uniform_is_exact_fixed_point(self):
        d = uniform_density(3, RULE3, FAST.K)
        assert residual(ONSAGER3, 5.0, d) < 1e-13

    def test_single_mode_linearization(self):
        # rho_bar (1 + eps Y_k) has residual eps |1 + gamma W_hat_k| + O(eps^2)
        eps, gamma, k = 1e-5, 3.0, 2
        d = _kicked_uniform(3, RULE3, k, eps, FAST.K)
        expected = eps * abs(1.0 + gamma * ONSAGER3.coeffs[k])
        assert residual(ONSAGER3, gamma, d) == pytest.approx(expected, rel=1e-3)


class TestGibbsFixedPoint:
    def test_subcritical_returns_uniform(self):
        gamma = 0.5 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        assert result.converged and result.residual <= FAST.tol
        assert abs(result.density.dominant_mode()[1]) < 1e-8

    def test_supercritical_nonuniform_state(self):
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        assert result.converged
        mode, amp = result.density.dominant_mode()
        assert mode == 2 and abs(amp) > 0.1

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        init = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        with pytest.raises(ValueError, match="gamma"):
            gibbs_fixed_point(ONSAGER3, gamma, init, FAST)

    def test_rejects_nonpositive_gamma(self):
        init = uniform_density(3, RULE3, FAST.K)
        with pytest.raises(ValueError):
            gibbs_fixed_point(ONSAGER3, 0.0, init, FAST)

    def test_converged_state_certified_by_residual(self):
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 0.5, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        # independent recomputation of the residual on the returned density
        assert residual(ONSAGER3, gamma, result.density) <= 10 * FAST.tol

    def test_non_finite_residual_stops_at_once(self):
        kernel = coefficients(KernelSpec(n=3, family="opinion", p=5.0), 16)
        rule = gauss_jacobi_rule(3, 24)
        init = _kicked_uniform(3, rule, 1, 0.2, 16)
        op = GibbsOperator(kernel, rule, 16)
        calls = []
        evaluate = op.gibbs

        def counted(g, values):
            calls.append(g)
            return evaluate(g, values)

        op.gibbs = counted
        config = SolverConfig(K=16, M=24)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = gibbs_fixed_point(kernel, 1e308, init, config, op=op)
        assert not result.converged
        assert not math.isfinite(result.residual)
        assert result.iterations == 0 and len(calls) == 1
        assert result.message == "non-finite residual at iteration 0"
        assert np.all(np.isfinite(result.density.values))

    def test_non_finite_column_does_not_hold_the_block(self):
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        good = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        single = gibbs_fixed_point(ONSAGER3, gamma, good, FAST)
        block = np.column_stack((good.values, np.full(RULE3.order, np.nan)))
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        values, res, iters = _damped_picard(op, gamma, block, FAST)
        assert single.converged and iters == single.iterations < FAST.max_iters
        assert res[0] <= FAST.tol and math.isnan(res[1])
        assert np.allclose(values[:, 0], single.density.values, rtol=1e-9)

    def test_fixed_point_lowers_free_energy(self):
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 0.5, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        f_fp = free_energy(ONSAGER3, result.density, gamma).free_energy
        f_uni = free_energy(ONSAGER3, uniform_density(3, RULE3, FAST.K), gamma).free_energy
        assert f_fp < f_uni


class TestBifurcationPoints:
    def test_onsager_closed_form(self):
        # gamma_{2l} = 8 Gamma(l+2) Gamma(l+1) / (Gamma(l-1/2) Gamma(l+1/2))
        bif = bifurcation_points(ONSAGER3)
        got = dict(bif.points)
        for l in range(1, 6):
            expected = (
                8.0
                * math.gamma(l + 2.0)
                * math.gamma(l + 1.0)
                / (math.gamma(l - 0.5) * math.gamma(l + 0.5))
            )
            assert got[2 * l] == pytest.approx(expected, rel=1e-10)
        assert all(k % 2 == 0 for k in got)

    def test_transformer_bessel_form(self):
        n, beta = 4, 1.0
        kernel = coefficients(KernelSpec(n=n, family="transformer", beta=beta), 16)
        bif = bifurcation_points(kernel)
        got = dict(bif.points)
        amp = 2 ** (0.5 * (n - 2)) * beta ** (-0.5 * n) * math.gamma(0.5 * n)
        for k in range(1, 9):
            expected = 1.0 / (amp * bessel_i(k + 0.5 * (n - 2), beta))
            assert got[k] == pytest.approx(expected, rel=1e-11)

    def test_opinion_p2_has_exactly_modes_1_and_2(self):
        kernel = coefficients(KernelSpec(n=3, family="opinion", p=2.0), 16)
        bif = bifurcation_points(kernel)
        assert sorted(k for k, _ in bif.points) == [1, 2]

    def test_stable_kernel_raises(self):
        kernel = coefficients(KernelSpec(n=3, family="custom", profile=lambda t: t**2), 8)
        with pytest.raises(ValueError, match="stable"):
            bifurcation_points(kernel)

    def test_tied_coefficients_reported(self):
        kernel = ZonalCoefficients(n=3, coeffs=np.array([1.0, -0.5, -0.5, -0.25]))
        bif = bifurcation_points(kernel)
        assert set(bif.ties) == {1, 2}
        assert dict(bif.points) == {3: 4.0}

    def test_ties_with_mode_zero_do_not_count(self):
        bif = bifurcation_points(ZonalCoefficients(3, [-0.5, -0.5, 0.3, 0.1]))
        assert bif.points == ((1, 2.0),)
        assert bif.ties == ()

    def test_consistent_with_linear_spectrum_sign_flip(self):
        bif = bifurcation_points(ONSAGER3)
        for k, gamma_k in bif.points[:3]:
            below = linear_spectrum(ONSAGER3, gamma_k * (1 - 1e-6), k).eigenvalues[k]
            above = linear_spectrum(ONSAGER3, gamma_k * (1 + 1e-6), k).eigenvalues[k]
            assert below < 0.0 < above


class TestTraceBranch:
    def test_onsager_branch_properties(self):
        gamma2 = GAMMA_SHARP_ONSAGER
        grid = np.linspace(1.02 * gamma2, 1.5 * gamma2, 8)
        branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert diag == ""
        assert len(branch) == len(grid)
        amps = [abs(p.amplitude) for p in branch]
        assert all(p.dominant_mode == 2 for p in branch)
        assert all(np.diff(amps) > 0.0)  # amplitude grows away from the threshold
        assert all(p.residual <= FAST.tol for p in branch)
        # near the threshold the branch amplitude shrinks toward zero
        assert amps[0] < 0.25

    def test_branch_beats_uniform_free_energy(self):
        gamma2 = GAMMA_SHARP_ONSAGER
        grid = [1.1 * gamma2, 1.3 * gamma2]
        branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert diag == ""
        rule = branch[0].density.rule
        for p in branch:
            f_uni = free_energy(ONSAGER3, uniform_density(3, rule, FAST.K), p.gamma).free_energy
            assert p.free_energy < f_uni

    def test_subcritical_grid_reports_lost_branch(self):
        grid = [0.5 * GAMMA_SHARP_ONSAGER]
        branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert branch == []
        assert "branch" in diag

    def test_empty_grid(self):
        branch, diag = trace_branch(ONSAGER3, 2, [], FAST)
        assert branch == [] and diag == "empty gamma grid"

    def test_later_points_start_from_the_previous_state(self, monkeypatch):
        inits = []
        solve = solver.gibbs_fixed_point

        def spied(kernel, gamma, init, *args, **kwargs):
            inits.append((gamma, init.values.copy()))
            return solve(kernel, gamma, init, *args, **kwargs)

        monkeypatch.setattr(solver, "gibbs_fixed_point", spied)
        grid = np.linspace(1.05 * GAMMA_SHARP_ONSAGER, 1.3 * GAMMA_SHARP_ONSAGER, 4)
        branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert diag == "" and len(branch) == len(grid)
        later = [(gamma, values) for gamma, values in inits if gamma != grid[0]]
        assert [gamma for gamma, _ in later] == list(grid[1:])
        for (_, values), previous in zip(later, branch):
            assert np.array_equal(values, previous.density.values)


class TestResonance:
    def test_onsager_single_mode_witness(self):
        report = resonance_check(ONSAGER3, delta=0.0)
        assert report.satisfied
        assert report.gamma_sharp == pytest.approx(GAMMA_SHARP_ONSAGER, rel=1e-12)
        assert report.modes == (2,)
        assert report.witness_modes == (2,)
        assert abs(report.u3) > 0.5 / omega_n(3)

    def test_transformer_mode_one_fails(self):
        kernel = coefficients(KernelSpec(n=3, family="transformer", beta=1.0), 16)
        report = resonance_check(kernel, delta=0.0)
        assert not report.satisfied
        assert abs(report.u3) < 1e-10

    def test_heat_wide_band_satisfied(self):
        n, eps = 3, 0.3
        kernel = coefficients(KernelSpec(n=n, family="heat", epsilon=eps), 16)
        # modes 1..k are delta-resonant once delta >= 1 - e^{-(k(k+n-2)-(n-1)) eps}
        delta = 1.0 - math.exp(-(n + 1.0) * eps) + 1e-9
        report = resonance_check(kernel, delta=delta)
        assert 2 in report.witness_modes or report.witness_modes == (2,)
        assert abs(report.u3) > 1e-6

    def test_u3_matches_direct_quadrature(self):
        rule = gauss_jacobi_rule(3, 40)
        values, u3 = harmonic_combination(3, (2,), (1.0,), rule)
        direct = omega_n(2) / omega_n(3) * rule.integrate(values**3)  # against sigma / omega_n
        assert u3 == pytest.approx(direct, rel=1e-12)
        assert np.max(np.abs(values)) <= 1.0 + 1e-12


class TestCompetitorGap:
    def test_gap_vanishes_as_epsilon_to_zero(self):
        values, u3 = harmonic_combination(3, (2,), (1.0,), RULE3)
        gaps = [
            abs(
                competitor_energy_gap(
                    ONSAGER3, values, u3, eps, GAMMA_SHARP_ONSAGER, RULE3, FAST.K
                )
            )
            for eps in (1e-2, 1e-3, 1e-4)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-9

    def test_cubic_law_at_gamma_sharp(self):
        # at gamma_# the quadratic term cancels and the gap is
        # -(eps^3 / (6 gamma_#)) * |<u^3>| + O(eps^4)
        values, u3 = harmonic_combination(3, (2,), (1.0,), RULE3)
        predicted = -abs(u3) / (6.0 * GAMMA_SHARP_ONSAGER)
        ratios = []
        for eps in (4e-2, 2e-2, 1e-2):
            gap = competitor_energy_gap(
                ONSAGER3, values, u3, eps, GAMMA_SHARP_ONSAGER, RULE3, FAST.K
            )
            ratios.append(gap / eps**3)
        # Richardson extrapolation in eps removes the leading O(eps) error
        extrapolated = 2.0 * ratios[2] - ratios[1]
        assert extrapolated == pytest.approx(predicted, rel=0.01)
        assert all(r < 0.0 for r in ratios)

    def test_rejects_too_large_epsilon(self):
        values, u3 = harmonic_combination(3, (2,), (1.0,), RULE3)
        with pytest.raises(ValueError):
            competitor_energy_gap(ONSAGER3, values, u3, 2.5, 5.0, RULE3, FAST.K)


class TestFindTransition:
    def test_stable_kernel_reports_none(self):
        kernel = coefficients(KernelSpec(n=3, family="custom", profile=lambda t: t**2), 8)
        report = find_transition(kernel, config=FAST)
        assert report.type == "none"
        assert report.gamma_c_bracket is None

    def test_onsager_discontinuous(self):
        report = find_transition(ONSAGER3, config=FAST)
        assert report.type == "discontinuous"
        lo, hi = report.gamma_c_bracket
        assert lo < hi < GAMMA_SHARP_ONSAGER
        assert (hi - lo) / hi <= 1e-3 + 1e-12
        assert report.witness["kind"] in ("fixed-point", "competitor")

    def test_uniform_losing_below_the_grid_gives_no_bracket(self):
        # gamma_c ~ 9.338 lies below both 19 and the lower end 9.5 tried under the grid
        report = find_transition(ONSAGER3, gamma_grid=[19.0, 20.0], config=FAST)
        assert report.gamma_c_bracket is None and report.type == "none"
        assert "9.5" in report.witness["reason"]

    def test_lower_end_below_the_grid_is_certified(self):
        report = find_transition(ONSAGER3, gamma_grid=[10.0, 10.1], config=FAST)
        lo, hi = report.gamma_c_bracket
        assert 5.0 <= lo < hi <= 10.0 and (hi - lo) / hi <= 1e-3 + 1e-12
        assert lo < 9.34253 and hi > 9.33779  # overlaps the default scan's bracket
        assert report.type == "discontinuous"

    def test_scan_advances_all_seeds_as_one_block(self, monkeypatch):
        calls, first_block = [], {}
        evaluate = GibbsOperator.gibbs

        def counted(op, gamma, values):
            calls.append((gamma, values.shape))
            if gamma not in first_block:
                first_block[gamma] = values.copy()
            return evaluate(op, gamma, values)

        monkeypatch.setattr(GibbsOperator, "gibbs", counted)
        grid = np.geomspace(0.2 * GAMMA_SHARP_ONSAGER, GAMMA_SHARP_ONSAGER, 5)
        report = find_transition(ONSAGER3, gamma_grid=grid, config=FAST)
        monkeypatch.undo()
        assert report.gamma_c_bracket is not None
        assert {shape for _, shape in calls} == {(FAST.M, 16)}
        per_gamma = [(g, len(list(group))) for g, group in itertools.groupby(calls, lambda c: c[0])]
        assert len(per_gamma) == len(first_block) >= len(grid)
        for gamma, count in per_gamma:
            slowest = max(
                gibbs_fixed_point(
                    ONSAGER3, gamma, make_density(3, RULE3, column, FAST.K), FAST
                ).iterations
                for column in first_block[gamma].T
            )
            assert count == slowest + 1

    def test_json_round_trip(self):
        # the JSON document itself is tested through the CLI (TestTransition)
        kernel = coefficients(KernelSpec(n=3, family="custom", profile=lambda t: t**2), 8)
        report = find_transition(kernel, config=FAST)
        assert report.type == "none" and report.gamma_c_bracket is None
