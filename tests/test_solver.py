import itertools
import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import iv

from spheremv.harmonics import ZonalCoefficients, omega_n, spectral_basis, y_l0
from spheremv.kernels import KernelSpec, coefficients, kernel_spec_from_json
from spheremv.meanfield import (
    free_energy,
    free_energy_gap,
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
    _picard_alone,
    bifurcation_points,
    competitor_energy_gap,
    find_transition,
    gibbs_fixed_point,
    harmonic_combination,
    residual,
    resonance_check,
    trace_branch,
)
from spheremv.specfun import gauss_jacobi_rule

from helpers import assert_columns_solve_alone, block_solve, outer_rule

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

    def test_non_finite_column_does_not_hold_the_block(self, monkeypatch):
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        good = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        monkeypatch.setattr(solver, "_HANDOFF", 0.0)  # the block is plain Picard, and so is this solve
        single = gibbs_fixed_point(ONSAGER3, gamma, good, FAST)
        block = np.column_stack((good.values, np.full(RULE3.order, np.nan)))
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        values, res, iters = block_solve(op, gamma, block, FAST)
        assert single.converged and iters == single.iterations < FAST.max_iters
        assert res[0] <= FAST.tol and math.isnan(res[1])
        assert np.allclose(values[:, 0], single.density.values, rtol=1e-9)

    def test_yields_keep_the_callers_warnings(self):
        # the block ignores its own overflow, not one in the caller's loop body, and
        # the caller's error state holds at each yield and once the block is abandoned
        good = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        block = np.column_stack((good.values, np.full(RULE3.order, np.nan)))
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        with pytest.warns(RuntimeWarning, match="overflow"):
            for _ in _damped_picard(op, gamma, block, FAST):
                np.exp(1e3)
        with np.errstate(over="raise", invalid="raise"):
            caller = np.geterr()
            count = sum(1 for _ in _damped_picard(op, gamma, block, FAST))
            assert count == 2  # the NaN column leaves at step 0, the other one later
            for k in range(1, count + 1):
                solve = _damped_picard(op, gamma, block, FAST)
                for _ in itertools.islice(solve, k):
                    assert np.geterr() == caller
                solve.close()
                assert np.geterr() == caller

    def test_fixed_point_lowers_free_energy(self):
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 0.5, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        f_fp = free_energy(ONSAGER3, result.density, gamma).free_energy
        f_uni = free_energy(ONSAGER3, uniform_density(3, RULE3, FAST.K), gamma).free_energy
        assert f_fp < f_uni


# the canonical CLI kernels, each walked from 1.01 to 1.5 gamma_# as `spheremv branch` does
CLI_SPECS = {
    "onsager": KernelSpec(n=3, family="onsager"),
    "transformer": KernelSpec(n=4, family="transformer", beta=1.0),
    "opinion": KernelSpec(n=3, family="opinion", p=5.0),
    "heat": KernelSpec(n=3, family="heat", epsilon=0.3),
}


def _cli_walk(name, K):
    kernel = coefficients(CLI_SPECS[name], K)
    gs = gamma_sharp(kernel)
    return kernel, gs.modes[0], np.linspace(1.01 * gs.gamma, 1.5 * gs.gamma, 10)


def _plain_newton(op, gamma, values, config, steps=30):
    """Newton on the resolved moments with no guard: (iterate, residual) once the residual
    is <= tol."""
    proj = op._basin[0][: len(op.resolved_support(gamma))]
    for _ in range(steps):
        image = op.gibbs(gamma, values)
        res = op.norm(values - image)
        if res <= config.tol:
            return values, res
        a = proj @ values
        values = op.moment_image(gamma, a - np.linalg.solve(op.moment_jacobian(gamma, image), a - proj @ image))
    raise AssertionError("plain Newton did not converge")


class TestNewtonHandoff:
    def test_residual_decays_quadratically(self):
        gamma = 1.05 * GAMMA_SHARP_ONSAGER
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        seed = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        start, res, _ = _picard_alone(op, gamma, seed.values, replace(FAST, tol=1e-2))
        trail, norm = [], op.norm
        op.norm = lambda d: trail.append(norm(d)) or trail[-1]
        root, steps = solver._newton(op, gamma, start, FAST)
        assert root is not None and root[1] == trail[-1] <= FAST.tol
        assert trail[0] == res and len(trail) == steps + 1
        above_round_off = [(r, s) for r, s in zip(trail, trail[1:]) if s > 1e-13]
        assert len(above_round_off) >= 2
        assert all(s <= r * r for r, s in above_round_off)

    @pytest.mark.parametrize("name", ["onsager", "transformer", "heat"])
    def test_guard_rejects_foreign_roots(self, monkeypatch, name):
        # From the walk's first state, at its second gamma, Newton alone converges to a root
        # Picard does not reach from there: uniform (Onsager, transformer) or the mirror (heat).
        config = SolverConfig(K=48, M=72)
        kernel, mode, grid = _cli_walk(name, config.K)
        [first], _ = trace_branch(kernel, mode, grid[:1], config)
        warm, gamma = first.density, grid[1]
        monkeypatch.setattr(solver, "_HANDOFF", 0.0)
        picard = gibbs_fixed_point(kernel, gamma, warm, config)
        _, picard_amp = picard.density.dominant_mode()
        op = GibbsOperator(kernel, warm.rule, config.K)
        foreign, _ = _plain_newton(op, gamma, warm.values, config)
        _, foreign_amp = make_density(warm.n, warm.rule, foreign, config.K).dominant_mode()
        assert picard.converged and abs(foreign_amp - picard_amp) > 0.1 * abs(picard_amp)
        assert solver._newton(op, gamma, warm.values, config)[0] is None
        # handed off at the warm start itself, the rejected root leaves the plain Picard solve
        assert residual(kernel, gamma, warm) <= 1.0
        monkeypatch.setattr(solver, "_HANDOFF", 1.0)
        op = GibbsOperator(kernel, warm.rule, config.K)
        result = gibbs_fixed_point(kernel, gamma, warm, config, op=op)
        assert op.handoffs == op.rejected == 1 and result.newton_steps >= 1
        assert np.array_equal(result.density.values, picard.density.values)
        assert (result.residual, result.iterations) == (picard.residual, picard.iterations)

    def test_guard_rejects_the_unstable_uniform_state(self, monkeypatch):
        # a seed this close to uniform is handed off at once, and Newton finds uniform,
        # which repels Picard above gamma_#: |1 - tau (1 + gamma W_hat_2)| > 1
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 1e-8, FAST.K)
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST, op=op)
        assert op.handoffs == op.rejected == 1 and result.newton_steps >= 1
        # Picard's i + 1, Newton's n + 1, and the handoff iterate again as Picard resumes
        assert op.evaluations == result.iterations + 1 + result.newton_steps + 1 + 1
        monkeypatch.setattr(solver, "_HANDOFF", 0.0)
        picard = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        assert np.array_equal(result.density.values, picard.density.values)
        mode, amp = result.density.dominant_mode()
        assert result.converged and mode == 2 and abs(amp) > 0.1

    @pytest.mark.parametrize("name", sorted(CLI_SPECS))
    def test_walk_matches_picard_all_the_way(self, monkeypatch, name):
        # each later point of the walk, which takes no Picard step, is the plain Picard solve
        # warm-started from the point before it
        config = SolverConfig(K=16, M=28)
        kernel, mode, grid = _cli_walk(name, config.K)
        branch, diagnostic = trace_branch(kernel, mode, grid, config)
        assert diagnostic == "" and len(branch) == len(grid)
        monkeypatch.setattr(solver, "_HANDOFF", 0.0)
        for previous, p in zip(branch, branch[1:]):
            q = gibbs_fixed_point(kernel, p.gamma, previous.density, config)
            q_mode, q_amp = q.density.dominant_mode()
            assert q.converged and q.iterations > 0 == p.iterations
            assert p.dominant_mode == q_mode
            assert p.amplitude == pytest.approx(q_amp, rel=1e-7)  # the same mirror state
            assert np.allclose(p.density.values, q.density.values, rtol=1e-7, atol=0.0)
            assert p.residual <= config.tol

    def test_newton_out_of_steps_keeps_the_picard_solve(self, monkeypatch):
        # the handoff's Newton needs more than one step here, so a budget of one rejects
        # its root and the solve is the plain Picard solve
        gamma = 1.05 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 0.2, FAST.K)
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        accepted = gibbs_fixed_point(ONSAGER3, gamma, init, FAST, op=op)
        assert op.handoffs == 1 and op.rejected == 0 and accepted.newton_steps > 1
        monkeypatch.setattr(solver, "_NEWTON_STEPS", 1)
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST, op=op)
        assert op.handoffs == op.rejected == 1 and result.newton_steps == 1
        monkeypatch.setattr(solver, "_HANDOFF", 0.0)
        plain = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        assert np.array_equal(result.density.values, plain.density.values)
        assert (result.residual, result.iterations, result.converged, result.message) == (
            plain.residual, plain.iterations, plain.converged, plain.message)
        assert result.iterations > accepted.iterations

    def test_overflowing_guard_raises_no_warning(self):
        # at gamma = 1e300 the guard's linear test overflows; it rejects the root in silence
        op, init = GibbsOperator(ONSAGER3, RULE3, FAST.K), uniform_density(3, RULE3, FAST.K)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = gibbs_fixed_point(ONSAGER3, 1e300, init, FAST, op=op)
        assert op.handoffs == op.rejected == 1 and np.all(np.isfinite(result.density.values))

    def test_walk_to_an_overflowing_gamma_raises_no_warning(self):
        heat = coefficients(KernelSpec(n=3, family="heat", epsilon=0.3), FAST.K)
        grid = [1.05 * gamma_sharp(heat).gamma, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            branch, _ = trace_branch(heat, 1, grid, FAST)
        assert branch and branch[0].residual <= FAST.tol

    def test_singular_jacobian_keeps_the_picard_solve(self, monkeypatch):
        gamma = 1.2 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        monkeypatch.setattr(solver, "_HANDOFF", 0.0)
        plain = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        monkeypatch.undo()

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST, op=op)
        assert op.handoffs == op.rejected == 1 and result.newton_steps == 0
        assert np.array_equal(result.density.values, plain.density.values)
        assert (result.residual, result.iterations, result.converged, result.message) == (
            plain.residual, plain.iterations, plain.converged, plain.message)

    def test_start_within_tol_is_polished(self, monkeypatch):
        # a start that already meets tol still takes a step, so that the root is Newton's:
        # near gamma_2 the weak contraction leaves a plain Picard solve's error far above it
        gamma = 1.003 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, -0.01, FAST.K)
        monkeypatch.setattr(solver, "_HANDOFF", 0.0)
        picard = gibbs_fixed_point(ONSAGER3, gamma, init, replace(FAST, max_iters=20000))
        assert picard.converged and picard.residual <= FAST.tol
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        root, steps = solver._newton(op, gamma, picard.density.values, FAST)
        assert root is not None and steps >= 1 and root[1] < 1e-3 * picard.residual
        # the polished root is the fixed point Picard approaches as tol goes to 0
        tight = gibbs_fixed_point(ONSAGER3, gamma, picard.density,
                                  replace(FAST, tol=1e-15, max_iters=20000))
        assert tight.converged
        _, amp = make_density(3, RULE3, root[0], FAST.K).dominant_mode()
        _, tight_amp = tight.density.dominant_mode()
        _, picard_amp = picard.density.dominant_mode()
        assert abs(amp - tight_amp) < 1e-3 * abs(picard_amp - tight_amp)

    @pytest.mark.parametrize("scale, eps, newton, counts", [
        (0.9, 0.3, "no Newton handoff", (0, 0)), (1.05, 0.2, "Newton root accepted", (1, 0)),
        (1.2, 1e-8, "Newton root rejected", (1, 1)),
    ], ids=["certified", "accepted", "rejected"])
    def test_debug_line_says_what_became_of_the_newton_root(self, caplog, scale, eps, newton,
                                                            counts):
        init = _kicked_uniform(3, RULE3, 2, eps, FAST.K)
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        with caplog.at_level(logging.DEBUG, logger="spheremv"):
            gibbs_fixed_point(ONSAGER3, scale * GAMMA_SHARP_ONSAGER, init, FAST, op=op)
        [record] = caplog.records
        assert f"Newton steps ({newton}; " in record.getMessage()
        assert (op.handoffs, op.rejected) == counts

    def test_no_handoff_where_a_basin_ball_exists(self):
        # below gamma_# the certificate ends the solve, as before
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        init = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, 0.9 * GAMMA_SHARP_ONSAGER, init, FAST, op=op)
        assert result.converged and op.certified == 1
        assert op.handoffs == result.newton_steps == 0


class TestBasinCertificate:
    """The certified exit below gamma_#: r(gamma) and the columns it stops."""

    OPINION3 = coefficients(KernelSpec(n=3, family="opinion", p=5.0), FAST.K)

    def test_radius_vanishes_at_and_above_gamma_sharp(self):
        for kernel in (ONSAGER3, self.OPINION3):
            op = GibbsOperator(kernel, RULE3, FAST.K)
            gs = gamma_sharp(kernel).gamma
            assert op.basin_radius(0.9 * gs, FAST.tau) > 0.0
            for gamma in (gs, math.nextafter(gs, math.inf), 1.5 * gs, 1e3 * gs):
                for tau in (0.1, 0.5, 1.0):
                    assert op.basin_radius(gamma, tau) == 0.0

    def test_round_off_at_gamma_sharp_certifies_nothing(self):
        # for this W_hat_2, gamma_# W_hat_2 = -1 + 1 ulp, so q = 1 - 1e-16 at tau = 1
        w2 = -0.4290931844828499
        kernel = ZonalCoefficients(n=3, coeffs=np.array([0.0, 0.0, w2]))
        op = GibbsOperator(kernel, gauss_jacobi_rule(3, 8), 2)
        gamma = gamma_sharp(kernel).gamma
        assert abs(1.0 - (1.0 + gamma * w2)) < 1.0
        assert op.basin_radius(gamma, 1.0) == 0.0

    @pytest.mark.parametrize("gamma", [1.0, 0.2, 0.01])
    def test_radius_follows_its_formula_on_one_mode(self, gamma):
        # W_hat = (0, 0, -1/2): S = {2}, B = |W_hat_2| max_i |Y_2(t_i)|,
        # q = |1 - tau (1 + gamma W_hat_2)| and x = (1 - q) / (tau gamma B): x <= 1 at
        # gamma = 1, 1 < x < 2e at 0.2, and s is capped at 1 for the small gamma
        tau, w2 = 0.5, -0.5
        rule = gauss_jacobi_rule(3, 8)
        op = GibbsOperator(ZonalCoefficients(n=3, coeffs=np.array([0.0, 0.0, w2])), rule, 2)
        B = abs(w2) * np.max(np.abs(y_l0(2, 3, rule.nodes)))
        q = abs(1.0 - tau * (1.0 + gamma * w2))
        x = (1.0 - q) / (tau * gamma * B)
        assert (x <= 1.0, x < 2.0 * math.e) == {1.0: (True, True), 0.2: (False, True), 0.01: (False, False)}[gamma]
        # s (1 + s) e^s <= x: x e^-x / (1 + x) up to x = 1, then min(1, x / 2e)
        s = x * math.exp(-x) / (1.0 + x) if x <= 1.0 else min(1.0, x / (2.0 * math.e))
        assert op.basin_radius(gamma, tau) == pytest.approx(s / (gamma * B), rel=1e-13)

    @pytest.mark.parametrize("family", ["onsager", "opinion"])
    def test_radius_beats_the_old_constant_and_meets_its_inequality(self, family):
        # the lemma's radius against the old s = min(1, x / 3e) on a (gamma, tau) grid, and
        # s (1 + s) e^s <= x in 30-digit arithmetic at the float s = r gamma B returned
        import mpmath

        kernel = ONSAGER3 if family == "onsager" else self.OPINION3
        support = np.flatnonzero(kernel.coeffs[1:]) + 1
        w = kernel.coeffs[support]
        table = np.array([y_l0(k, 3, RULE3.nodes) for k in support])
        B = float(np.max(np.sqrt(((w[:, None] * table) ** 2).sum(axis=0))))
        op = GibbsOperator(kernel, RULE3, FAST.K)
        gs = gamma_sharp(kernel).gamma
        checked = 0
        for fraction, tau in itertools.product(
            (0.05, 0.2, 0.5, 0.8, 0.9, 0.917, 0.95, 0.99, 0.999), (0.1, 0.25, 0.5, 0.75, 1.0)
        ):
            gamma = fraction * gs
            q = float(np.max(np.abs(1.0 - tau * (1.0 + gamma * w))))
            r = op.basin_radius(gamma, tau)
            if q >= 1.0:
                assert r == 0.0
                continue
            gb = gamma * B
            x = (1.0 - q) / (tau * gb)
            old = min(1.0, (1.0 - q) / (3.0 * math.e * tau * gb)) / gb
            # (1 + x) e^x <= 2e < 3e for x <= 1; where both s are 1 they differ only by
            # the rounding of B here and in the operator
            assert r / old >= (1.5 if x <= 1.0 else 1.0 - 1e-15)
            if fraction == 0.917:  # near gamma_c the old constant was 7.5x too small
                assert r / old > 7.4
            with mpmath.workdps(30):
                s = mpmath.mpf(r) * mpmath.mpf(gamma) * mpmath.mpf(B)
                exact_x = (1 - mpmath.mpf(q)) / (mpmath.mpf(tau) * mpmath.mpf(gamma) * mpmath.mpf(B))
                assert s * (1 + s) * mpmath.exp(s) <= exact_x
            checked += 1
        assert checked >= 30

    def test_radius_stays_below_the_onsager_saddles(self):
        # The uniform state's basin cannot hold another fixed point.  Below gamma_# the
        # subcritical mode-2 branch of Onsager n = 3 has a saddle between uniform and the
        # stable state; plain Newton on the moments a = <rho, Y_k>, k in S, finds it at
        # ||a|| = 0.4824, 0.1852 and 0.03225 (0.9, 0.95, 0.99 gamma_#), 22x, 18x and 16x r.
        support = np.flatnonzero(ONSAGER3.coeffs[1:]) + 1
        w_hat = ONSAGER3.coeffs[support]
        table = np.array([y_l0(k, 3, RULE3.nodes) for k in support])
        weights = RULE3.weights
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        mode2 = list(support).index(2)

        def image(gamma, a):
            """The weighted Gibbs density p = G(a) on the nodes and its moments P_S p."""
            p = np.exp(-gamma * ((w_hat * a) @ table))
            p *= weights / (weights @ p)
            return p, table @ p

        def newton(gamma, a):
            """A root of a - P_S G(a), with the Jacobian I + gamma Cov_p(Y_S) diag(W_hat_S)."""
            for _ in range(100):
                p, mean = image(gamma, a)
                cov = (table * p) @ table.T - np.outer(mean, mean)
                a = a - np.linalg.solve(np.eye(len(a)) + gamma * cov * w_hat, a - mean)
            return a, np.linalg.norm(a - image(gamma, a)[1])

        for fraction in (0.9, 0.95, 0.99):
            gamma = fraction * GAMMA_SHARP_ONSAGER
            roots = []
            for start in (0.05, 0.2, 0.5):
                a, res = newton(gamma, start * np.eye(len(support))[mode2])
                assert res <= 1e-14
                roots.append(np.linalg.norm(a))
            saddle = min(norm for norm in roots if norm > 1e-6)
            assert saddle < 0.5
            for tau in (0.1, 0.5, 1.0):
                assert 0.0 < op.basin_radius(gamma, tau) < saddle

    def test_extreme_gamma_raises_no_warning(self):
        kernel = ZonalCoefficients(n=3, coeffs=np.array([1.0, 10.0, -5.0]))
        rule = gauss_jacobi_rule(3, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for op in (GibbsOperator(kernel, rule, 2), GibbsOperator(ONSAGER3, RULE3, FAST.K)):
                assert op.basin_radius(1e308, FAST.tau) == 0.0
                assert op.basin_radius(5e-324, FAST.tau) > 0.0
                # a numpy gamma, as a grid gives it: the squared radius overflows to inf
                assert op.basin_bound(np.float64(1e-300), FAST.tau) == math.inf

    @pytest.mark.parametrize("coeffs", [[0.7], [0.7, 0.0, 0.0, 0.0]])
    def test_empty_support_is_certified_at_once(self, coeffs):
        # K = 0, or a constant kernel: G is constant, so every start relaxes to 1
        K = len(coeffs) - 1
        kernel = ZonalCoefficients(n=3, coeffs=np.array(coeffs))
        rule = gauss_jacobi_rule(3, K + 4)
        op = GibbsOperator(kernel, rule, K)
        assert op.basin_radius(2.0, 0.5) == math.inf
        init = _kicked_uniform(3, rule, 1, 0.3, K)
        result = gibbs_fixed_point(kernel, 2.0, init, SolverConfig(K=K, M=K + 4), op=op)
        assert result.converged and result.iterations == 0
        assert result.message == "certified to relax to the uniform state at iteration 0"
        assert np.max(np.abs(result.density.values - 1.0)) <= 1e-15  # ones of unit mass

    def test_certified_solve_returns_the_uniform_state(self, monkeypatch):
        gamma = 0.5 * GAMMA_SHARP_ONSAGER
        init = _kicked_uniform(3, RULE3, 2, 0.3, FAST.K)
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        result = gibbs_fixed_point(ONSAGER3, gamma, init, FAST, op=op)
        assert result.converged and op.certified == 1
        assert result.message == f"certified to relax to the uniform state at iteration {result.iterations}"
        assert np.max(np.abs(result.density.values - 1.0)) <= 1e-15  # ones of unit mass
        assert result.residual == op.uniform_residual(gamma) <= FAST.tol
        assert residual(ONSAGER3, gamma, result.density) <= FAST.tol
        # without the certificate the same solve steps on to tol, towards 1
        monkeypatch.setattr(GibbsOperator, "basin_radius", lambda op, gamma, tau: 0.0)
        plain = gibbs_fixed_point(ONSAGER3, gamma, init, FAST)
        assert plain.converged and plain.message == ""
        assert plain.iterations > result.iterations
        assert np.max(np.abs(plain.density.values - 1.0)) < 1e-9

    def test_gram_guard_keeps_the_plain_solve(self, monkeypatch):
        # at n = 100, K = 48, M = 72 the rule's weights leave sum w Y_j Y_k off by 1e-4
        kernel = coefficients(KernelSpec(n=100, family="onsager"), 48)
        config = SolverConfig()
        rule = gauss_jacobi_rule(100, config.M)
        op = GibbsOperator(kernel, rule, config.K)
        gamma = 0.5 * gamma_sharp(kernel).gamma
        assert op.basin_radius(gamma, config.tau) == 0.0
        init = _kicked_uniform(100, rule, 2, 0.3, config.K)
        result = gibbs_fixed_point(kernel, gamma, init, config, op=op)
        monkeypatch.setattr(GibbsOperator, "basin_radius", lambda op, gamma, tau: 0.0)
        plain = gibbs_fixed_point(kernel, gamma, init, config)
        assert op.certified == 0 and result.message == plain.message
        assert result.iterations == plain.iterations and result.residual == plain.residual
        assert np.array_equal(result.density.values, plain.density.values)

    @pytest.mark.parametrize("coeffs", [None, [0.7, 0.0, 0.0]])
    def test_nan_column_is_never_certified(self, coeffs):
        kernel = ONSAGER3 if coeffs is None else ZonalCoefficients(n=3, coeffs=np.array(coeffs))
        K = kernel.K
        rule = gauss_jacobi_rule(3, K + 16)
        config = SolverConfig(K=K, M=K + 16)
        op = GibbsOperator(kernel, rule, K)
        gamma = 0.5 * GAMMA_SHARP_ONSAGER
        assert op.basin_radius(gamma, config.tau) > 0.0
        good = _kicked_uniform(3, rule, 2, 0.3, K).values
        block = np.column_stack((good, np.full(rule.order, np.nan)))
        values, res, _ = block_solve(op, gamma, block, config)
        assert np.all(values[:, 0] == 1.0) and res[0] <= config.tol
        assert math.isnan(res[1]) and np.all(np.isnan(values[:, 1]))
        assert op.certified == 1
        values, res, iters = _picard_alone(op, gamma, block[:, 1], config)
        assert math.isnan(res) and iters == 0 and np.all(np.isnan(values))
        assert op.certified == 1


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
            expected = 1.0 / (amp * iv(k + 0.5 * (n - 2), beta))
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

    def test_walk_logs_one_debug_line(self, caplog, monkeypatch):
        results, solve = [], solver.gibbs_fixed_point
        newton_calls, newton = [], solver._newton
        corrected, corrector = [], solver._arc_corrector

        def spied(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        def spied_newton(*args, **kwargs):
            newton_calls.append(newton(*args, **kwargs))
            return newton_calls[-1]

        def spied_corrector(*args):
            corrected.append(corrector(*args))
            return corrected[-1]

        monkeypatch.setattr(solver, "gibbs_fixed_point", spied)
        monkeypatch.setattr(solver, "_newton", spied_newton)
        monkeypatch.setattr(solver, "_arc_corrector", spied_corrector)
        grid = np.linspace(1.05 * GAMMA_SHARP_ONSAGER, 1.3 * GAMMA_SHARP_ONSAGER, 4)
        with caplog.at_level(logging.DEBUG, logger="spheremv"):
            branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert diag == "" and len(branch) == len(grid)
        [record] = caplog.records
        counts, ended = _walk_log(record)
        assert counts["points"] == len(branch) and ended == "whole grid"
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        assert (counts["first_resolved"], counts["last_resolved"], counts["support"]) == (
            len(op.resolved_support(grid[0])), len(op.resolved_support(grid[-1])),
            np.count_nonzero(ONSAGER3.coeffs[1:]))
        # both sides of the first point and every later point come from the arc, so the walk
        # makes no lone solve and no Picard step
        assert results == [] and [p.iterations for p in branch] == [0] * len(grid)
        assert counts["arc_points"] == len([c for c in corrected if c is not None]) >= 2
        assert counts["newton"] == sum(taken for _, taken in newton_calls)
        # one accepted _newton root per side at the first gamma and one per later gamma,
        # each after at least one step
        accepted = [taken for root, taken in newton_calls if root is not None]
        assert len(accepted) == len(grid) + 1 and min(accepted) >= 1

    def test_later_points_start_from_the_predicted_state(self, monkeypatch):
        self._check_arc_predictions(monkeypatch, solver._ARC_STEP)

    def test_long_first_step_refuses_points_past_the_first_gamma(self, monkeypatch):
        # a first step of 0.5 in a_2 corrects to points past the first gamma, which the arc
        # must refuse before it lands on every grid gamma from the predicted state
        assert self._check_arc_predictions(monkeypatch, 0.5) > 0

    @staticmethod
    def _check_arc_predictions(monkeypatch, first_step):
        # each grid gamma is `_newton` from G at the arc's prediction cut to land on it, z + h t
        # with z the last arc point or accepted root below that gamma and t its unit tangent;
        # the walk's points are the roots of one side's arc.  Returns how many corrected arc
        # points the walk refused.
        monkeypatch.setattr(solver, "_ARC_STEP", first_step)
        grid = np.linspace(1.05 * GAMMA_SHARP_ONSAGER, 1.3 * GAMMA_SHARP_ONSAGER, 4)
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        gamma_k = -1.0 / ONSAGER3.coeffs[2]
        roots, refused = {}, 0
        for sign in (+1.0, -1.0):
            roots[sign], landings, more = _arc_landings(monkeypatch, op, 2, sign, grid, FAST)
            refused += more
            for gamma, z, t, cut, start, root, _ in landings:
                # t is the unit null vector of dF/dz at z, the point or root it leaves
                _, bordered = solver._arc_system(op, z, gamma_k, t)
                assert np.max(np.abs(bordered[:-1] @ t)) <= 1e-12
                # equal up to the round-off of BLAS on differently aligned vectors
                expected = op.moment_image(gamma, z[:-1] + cut * t[:-1])
                assert 0.0 < cut and np.allclose(start, expected, rtol=1e-13, atol=0.0)
            landed = [gamma for gamma, *_, root, _ in landings if root is not None]
            assert landed == list(grid) and len(roots[sign]) == len(grid)
        branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert diag == "" and len(branch) == len(grid)
        [kept] = [sign for sign in roots if np.allclose(
            roots[sign][0][0].values, branch[0].density.values, rtol=1e-12, atol=0.0)]
        for (density, _), previous, point in zip(roots[kept], [None, *branch], branch):
            assert np.allclose(point.density.values, density.values, rtol=1e-12, atol=0.0)
            assert point.iterations == 0 and point.residual <= FAST.tol
            if previous is not None:  # the arc moved: not the previous state again
                assert not np.allclose(density.values, previous.density.values, rtol=1e-3,
                                       atol=0.0)
        return refused

    def test_rejected_root_ends_the_arc(self, caplog, monkeypatch):
        # a root rejected at every try ends the arc at that gamma: each failed Newton halves
        # the step, the arc lands again from nearer, and the walk ends there, Picard-free
        grid = np.linspace(1.05 * GAMMA_SHARP_ONSAGER, 1.3 * GAMMA_SHARP_ONSAGER, 4)
        newton, solves = solver._newton, []

        def rejected(op, gamma, values, config, **kwargs):
            return (None, 0) if gamma == grid[1] else newton(op, gamma, values, config, **kwargs)

        monkeypatch.setattr(solver, "_newton", rejected)
        monkeypatch.setattr(solver, "gibbs_fixed_point", lambda *args, **kw: solves.append(args))
        with caplog.at_level(logging.DEBUG, logger="spheremv"):
            branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert diag == f"branch lost at gamma={grid[1]} (arc ended)"
        assert len(branch) == 1 and branch[0].iterations == 0 and solves == []
        counts, ended = _walk_log(caplog.records[-1])
        assert ended == "step floor"
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        for sign in (+1.0, -1.0):
            points, landings, _ = _arc_landings(monkeypatch, op, 2, sign, grid, FAST)
            cuts = [cut for gamma, _, _, cut, *_ in landings if gamma == grid[1]]
            assert len(points) == 1 and len(cuts) > 1
            assert all(b < a for a, b in zip(cuts, cuts[1:])) and cuts[-1] < 4 * solver._ARC_FLOOR

    def test_rejected_root_halves_the_step(self, monkeypatch):
        # a root rejected once halves the step to half the cut, and the arc lands on that gamma
        # again from a nearer point: the walk takes every point from the arc
        grid = np.linspace(1.05 * GAMMA_SHARP_ONSAGER, 1.3 * GAMMA_SHARP_ONSAGER, 4)
        newton, tries = solver._newton, []

        def rejected_once(op, gamma, values, config, **kwargs):
            tries.append(gamma)
            if gamma == grid[1] and tries.count(gamma) == 1:
                return None, 0
            return newton(op, gamma, values, config, **kwargs)

        monkeypatch.setattr(solver, "_newton", rejected_once)
        branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert diag == "" and len(branch) == len(grid) and tries.count(grid[1]) == 2
        assert [p.iterations for p in branch] == [0] * len(grid)
        assert all(p.dominant_mode == 2 and p.residual <= FAST.tol for p in branch)
        tries.clear()
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        _, landings, _ = _arc_landings(monkeypatch, op, 2, +1.0, grid, FAST)
        [(first, refused), (second, root)] = [
            (cut, root) for gamma, _, _, cut, _, root, _ in landings if gamma == grid[1]]
        assert refused is None and root is not None and second < first

    @pytest.mark.parametrize("spec, mode, start", [
        (KernelSpec(n=3, family="onsager"), 4, 1.05),
        (KernelSpec(n=3, family="opinion", p=5.0), 2, 1.05),
        (KernelSpec(n=5, family="onsager"), 4, 1.5),  # a landing fails, and h is halved
    ], ids=["onsager-mode-4", "opinion-mode-2", "onsager-n5-mode-4"])
    def test_picard_unstable_branch_stays_on_its_mode(self, monkeypatch, spec, mode, start):
        # the states of a second mode of `bifurcation_points` are saddles of zonal index 1,
        # which damped Picard leaves; the arc, whose Newton has no Picard-limit test, follows
        # the branch to every point, and no step of the moments is longer than the arc walked
        config = SolverConfig(K=16, M=40)
        kernel = coefficients(spec, config.K)
        gamma_k = dict(bifurcation_points(kernel).points)[mode]
        grid = np.linspace(start * gamma_k, 3.0 * gamma_k, 6)
        branch, diag = trace_branch(kernel, mode, grid, config)
        assert diag == "" and len(branch) == len(grid)
        rule = gauss_jacobi_rule(kernel.n, config.M)
        support = np.flatnonzero(kernel.coeffs[1:]) + 1
        table = np.array([y_l0(k, kernel.n, rule.nodes) for k in support])
        moments = [table @ (rule.weights * p.density.values) for p in branch]
        for point, a in zip(branch, moments):
            assert (point.dominant_mode, point.iterations) == (mode, 0)
            assert point.residual <= config.tol
            assert _zonal_index(kernel, rule, support, a, point.gamma) == 1

        # the arc of the kept side: from each root through its points to the next prediction
        op = GibbsOperator(kernel, rule, config.K)
        assert np.array_equal(op.resolved_support(grid[-1]), support)
        landings = _kept_landings(monkeypatch, op, mode, grid, config, branch[0])
        landed = [(cut, path) for _, _, _, cut, _, root, path in landings if root is not None]
        assert len(landed) == len(grid) and (len(landings) > len(grid)) == (start > 1.05)
        for a, b, (cut, path) in zip(moments, moments[1:], landed[1:]):
            length = cut + sum(np.linalg.norm(q - p) for p, q in zip(path, path[1:]))
            assert np.linalg.norm(b - a) <= length

    def test_zonal_index_of_the_uniform_state(self):
        # the oracle of `_zonal_index`: at a = 0 the eigenvalues of dF/da are 1 + gamma W_hat_k
        config = SolverConfig(K=16, M=40)
        kernel = coefficients(KernelSpec(n=3, family="onsager"), config.K)
        rule = gauss_jacobi_rule(kernel.n, config.M)
        support = np.flatnonzero(kernel.coeffs[1:]) + 1
        gamma_2, gamma_4 = (dict(bifurcation_points(kernel).points)[k] for k in (2, 4))
        gammas = [0.5 * gamma_2, 1.5 * gamma_2, 1.05 * gamma_4]
        indices = [_zonal_index(kernel, rule, support, np.zeros(len(support)), g) for g in gammas]
        assert indices == [int(np.sum(1.0 + g * kernel.coeffs[support] < 0.0)) for g in gammas]
        assert indices == [0, 1, 2]

    def test_each_side_leaves_the_bifurcation_point(self, monkeypatch):
        # each side starts at the bifurcation point (0, gamma_1), along +e_1 or -e_1
        kernel = coefficients(CLI_SPECS["transformer"], FAST.K)
        sides, arc, corrector = [], solver._arc, solver._arc_corrector

        def spied_arc(op, mode, sign, grid, config, tally):
            sides.append((mode, sign, list(grid), []))
            yield from arc(op, mode, sign, grid, config, tally)

        def spied_corrector(op, z, tangent, gamma_k):
            sides[-1][3].append((z.copy(), tangent.copy(), gamma_k))
            return corrector(op, z, tangent, gamma_k)

        monkeypatch.setattr(solver, "_arc", spied_arc)
        monkeypatch.setattr(solver, "_arc_corrector", spied_corrector)
        g = gamma_sharp(kernel).gamma
        grid = [1.01 * g, 1.1 * g, 1.2 * g]
        branch, diag = trace_branch(kernel, 1, grid, FAST)
        assert diag == "" and len(branch) == len(grid) and branch[0].iterations == 0
        assert [side[:3] for side in sides] == [(1, +1.0, grid), (1, -1.0, grid)]
        gamma_1 = dict(bifurcation_points(kernel).points)[1]
        op = GibbsOperator(kernel, gauss_jacobi_rule(kernel.n, FAST.M), FAST.K)
        support = list(op.resolved_support(grid[-1]))
        assert len(support) < np.count_nonzero(kernel.coeffs[1:])  # the tail is dropped
        for _, sign, _, guesses in sides:
            first, tangent, gamma_k = guesses[0]
            along = np.zeros(len(support) + 1)
            along[support.index(1)] = sign
            assert gamma_k == gamma_1 and np.array_equal(tangent, along)
            assert np.array_equal(first[:-1], solver._ARC_STEP * along[:-1]) and first[-1] == 1.0

    @pytest.mark.parametrize("name", sorted(CLI_SPECS))
    def test_continued_first_point_equals_the_seeded_solve(self, name):
        # the same state, mirror side included, as the smaller-amplitude of the two lone solves
        # from the +-0.01 Y_mode seeds
        config = SolverConfig(K=48, M=72)
        kernel, mode, grid = _cli_walk(name, config.K)
        [point], diag = trace_branch(kernel, mode, grid[:1], config)
        solves = [gibbs_fixed_point(kernel, grid[0], _mirror_seed(kernel, mode, sign, config),
                                    config) for sign in (+1.0, -1.0)]
        assert all(s.converged and abs(s.density.dominant_mode()[1]) > 1e-3 for s in solves)
        seeded = min(solves, key=lambda s: abs(s.density.dominant_mode()[1]))  # first of equals
        seeded_mode, seeded_amp = seeded.density.dominant_mode()
        assert diag == ""
        assert point.iterations == 0 < seeded.iterations and point.residual <= config.tol
        assert point.dominant_mode == seeded_mode  # opinion's is 2, past its fold
        assert np.sign(point.amplitude) == np.sign(seeded_amp)
        assert point.amplitude == pytest.approx(seeded_amp, rel=1e-9, abs=0.0)
        assert np.allclose(point.density.values, seeded.density.values, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("name", sorted(CLI_SPECS))
    def test_cli_walks_take_no_picard_step(self, name):
        # the arc gives every point of the benchmark's walks, so none takes a Picard step
        config = SolverConfig(K=48, M=72)
        kernel, mode, grid = _cli_walk(name, config.K)
        branch, diag = trace_branch(kernel, mode, grid, config)
        assert diag == "" and len(branch) == len(grid)
        assert [p.iterations for p in branch] == [0] * len(grid)
        assert all(p.residual <= config.tol for p in branch)

    def test_roots_land_near_their_predictions(self, monkeypatch):
        # the arc refuses a root more than one cut step from its prediction, and these walks
        # stay well inside that: on the CLI walks and on the K = 16 walks from 1.05 gamma_k of
        # the first two modes of each kernel below, every point is a root within a fifth of the
        # cut step of the prediction it starts from
        walks = [(*_cli_walk(name, 48), SolverConfig(K=48, M=72)) for name in sorted(CLI_SPECS)]
        config = SolverConfig(K=16, M=40)
        for spec in SWEEP_SPECS:
            kernel = coefficients(spec, config.K)
            for mode, gamma_k in bifurcation_points(kernel).points[:2]:
                walks.append((kernel, mode, np.linspace(1.05 * gamma_k, 3.0 * gamma_k, 6), config))
        for kernel, mode, grid, config in walks:
            branch, _ = trace_branch(kernel, mode, grid, config)
            op = GibbsOperator(kernel, gauss_jacobi_rule(kernel.n, config.M), config.K)
            landings = _kept_landings(monkeypatch, op, mode, grid, config, branch[0])
            roots = [(z, t, cut, root) for _, z, t, cut, _, root, _ in landings if root]
            assert len(roots) == len(branch) > 0
            for (z, t, cut, (values, _)), point in zip(roots, branch):
                assert np.allclose(values, point.density.values, rtol=1e-12, atol=0.0)
                a = op._basin[0][: len(z) - 1] @ values
                assert np.linalg.norm(a - (z[:-1] + cut * t[:-1])) <= 0.2 * cut

    @pytest.mark.parametrize("spec, mode, K, M", [
        (KernelSpec(n=5, family="onsager"), 2, 48, 72),
        (KernelSpec(n=4, family="opinion", p=7.0), 1, 16, 40),
    ], ids=["onsager-n5", "opinion-n4-p7"])
    def test_both_sides_pass_a_turn_in_the_mode_moment(self, caplog, spec, mode, K, M):
        # on these walks the branch turns in a_k on the way to the first gamma; the arc
        # passes the turn on both sides, and the kept one reaches every point
        kernel = coefficients(spec, K)
        config = SolverConfig(K=K, M=M)
        gamma_k = dict(bifurcation_points(kernel).points)[mode]
        grid = np.linspace(1.05 * gamma_k, 3.0 * gamma_k, 6)
        with caplog.at_level(logging.DEBUG, logger="spheremv"):
            branch, diag = trace_branch(kernel, mode, grid, config)
        assert diag == "" and len(branch) == len(grid)
        assert [p.iterations for p in branch] == [0] * len(grid)
        counts, ended = _walk_log(caplog.records[-1])
        assert ended == "whole grid" and counts["points"] == len(grid)
        op = GibbsOperator(kernel, gauss_jacobi_rule(kernel.n, M), K)
        tally = {"newton": 0, "points": 0}
        for sign in (+1.0, -1.0):
            [(density, _)] = itertools.islice(
                solver._arc(op, mode, sign, grid, config, tally), 1)
            assert abs(density.dominant_mode()[1]) > 10 * config.tol  # not uniform

    @pytest.mark.parametrize(
        "failure", ["floor", "singular", "non-finite", "budget", "corrector", "guard"])
    def test_failed_continuation_keeps_the_seeded_walk(self, caplog, monkeypatch, failure):
        # each way the arc can fail ends the walk where it fails, with a diagnostic, no lone
        # solve and the reason in the debug line; with the arc intact the same walk covers
        # the grid
        grid = np.linspace(1.05 * GAMMA_SHARP_ONSAGER, 1.3 * GAMMA_SHARP_ONSAGER, 4)
        system, newton, solve, solves = solver._arc_system, solver._newton, gibbs_fixed_point, []
        if failure == "floor":
            monkeypatch.setattr(solver, "_arc_corrector", lambda op, z, tangent, gamma_k: None)
        elif failure == "singular":
            monkeypatch.setattr(solver, "_arc_system", lambda op, z, gamma_k, border: (
                system(op, z, gamma_k, border)[0], np.zeros((len(z), len(z)))))
        elif failure == "non-finite":
            monkeypatch.setattr(solver, "_arc_system", lambda op, z, gamma_k, border: tuple(
                v * np.nan for v in system(op, z, gamma_k, border)))
        elif failure == "budget":
            monkeypatch.setattr(solver, "_ARC_POINTS", 1)
        elif failure == "corrector":  # only a prediction already within _ARC_TOL is a point
            monkeypatch.setattr(solver, "_ARC_NEWTON", 0)
        else:  # every root at the first gamma is rejected
            monkeypatch.setattr(solver, "_newton", lambda op, gamma, values, config, **kwargs: (
                (None, 0) if gamma == grid[0] else newton(op, gamma, values, config, **kwargs)))

        def spied(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "gibbs_fixed_point", spied)
        with caplog.at_level(logging.DEBUG, logger="spheremv"):
            branch, diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert branch == [] and diag == f"branch not found at gamma={grid[0]} (arc ended)"
        assert solves == []
        counts, ended = _walk_log(caplog.records[-1])
        # one point per side within a budget of one; none where the first corrector fails;
        # the guard sees a root only once a prediction reaches the first gamma
        assert ended == {"singular": "Singular matrix", "non-finite": "non-finite continuation "
                         "iterate", "budget": "point budget"}.get(failure, "step floor")
        if failure in ("guard", "corrector"):
            assert counts["arc_points"] > 0
        else:
            assert counts["arc_points"] == (2 if failure == "budget" else 0)
        monkeypatch.undo()
        walk, walk_diag = trace_branch(ONSAGER3, 2, grid, FAST)
        assert walk_diag == "" and [p.iterations for p in walk] == [0] * len(grid)

    @pytest.mark.parametrize("spec, mode", [
        (KernelSpec(n=3, family="onsager"), 2), (KernelSpec(n=3, family="opinion", p=5.0), 1),
    ], ids=["onsager", "opinion"])
    def test_walk_from_below_reaches_the_ordered_state(self, monkeypatch, spec, mode):
        # these branches fold back below gamma_k: the arc runs down through the fold and lands
        # on each gamma on its way up, at a stable state (zonal index 0) that beats uniform
        kernel = coefficients(spec, FAST.K)
        gamma_k = dict(bifurcation_points(kernel).points)[mode]
        grid = np.linspace(0.95 * gamma_k, 1.25 * gamma_k, 4)
        solves = []
        monkeypatch.setattr(solver, "gibbs_fixed_point", lambda *args, **kw: solves.append(args))
        branch, diag = trace_branch(kernel, mode, grid, FAST)
        assert diag == "" and len(branch) == len(grid) and solves == []
        assert branch[0].dominant_mode == mode
        rule = gauss_jacobi_rule(kernel.n, FAST.M)
        basis = spectral_basis(kernel.n, FAST.K, FAST.M)
        support = np.flatnonzero(kernel.coeffs[1:]) + 1
        table = np.array([y_l0(k, kernel.n, rule.nodes) for k in support])
        for point in branch:
            assert point.iterations == 0 and point.residual <= FAST.tol
            assert free_energy_gap(kernel, basis, point.gamma, point.density.values) < 0.0
            a = table @ (rule.weights * point.density.values)
            assert _zonal_index(kernel, rule, support, a, point.gamma) == 0

    def test_supercritical_walk_from_below_ends_above_gamma(self, caplog):
        # transformer n = 4's branch rises from gamma_1 on both sides, so an arc from below
        # gamma_1 never crosses the first gamma going up: each side ends after its first
        # point, which lies above that gamma and still rises
        kernel = coefficients(CLI_SPECS["transformer"], FAST.K)
        gamma_1 = dict(bifurcation_points(kernel).points)[1]
        grid = np.linspace(0.95 * gamma_1, 1.5 * gamma_1, 4)
        with caplog.at_level(logging.DEBUG, logger="spheremv"):
            branch, diag = trace_branch(kernel, 1, grid, FAST)
        assert branch == [] and diag == f"branch not found at gamma={grid[0]} (arc ended)"
        counts, ended = _walk_log(caplog.records[-1])
        assert ended == "branch above gamma"
        assert (counts["arc_points"], counts["newton"]) == (2, 0)

    @pytest.mark.parametrize("mode", [1, 2, 3, 4], ids=["tied-1", "tied-2", "stable", "above-K"])
    def test_mode_without_a_simple_branch_runs_no_solve(self, monkeypatch, mode):
        # W_hat = (0, -0.2, -0.2, 0.05) at K = 3: modes 1 and 2 are tied, mode 3 is stable and
        # mode 4 lies above K; the walk names the mode and builds no operator to solve with
        kernel = ZonalCoefficients(n=3, coeffs=np.array([0.0, -0.2, -0.2, 0.05]))

        def built(*args, **kwargs):
            raise AssertionError("the walk built an operator or ran a solve")

        monkeypatch.setattr(solver, "GibbsOperator", built)
        monkeypatch.setattr(solver, "gibbs_fixed_point", built)
        branch, diag = trace_branch(kernel, mode, [6.0, 8.0], SolverConfig(K=3, M=8))
        assert branch == [] and diag == f"mode {mode} is not a simple unstable mode up to K=3"

    @pytest.mark.parametrize("n, K, M", [(4, 16, 40), (5, 16, 40), (4, 48, 72)])
    def test_landings_stay_within_one_cut_step(self, monkeypatch, n, K, M):
        # on these mode-4 walks from below gamma_4, Newton from a prediction at a high gamma
        # converges 67 to 123 cut steps away, on another branch; the arc takes that as a failed
        # landing, so each root it lands on lies within one cut step of its prediction
        config = SolverConfig(K=K, M=M)
        kernel = coefficients(KernelSpec(n=n, family="onsager"), K)
        gamma_4 = dict(bifurcation_points(kernel).points)[4]
        grid = np.linspace(0.95 * gamma_4, 3.0 * gamma_4, 6)
        branch, _ = trace_branch(kernel, 4, grid, config)
        op = GibbsOperator(kernel, gauss_jacobi_rule(kernel.n, M), K)
        landings = _kept_landings(monkeypatch, op, 4, grid, config, branch[0])
        roots = [(z, t, cut, root) for _, z, t, cut, _, root, _ in landings if root]
        assert len(roots) == len(branch) >= 2
        for (z, t, cut, (values, _)), point in zip(roots, branch):
            assert np.allclose(values, point.density.values, rtol=1e-12, atol=0.0)
            a = op._basin[0][: len(z) - 1] @ values
            assert np.linalg.norm(a - (z[:-1] + cut * t[:-1])) <= cut

    @pytest.mark.parametrize("grid", [
        [10.3, math.nan], [10.3, -1.0], [10.3, 10.3], [13.0, 10.3], [0.0, 10.3], [10.3, math.inf],
    ], ids=["nan", "negative", "repeated", "descending", "zero", "inf"])
    def test_rejects_bad_grids_before_any_work(self, monkeypatch, grid):
        monkeypatch.setattr(solver, "gauss_jacobi_rule", lambda *args: pytest.fail("rule built"))
        with pytest.raises(ValueError, match="gamma grid must be positive, finite and strictly"):
            trace_branch(ONSAGER3, 2, grid, FAST)


SWEEP_SPECS = [
    KernelSpec(n=3, family="onsager"), KernelSpec(n=4, family="onsager"),
    KernelSpec(n=5, family="onsager"), KernelSpec(n=4, family="transformer", beta=1.0),
    KernelSpec(n=16, family="transformer", beta=2.0), KernelSpec(n=3, family="opinion", p=5.0),
    KernelSpec(n=3, family="opinion", p=3.0), KernelSpec(n=4, family="opinion", p=7.0),
    KernelSpec(n=3, family="heat", epsilon=0.3),
]


def _walk_log(record):
    """({name: count}, end reason) of `trace_branch`'s debug line."""
    counts, ended = record.getMessage().split("; ended: ")
    names = ("points", "newton", "arc_points", "first_resolved", "last_resolved", "support")
    values = [int(word) for word in counts.replace(",", "").split() if word.isdigit()]
    assert len(values) == len(names)
    return dict(zip(names, values)), ended


def _arc_landings(monkeypatch, op, mode, sign, grid, config):
    """One side's `_arc` along the grid, spied: (its points, landings, refused points).

    There is one landing per `_newton` call at a grid gamma: (gamma, z, t, cut, start, root,
    path), with z the last arc point or root below gamma and t its unit tangent, so that the
    prediction cut to land on gamma is z + cut t; start is the state `_newton` ran from, root
    its (values, residual) where the arc landed on it, else None, and path the root that the
    arc last left (first the bifurcation point) and the arc points accepted since, z last.
    A root is landed on when the arc restarts from it, that is when a tangent follows it.  A
    refused point is a corrected point that the arc did not take because it crossed the next
    gamma."""
    events = []
    newton, corrector, tangent = solver._newton, solver._arc_corrector, solver._arc_tangent

    def spied_newton(op, gamma, values, config, **kwargs):
        out = newton(op, gamma, values, config, **kwargs)
        events.append(("newton", gamma, values.copy(), out[0]))
        return out

    def spied_corrector(*args):
        out = corrector(*args)
        events.append(("point", None if out is None else out[0].copy()))
        return out

    def spied_tangent(bordered):
        events.append(("tangent", tangent(bordered)))
        return events[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_newton", spied_newton)
        patch.setattr(solver, "_arc_corrector", spied_corrector)
        patch.setattr(solver, "_arc_tangent", spied_tangent)
        points = list(solver._arc(op, mode, sign, grid, config, {"newton": 0, "points": 0}))
    j = list(op._support).index(mode)
    gamma_k = -1.0 / op._w_support[j]
    support = op.resolved_support(max(grid[-1], gamma_k))
    z, t = np.zeros(len(support) + 1), np.zeros(len(support) + 1)
    z[-1], t[j] = 1.0, sign
    landings, path, refused, previous = [], [z], 0, None
    for event, following in zip(events, events[1:] + [("end",)]):
        if event[0] == "tangent":
            if previous[0] == "point":  # an accepted point: its tangent comes next
                z = previous[1]
                path.append(z)
            t = event[1]
        elif event[0] == "point":
            refused += previous is not None and previous[0] == "point" and (
                previous[1] is not None)
        else:
            _, gamma, start, root = event
            root = root if following[0] == "tangent" else None
            cut = (gamma / gamma_k - z[-1]) / t[-1]
            landings.append((gamma, z, t, cut, start, root, list(path)))
            if root is not None:
                z = np.append(op._basin[0][: len(support)] @ root[0], gamma / gamma_k)
                path = [z]
        previous = event
    return points, landings, refused


def _kept_landings(monkeypatch, op, mode, grid, config, first):
    """The `_arc_landings` of the side whose first point is the walk's first point."""
    sides = [_arc_landings(monkeypatch, op, mode, sign, grid, config) for sign in (1.0, -1.0)]
    [landings] = [landings for points, landings, _ in sides
                  if points and np.array_equal(points[0][0].values, first.density.values)]
    return landings


def _zonal_index(kernel, rule, support, a, gamma, h=1e-6):
    """The zonal index of the fixed point a at gamma: the number of eigenvalues of dF/da with
    negative real part, F from `_moment_map` and dF/da by central differences.  Damped Picard
    leaves a fixed point of index >= 1."""
    jac = np.empty((len(a), len(a)))
    for col in range(len(a)):
        up, down = a.copy(), a.copy()
        up[col] += h
        down[col] -= h
        jac[:, col] = (_moment_map(kernel, rule, support, up, gamma)[0]
                       - _moment_map(kernel, rule, support, down, gamma)[0]) / (2 * h)
    return int(np.sum(np.linalg.eigvals(jac).real < 0.0))


def _mirror_seed(kernel, mode, sign, config):
    """The uniform state kicked by sign * 0.01 Y_mode, the oracle's seeds of a walk's first
    point."""
    rule = gauss_jacobi_rule(kernel.n, config.M)
    base = 1.0 / rule.integrate(np.ones(rule.order))
    values = np.clip(base + sign * 0.01 * y_l0(mode, kernel.n, rule.nodes), 1e-14, None)
    return make_density(kernel.n, rule, values, config.K)


class TestMomentTangent:
    @pytest.mark.parametrize("name, mode", [("onsager", 2), ("transformer", 1)])
    def test_tangent_matches_central_differences(self, name, mode):
        # the arc's unit tangent (v_a, v_s) at a fixed point, s = gamma / gamma_k, against the
        # moments of the solves at gamma -+ h: v_a / (gamma_k v_s) is da/dgamma
        kernel = coefficients(CLI_SPECS[name], FAST.K)
        n = kernel.n
        rule = gauss_jacobi_rule(n, FAST.M)
        gamma = 1.2 * gamma_sharp(kernel).gamma
        seed = make_density(n, rule, np.clip(1.0 + 0.3 * y_l0(mode, n, rule.nodes), 1e-14, None),
                            FAST.K)
        state = gibbs_fixed_point(kernel, gamma, seed, FAST)
        assert state.converged and state.density.dominant_mode()[0] == mode
        op = GibbsOperator(kernel, rule, FAST.K)
        support = op.resolved_support(gamma)

        def moments(density):
            return np.array([rule.integrate(y_l0(k, n, rule.nodes) * density.values)
                             for k in support])

        gamma_k = -1.0 / kernel.coeffs[mode]
        previous = np.zeros(len(support) + 1)
        previous[-1] = 1.0  # oriented toward growing gamma
        z = np.append(moments(state.density), gamma / gamma_k)
        _, bordered = solver._arc_system(op, z, gamma_k, previous)
        t = solver._arc_tangent(bordered)
        assert np.linalg.norm(t) == pytest.approx(1.0, rel=1e-14) and t[-1] > 0.0
        assert np.max(np.abs(bordered[:-1] @ t)) <= 1e-12  # a null vector of dF/dz
        tangent = t[:-1] / (gamma_k * t[-1])
        h = 1e-4 * gamma
        up, down = (gibbs_fixed_point(kernel, gamma + s * h, state.density, FAST) for s in (1, -1))
        assert up.converged and down.converged
        differences = (moments(up.density) - moments(down.density)) / (2.0 * h)
        # the central difference is good to O(h^2), about 1e-7 of the tangent here
        assert np.max(np.abs(tangent - differences)) <= 1e-6 * np.max(np.abs(tangent))
        assert np.max(np.abs(tangent)) > 0.1
        # the other orientation gives the opposite tangent
        bordered[-1] = -previous
        assert np.allclose(solver._arc_tangent(bordered), -t, rtol=0.0, atol=1e-14)


def _moment_map(kernel, rule, support, a, gamma):
    """F(a, gamma) = a - P_S G(a, gamma), G and the moments by `y_l0` quadrature, and G itself."""
    table = np.array([y_l0(k, kernel.n, rule.nodes) for k in support])
    u = -gamma * (kernel.coeffs[support] * a) @ table
    p = np.exp(u - u.max())
    p /= rule.integrate(p)
    return a - table @ (rule.weights * p), p


class TestContinuation:
    @pytest.mark.parametrize("name, mode", [("onsager", 2), ("transformer", 1)])
    def test_jacobian_matches_central_differences(self, name, mode):
        # the bordered Jacobian [dF/dz; border] in z = (a, gamma / gamma_k), at a moment vector
        # that is no fixed point, so that a and P_S G(a) differ
        kernel = coefficients(CLI_SPECS[name], FAST.K)
        rule = gauss_jacobi_rule(kernel.n, FAST.M)
        op = GibbsOperator(kernel, rule, FAST.K)
        gamma = 1.2 * gamma_sharp(kernel).gamma
        support = op.resolved_support(gamma)
        j = list(support).index(mode)
        rng = np.random.default_rng(3)
        a = 0.05 * rng.standard_normal(len(support)) / np.arange(1, len(support) + 1)
        a[j] = 0.3
        gamma_k = -1.0 / kernel.coeffs[mode]
        z, border = np.append(a, gamma / gamma_k), rng.standard_normal(len(support) + 1)
        f, jac = solver._arc_system(op, z, gamma_k, border)
        assert jac.shape == (len(z), len(z)) and np.array_equal(jac[-1], border)
        f_oracle, p = _moment_map(kernel, rule, support, a, gamma)
        assert np.allclose(f, f_oracle, rtol=0.0, atol=1e-13)
        assert np.max(np.abs(f)) > 0.01  # far from a fixed point
        h, differences = 1e-6, np.empty((len(support), len(z)))
        for col in range(len(z)):  # the last column is the derivative in gamma / gamma_k
            up, down = z.copy(), z.copy()
            up[col] += h
            down[col] -= h
            differences[:, col] = (
                _moment_map(kernel, rule, support, up[:-1], gamma_k * up[-1])[0]
                - _moment_map(kernel, rule, support, down[:-1], gamma_k * down[-1])[0]) / (2 * h)
        # central differences are good to O(h^2) and round-off eps / h, about 1e-10 here
        assert np.max(np.abs(jac[:-1] - differences)) <= 1e-8
        assert np.max(np.abs(jac[:-1, -1])) > 1e-3

    @pytest.mark.parametrize("name", ["onsager", "opinion"])
    def test_closed_form_gap_at_every_continued_point(self, monkeypatch, name):
        # F(rho) - F(1) = -1/2 sum W_hat_k a_k^2 - (1/gamma) log <exp(-gamma sum W_hat_k a_k Y_k)>
        # at a fixed point rho with moments a; both walks pass a fold on the way to gamma_0
        kernel = coefficients(CLI_SPECS[name], FAST.K)
        gs = gamma_sharp(kernel)
        mode, gamma_0 = gs.modes[0], 1.01 * gs.gamma
        gamma_k = -1.0 / kernel.coeffs[mode]
        rule = gauss_jacobi_rule(kernel.n, FAST.M)
        support = GibbsOperator(kernel, rule, FAST.K).resolved_support(gamma_0)
        points, roots, corrector, newton = [], [], solver._arc_corrector, solver._newton

        def spied_corrector(*args):
            out = corrector(*args)
            points.extend([] if out is None else [out[0]])
            return out

        def spied_newton(*args, **kwargs):
            out = newton(*args, **kwargs)
            roots.append(out[0])
            return out

        monkeypatch.setattr(solver, "_arc_corrector", spied_corrector)
        monkeypatch.setattr(solver, "_newton", spied_newton)
        [point], diag = trace_branch(kernel, mode, [gamma_0], FAST)
        assert diag == "" and point.iterations == 0 and len(roots) == 2 and None not in roots
        assert min(z[-1] for z in points) < 1.0  # below gamma_k: a fold
        table = np.array([y_l0(k, kernel.n, rule.nodes) for k in support])
        states = [(z[:-1], gamma_k * z[-1]) for z in points]
        states += [(table @ (rule.weights * values), gamma_0) for values, _ in roots]
        basis = spectral_basis(kernel.n, FAST.K, FAST.M)
        for a, gamma in states:
            f, p = _moment_map(kernel, rule, support, a, gamma)
            assert np.linalg.norm(f) <= solver._ARC_TOL
            w_a = kernel.coeffs[support] * a
            u = -gamma * w_a @ table
            closed = -0.5 * w_a @ a - (u.max() + math.log(rule.integrate(np.exp(u - u.max())))) / gamma
            gap = free_energy_gap(kernel, basis, gamma, p)
            assert gap == pytest.approx(closed, rel=1e-10, abs=1e-13)
        assert min(free_energy_gap(kernel, basis, gamma_0, values) for values, _ in roots) < 0.0


def _tail_bounds(kernel, rule, support, gamma):
    """gamma sum_{j in S, j >= k} |W_hat_j| h_j^2 for each k in S, with h_j = max_i |Y_j(t_i)|
    from `y_l0` on the rule's nodes."""
    sup = np.array([np.max(np.abs(y_l0(k, kernel.n, rule.nodes))) for k in support])
    terms = gamma * np.abs(kernel.coeffs[support]) * sup * sup
    return np.array([terms[i:].sum() for i in range(len(support))])


def _polished(moment_map, jacobian, a, steps=4):
    """Newton a <- a - J(p)^-1 F(a) from a: (||F||, p = G(a)) at its best iterate."""
    best = None
    for _ in range(steps):
        f, p = moment_map(a)
        if best is None or np.linalg.norm(f) < best[0]:
            best = (np.linalg.norm(f), p)
        a = a - np.linalg.solve(jacobian(p), f)
    return best


@st.composite
def _tailed_kernels(draw):
    """(heat or transformer kernel spec, gamma / gamma_#): kernels whose W_hat_k decay
    super-exponentially, so that the resolved support drops a tail."""
    if draw(st.booleans()):
        spec = KernelSpec(n=draw(st.sampled_from((3, 4, 5))), family="heat",
                          epsilon=draw(st.floats(0.1, 1.0)))
    else:
        spec = KernelSpec(n=draw(st.sampled_from((3, 4, 8, 16))), family="transformer",
                          beta=draw(st.floats(0.5, 4.0)))
    return spec, draw(st.floats(1.01, 3.0))


class TestResolvedSupport:
    @settings(max_examples=30, deadline=None)
    @given(_tailed_kernels())
    def test_resolved_root_is_the_full_root(self, case):
        # the tail that Newton leaves out moves G by less than one rounding of exp, so the
        # root of the resolved system is the root of the system on all of S
        spec, scale = case
        config = SolverConfig(K=48, M=72)
        kernel = coefficients(spec, config.K)
        gs = gamma_sharp(kernel)
        gamma = scale * gs.gamma
        rule = gauss_jacobi_rule(kernel.n, config.M)
        op = GibbsOperator(kernel, rule, config.K)
        support = np.flatnonzero(kernel.coeffs[1:]) + 1
        resolved = op.resolved_support(gamma)
        # S_gamma is the shortest prefix of S whose dropped tail is bounded by 2^-53
        bounds = np.append(_tail_bounds(kernel, rule, support, gamma), 0.0)
        size = len(resolved)
        assert np.array_equal(resolved, support[:size]) and size < len(support)
        assert bounds[size] <= 2.0**-53 < bounds[size - 1]

        # every root that the arc's Newton accepts in a one-point walk, on both sides
        roots, newton = [], solver._newton

        def spied(*args, **kwargs):
            out = newton(*args, **kwargs)
            roots.extend([] if out[0] is None else [out[0][0]])
            return out

        solver._newton = spied
        try:
            trace_branch(kernel, gs.modes[0], [gamma], config)
        finally:
            solver._newton = newton
        # at n >= 8 and large beta the states collapse onto the nodes (dominant mode near
        # K), where the guard may reject every root
        assume(roots or spec.n < 8)
        assert roots
        table = np.array([y_l0(k, kernel.n, rule.nodes) for k in support])
        for root in roots:
            # the dropped field at the root is within the bound: |a_k| <= h_k
            a = table @ (rule.weights * root)
            tail = gamma * (kernel.coeffs[support[size:]] * a[size:]) @ table[size:]
            assert np.max(np.abs(tail), initial=0.0) <= bounds[size]

            proj = op._basin[0][:size]
            res_r, p_r = _polished(lambda b: (b - proj @ op.moment_image(gamma, b),
                                              op.moment_image(gamma, b)),
                                   lambda p: op.moment_jacobian(gamma, p), proj @ root)

            def full_jacobian(p):
                mean = table @ (rule.weights * p)
                cov = (table * (rule.weights * p)) @ table.T - np.outer(mean, mean)
                return np.eye(len(support)) + gamma * cov * kernel.coeffs[support]

            res_f, p_f = _polished(lambda b: _moment_map(kernel, rule, support, b, gamma),
                                   full_jacobian, a)
            assert max(res_r, res_f) <= 1e-13 * np.max(np.abs(p_f))
            assert np.max(np.abs(p_r - p_f)) <= 1e-12 * np.max(np.abs(p_f))

    @pytest.mark.parametrize("spec", [
        KernelSpec(n=3, family="onsager"), KernelSpec(n=3, family="opinion", p=5.0),
        KernelSpec(n=4, family="transformer", beta=1.0),
        KernelSpec(n=3, family="heat", epsilon=0.3),
        kernel_spec_from_json(
            '{"n": 3, "family": "custom", "profile": [[-1, 1.0], [0, -0.5], [1, -2.0]]}'),
    ], ids=lambda spec: spec.family)
    def test_basin_radius_keeps_the_whole_support(self, spec):
        # the basin proof runs over every mode of S, so a dropped tail must not enter it
        kernel = coefficients(spec, FAST.K)
        rule = gauss_jacobi_rule(kernel.n, FAST.M)
        support = np.flatnonzero(kernel.coeffs[1:]) + 1
        w = kernel.coeffs[support]
        table = np.array([y_l0(k, kernel.n, rule.nodes) for k in support])
        sup_bound = np.max(np.sqrt(((w[:, None] * table) ** 2).sum(axis=0)))
        op = GibbsOperator(kernel, rule, FAST.K)
        gs = gamma_sharp(kernel).gamma
        for gamma, tau in itertools.product((0.3 * gs, 0.9 * gs), (0.5, 1.0)):
            q = np.max(np.abs(1.0 - tau * (1.0 + gamma * w)))
            gb = gamma * sup_bound
            x = (1.0 - q) / (tau * gb)
            s = x * math.exp(-x) / (1.0 + x) if x <= 1.0 else min(1.0, x / (2.0 * math.e))
            radius = s / gb
            assert op.basin_radius(gamma, tau) == pytest.approx(radius, rel=1e-12)
        if spec.family in ("heat", "transformer"):
            assert len(op.resolved_support(gs)) < len(support)
        else:
            assert np.array_equal(op.resolved_support(1.5 * gs), support)

    def test_no_tail_sums_while_the_debug_line_is_off(self, caplog, monkeypatch):
        # a solve at 0.5 gamma_# from uniform takes no Picard or Newton step, so only a debug
        # line would read its resolved support; with the line off the tail sums are not built.
        # A walk there runs its arc on the resolved support, so it builds them on its own
        # operator
        config = SolverConfig(K=48, M=72)
        kernel = coefficients(CLI_SPECS["heat"], config.K)
        rule = gauss_jacobi_rule(kernel.n, config.M)
        gamma = 0.5 * gamma_sharp(kernel).gamma
        built, tail_sums = [], GibbsOperator._tail_sums.func
        monkeypatch.setattr(GibbsOperator, "_tail_sums",
                            property(lambda op: built.append(op) or tail_sums(op)))
        caplog.set_level(logging.INFO, logger="spheremv")
        op = GibbsOperator(kernel, rule, config.K)
        uniform = uniform_density(kernel.n, rule, config.K)
        result = gibbs_fixed_point(kernel, gamma, uniform, config, op=op)
        assert result.converged and (result.iterations, result.newton_steps) == (0, 0)
        assert built == []
        assert trace_branch(kernel, 1, [gamma], config)[0] == []  # the arc rises past gamma
        assert built and op not in built
        built.clear()
        with caplog.at_level(logging.DEBUG, logger="spheremv"):
            gibbs_fixed_point(kernel, gamma, uniform, config, op=op)
        assert built == [op]


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

    def test_near_tie_searched_like_gamma_sharp(self):
        # W_hat_4 ties W_hat_2 within the coefficient tolerance, as gamma_sharp sees it
        exact = ZonalCoefficients(n=3, coeffs=np.r_[1.0, 0.0, -0.1, 0.0, -0.1, 0.0, 0.0, 0.0, 0.0])
        near = ZonalCoefficients(n=3, coeffs=exact.coeffs + np.eye(9)[4] * 5e-13)
        assert gamma_sharp(near).modes == (2, 4)
        report, tie = resonance_check(near, delta=0.0), resonance_check(exact, delta=0.0)
        assert report.modes == (2, 4)
        assert report.witness_modes == tie.witness_modes == (2, 4)
        assert report.u3 == pytest.approx(tie.u3, rel=1e-12)
        assert abs(report.u3) > 0.059

    def test_u3_matches_direct_quadrature(self):
        rule = gauss_jacobi_rule(3, 40)
        values, u3 = harmonic_combination(3, (2,), (1.0,), rule)
        _, weights = outer_rule(3, 40)  # the same nodes, weights from scipy
        direct = omega_n(2) / omega_n(3) * np.dot(weights, values**3)  # against sigma / omega_n
        assert u3 == pytest.approx(direct, rel=1e-12)
        assert np.max(np.abs(values)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("delta", [-0.1, math.nan, 1.0, 1.5, math.inf])
    def test_rejects_bandwidth_outside_unit_interval(self, delta):
        # delta < 0 or NaN leaves no resonant mode; delta >= 1 counts stable ones
        with pytest.raises(ValueError, match="bandwidth delta"):
            resonance_check(ONSAGER3, delta=delta)


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

    def test_competitor_witness(self):
        # with one Picard step no seed settles, so only the cubic competitor can win
        config = SolverConfig(K=16, M=28, max_iters=1)
        kernel = coefficients(KernelSpec(n=3, family="onsager"), config.K)
        report = find_transition(kernel, config=config)
        assert report.type == "continuous-candidate"
        assert report.gamma_c_bracket == (10.17053242039821, 10.175660399559241)
        witness, hi = report.witness, report.gamma_c_bracket[1]
        assert witness["kind"] == "competitor" and witness["gap"] < -solver._GAP_TOL
        reso = resonance_check(kernel, delta=0.0)
        rule = gauss_jacobi_rule(3, config.M)
        values, u3 = harmonic_combination(3, reso.witness_modes, reso.witness_coeffs, rule)
        assert (witness["u3"], witness["epsilon"]) == (u3, min(0.5, abs(u3) / 4.0))
        gap = competitor_energy_gap(kernel, values, u3, witness["epsilon"], hi, rule, config.K)
        assert witness["gap"] == pytest.approx(gap, rel=1e-12)

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
        # the 16 seeds of each of up to 16 gammas are one Picard block and each column
        # leaves it at its own stop; a bisection round solves the midpoints of the
        # pruned dyadic refinement of its bracket, four levels deep, as one block
        grid = np.geomspace(0.2 * GAMMA_SHARP_ONSAGER, GAMMA_SHARP_ONSAGER, 5)
        evaluate, solve, gap = GibbsOperator.gibbs, solver._damped_picard, solver.free_energy_gap

        def scan(width):
            blocks, shapes, scored = [], [], []

            def gibbs(op, gamma, values):
                shapes.append(values.shape)
                return evaluate(op, gamma, values)

            def damped_picard(op, gamma, values, config):
                blocks.append({"gammas": gamma, "seeds": values, "scored": [], "seeds_scored": []})
                for state in solve(op, gamma, values, config):
                    blocks[-1]["last"] = state  # the last yield the scan reads
                    yield state

            def free_energy_gap(kernel, basis, gamma, values):
                # the competitor's call takes one density and is made at every scored gamma;
                # the seeds' call comes before it, where a settled seed is not certified
                if values.ndim == 1:
                    scored.append(gamma)
                    blocks[-1]["scored"].append(gamma)
                else:
                    blocks[-1]["seeds_scored"].append((gamma, values.shape[1]))
                return gap(kernel, basis, gamma, values)

            with monkeypatch.context() as patch:
                patch.setattr(solver, "_GROUP_WIDTH", width)
                patch.setattr(GibbsOperator, "gibbs", gibbs)
                patch.setattr(solver, "_damped_picard", damped_picard)
                patch.setattr(solver, "free_energy_gap", free_energy_gap)
                report = find_transition(ONSAGER3, gamma_grid=grid, config=FAST)
            return report, blocks, shapes, scored

        report, blocks, shapes, scored = scan(16)
        # one gamma per block scores the same gammas and gives the same bracket
        one_by_one, _, _, one_by_one_scored = scan(1)
        assert report.gamma_c_bracket == one_by_one.gamma_c_bracket
        assert report.type == one_by_one.type
        assert report.witness["seed"] == one_by_one.witness["seed"]
        assert scored == one_by_one_scored

        assert {shape[0] for shape in shapes} == {FAST.M}
        assert shapes[0][1] == 16 * min(16, len(grid))  # the first block holds the grid
        rounds = [list(dict.fromkeys(block["gammas"].tolist())) for block in blocks]
        assert rounds.pop(0) == list(grid)
        # the first round's bracket is the grid interval around its midpoints; each
        # round scores its midpoints in order up to the first winner, the new hi
        midpoints = [gamma for gamma in scored if gamma not in grid]
        lo = max(gamma for gamma in grid if gamma < rounds[0][0])
        hi = min(gamma for gamma in grid if gamma > rounds[0][0])
        for k, solved in enumerate(rounds):
            points = [lo, hi]
            for _ in range(4):
                points = sorted(points + [
                    0.5 * (l + h) for l, h in zip(points, points[1:]) if (h - l) / h > solver._BRACKET_RTOL
                ])
            assert solved == points[1:-1]
            if k + 1 < len(rounds):
                lo = max(gamma for gamma in points if gamma < rounds[k + 1][0])
                hi = min(gamma for gamma in points if gamma > rounds[k + 1][0])
            else:
                lo, hi = report.gamma_c_bracket
            assert points.index(hi) == points.index(lo) + 1
            walked = solved[: points.index(hi)]
            assert midpoints[: len(walked)] == walked
            del midpoints[: len(walked)]
        assert not midpoints
        # every column that has left a block is its lone solve; the scan leaves a block
        # once its gammas up to the first winner (all of them when none wins) have
        # stopped and are scored
        op = GibbsOperator(ONSAGER3, RULE3, FAST.K)
        for block in blocks:
            values, res, stopped, steps = block["last"]
            gammas, seeds, last = block["gammas"], block["seeds"], max(block["scored"])
            left = (values[:, stopped], res[stopped], steps)
            alone = assert_columns_solve_alone(op, ONSAGER3, gammas[stopped], seeds[:, stopped], FAST, left)
            assert stopped[gammas <= last].all()
            assert steps == max(n for g, (_, _, n) in zip(gammas[stopped], alone) if g <= last)
            # the seeds' call scores the whole settled block of each gamma where a settled
            # seed is not certified (a certified column is exactly 1), and no other gamma
            expected = []
            for gamma in block["scored"]:
                settled = (gammas == gamma) & (res <= FAST.tol)
                if not np.all(values[:, settled] == 1.0):
                    expected.append((gamma, int(np.count_nonzero(settled))))
            assert block["seeds_scored"] == expected
        assert sum(len(block["seeds_scored"]) for block in blocks) < len(scored)

    def test_round_ends_at_its_lowest_winner(self, monkeypatch):
        # The gap need not change sign once along a round: among the midpoints
        # x_1 < ... < x_15 of (x_0, x_16), the transformer n=16 beta=4 scan at K=32
        # wins at x_3, loses at x_4 and x_5 and wins from x_6 on.  The bracket ends
        # at the lowest winner, (x_2, x_3); halving one midpoint at a time walks
        # x_8, x_4, x_6, x_5 to (x_5, x_6).  Here (8, 8.1) takes one round to narrow.
        points = [8.0, 8.1]
        for _ in range(4):
            points = sorted(points + [0.5 * (l + h) for l, h in zip(points, points[1:])])
        assert (points[1] - points[0]) / points[1] <= solver._BRACKET_RTOL
        wins = {points[3], *points[6:]}

        def free_energy_gap(kernel, basis, gamma, values):
            return np.where(gamma in wins, -1.0, 1.0) * np.ones(values.shape[1:])

        monkeypatch.setattr(solver, "free_energy_gap", free_energy_gap)
        report = find_transition(ONSAGER3, gamma_grid=[points[0], points[-1]], config=FAST)
        assert report.gamma_c_bracket == (points[2], points[3])
        assert report.witness["gap"] == -1.0

    def test_competitor_wins_where_every_seed_is_certified(self, monkeypatch):
        # at 0.3-0.4 gamma_# every seed enters the basin ball, so no gamma has a seeds'
        # call and the competitor's gap alone decides
        seed_calls, gap = [], solver.free_energy_gap
        threshold = 0.35 * GAMMA_SHARP_ONSAGER

        def free_energy_gap(kernel, basis, gamma, values):
            if values.ndim == 2:
                seed_calls.append(gamma)
                return gap(kernel, basis, gamma, values)
            return -1.0 if gamma >= threshold else 1.0

        monkeypatch.setattr(solver, "free_energy_gap", free_energy_gap)
        grid = [0.3 * GAMMA_SHARP_ONSAGER, 0.4 * GAMMA_SHARP_ONSAGER]
        report = find_transition(ONSAGER3, gamma_grid=grid, config=FAST)
        lo, hi = report.gamma_c_bracket
        assert lo < threshold <= hi and (hi - lo) / hi <= solver._BRACKET_RTOL
        assert report.witness["kind"] == "competitor" and report.witness["gap"] == -1.0
        assert seed_calls == []

    def test_last_seed_wins_without_a_competitor(self):
        # opinion p = 5 has no cubic competitor (u3 = 0); above gamma_# no seed is
        # certified, and the last settled seed column is reported as the winning seed
        kernel = coefficients(KernelSpec(n=3, family="opinion", p=5.0), FAST.K)
        gs = gamma_sharp(kernel).gamma
        threshold = 1.5 * gs

        def free_energy_gap(kernel, basis, gamma, values):
            assert values.ndim == 2  # no competitor's call
            gaps = np.ones(values.shape[1])
            if gamma >= threshold:
                gaps[-1] = -1.0
            return gaps

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "free_energy_gap", free_energy_gap)
            report = find_transition(kernel, gamma_grid=[1.4 * gs, 1.6 * gs], config=FAST)
        lo, hi = report.gamma_c_bracket
        assert lo < threshold <= hi
        assert report.witness["kind"] == "fixed-point" and report.witness["gap"] == -1.0
        assert report.witness["seed"].endswith("-0.8")  # the last label of each seed mode

    def test_scan_builds_at_most_one_density_per_gamma(self, monkeypatch):
        # the seed groups are scored by moments; a ZonalDensity is built only for
        # the best column of a gamma where it beats uniform, to read its dominant mode
        events, gap, build = [], solver.free_energy_gap, solver.make_density

        def free_energy_gap(kernel, basis, gamma, values):
            # at each scored gamma: the seeds' call, where a settled seed is not certified,
            # then the competitor's, which takes one density
            gaps = gap(kernel, basis, gamma, values)
            events.append(("seeds" if values.ndim == 2 else "competitor", float(np.min(gaps))))
            return gaps

        def make_density(*args):
            events.append(("density", None))
            return build(*args)

        def free_energy(*args):
            raise AssertionError("the scan needs no EnergyReport")

        monkeypatch.setattr(solver, "free_energy_gap", free_energy_gap)
        monkeypatch.setattr(solver, "make_density", make_density)
        monkeypatch.setattr(solver, "free_energy", free_energy)
        report = find_transition(ONSAGER3, config=FAST)
        monkeypatch.undo()
        assert report.gamma_c_bracket == (9.337795154936023, 9.342524730089181)
        kinds = [kind for kind, _ in events]
        scan = events[min(kinds.index("seeds"), kinds.index("competitor")):]
        # one density right after each gamma whose best seed beats uniform (the first of
        # equal gaps in seed order, then the competitor), none elsewhere
        wins = [
            i for i, (kind, best) in enumerate(scan)
            if kind == "competitor" and i and scan[i - 1][0] == "seeds"
            and scan[i - 1][1] < -solver._GAP_TOL and scan[i - 1][1] <= best
        ]
        assert [i for i, (kind, _) in enumerate(scan) if kind == "density"] == [i + 1 for i in wins]
        assert len(wins) >= 2  # the first winner on the grid, then bisection
        assert kinds.count("competitor") > 100  # the grid up to gamma_c, then bisection

    def test_basin_exit_bounds_the_grid_work(self, monkeypatch):
        # G evaluations (block steps) and their columns over the whole Onsager
        # K=32/M=48 scan: 710 and 17,246 when each column leaves the block at its
        # own stop through the basin ball of the (e^s - 1 - s) lemma and a bisection
        # round ends at its lowest winner; 772 and 28,418 with the ball's old
        # constant 3e; 1,829 and 111,008 when stopped columns stepped on with
        # their group
        counts = {"steps": 0, "columns": 0}
        evaluate = GibbsOperator.gibbs

        def gibbs(op, gamma, values):
            counts["steps"] += 1
            counts["columns"] += values.shape[1] if values.ndim == 2 else 1
            return evaluate(op, gamma, values)

        monkeypatch.setattr(GibbsOperator, "gibbs", gibbs)
        report = find_transition(ONSAGER3, config=FAST)
        monkeypatch.undo()
        assert report.gamma_c_bracket == (9.337795154936023, 9.342524730089181)
        assert report.witness["seed"] == "mode2+0.8"
        assert 0 < counts["steps"] <= 800 and 0 < counts["columns"] <= 20_000

    def test_scan_logs_one_debug_line(self, caplog, monkeypatch):
        grid = np.geomspace(0.2 * GAMMA_SHARP_ONSAGER, GAMMA_SHARP_ONSAGER, 5)
        with caplog.at_level(logging.WARNING, logger="spheremv"):
            find_transition(ONSAGER3, gamma_grid=grid, config=FAST)
        assert caplog.records == []
        evaluated, evaluate = [], GibbsOperator.gibbs
        entering, solve = [], solver._damped_picard

        def gibbs(op, gamma, values):
            evaluated.append(values.shape[1])
            return evaluate(op, gamma, values)

        def damped_picard(op, gamma, values, config):
            entering.append(values.shape[1])
            return solve(op, gamma, values, config)

        monkeypatch.setattr(GibbsOperator, "gibbs", gibbs)
        monkeypatch.setattr(solver, "_damped_picard", damped_picard)
        with caplog.at_level(logging.DEBUG, logger="spheremv"):
            report = find_transition(ONSAGER3, gamma_grid=grid, config=FAST)
        assert report.gamma_c_bracket is not None
        [record] = caplog.records
        counts = [int(word) for word in record.getMessage().replace(",", "").split() if word.isdigit()]
        scored, midpoints, entered, columns, within_tol, certified, unscored, steps, column_steps = counts
        assert midpoints >= 1 and scored >= midpoints + 2  # the grid up to the winner, then bisection
        assert midpoints <= entered <= 15 * midpoints  # at most 15 entered per midpoint scored
        assert columns == 16 * scored and 0 < certified <= within_tol <= columns
        assert unscored == sum(entering) - columns
        assert (steps, column_steps) == (len(evaluated), sum(evaluated))

    @pytest.mark.parametrize(
        "grid", [[math.nan, 9.5], [9.5, math.nan], [math.inf], [-math.inf, 9.5], [0.0, 9.5], [-1.0, 9.5]]
    )
    def test_rejects_invalid_grid_values(self, grid):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            find_transition(ONSAGER3, gamma_grid=grid, config=FAST)

    def test_tiny_grid_gamma_raises_no_overflow_warning(self):
        # r(1e-300)^2 overflows; pytest turns a numpy overflow warning into an error
        report = find_transition(ONSAGER3, gamma_grid=[1e-300, 9.5], config=FAST)
        lo, hi = report.gamma_c_bracket
        assert lo < 9.34253 and hi > 9.33779 and (hi - lo) / hi <= 1e-3
        assert report.witness["seed"] == "mode2+0.8"

    def test_opinion_bracket_is_pinned(self, monkeypatch):
        # 1,021 block steps with the basin ball of the (e^s - 1 - s) lemma, 1,414 with
        # its old constant 3e, when a block ends at its first winner; 2,736 when the
        # last grid block also solved gamma = 0.26039, just below gamma_#, for
        # 1,792 steps although no gamma above the winner 0.25621 is scored
        steps, evaluate = [], GibbsOperator.gibbs

        def gibbs(op, gamma, values):
            steps.append(values.shape)
            return evaluate(op, gamma, values)

        monkeypatch.setattr(GibbsOperator, "gibbs", gibbs)
        kernel = coefficients(KernelSpec(n=3, family="opinion", p=5.0), FAST.K)
        report = find_transition(kernel, config=FAST)
        monkeypatch.undo()
        assert report.gamma_c_bracket == (0.25478880553522026, 0.2549177902410441)
        assert report.type == "discontinuous" and report.witness["kind"] == "fixed-point"
        assert 0 < len(steps) <= 1200

    def test_json_round_trip(self):
        # the JSON document itself is tested through the CLI (TestTransition)
        kernel = coefficients(KernelSpec(n=3, family="custom", profile=lambda t: t**2), 8)
        report = find_transition(kernel, config=FAST)
        assert report.type == "none" and report.gamma_c_bracket is None
