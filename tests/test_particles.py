import math

import numpy as np
import pytest
from scipy.stats import kstest

from spheremv import particles
from spheremv.harmonics import y_l0
from spheremv.kernels import KernelSpec
from spheremv.particles import (
    ParticleEnsemble,
    SimConfig,
    _pairwise_drift,
    empirical_moments,
    kernel_force,
    order_axis,
    simulate,
    step,
    uniform_ensemble,
)

from helpers import DRIFT_SPECS, dense_drift, reference_order_axis, reference_step

TRANSFORMER3 = KernelSpec(n=3, family="transformer", beta=1.0)
CONSTANT3 = KernelSpec(
    n=3,
    family="custom",
    profile=lambda t: np.ones_like(t),
    profile_derivative=lambda t: np.zeros_like(t),
)
ONSAGER3 = KernelSpec(n=3, family="onsager")
TRANSFORMER4 = KernelSpec(n=4, family="transformer", beta=1.0)
# (kernel, N) chained against reference_step: the inert path at sizes around
# one tile, and two kernels with a drift.
ORACLE_CASES = [(CONSTANT3, 1), (CONSTANT3, 129), (CONSTANT3, 1000), (ONSAGER3, 300), (TRANSFORMER4, 200)]


def _pair(n, x, y, seed=0):
    return ParticleEnsemble(n=n, positions=np.array([x, y], dtype=float), rng=np.random.default_rng(seed))


class TestEnsemble:
    def test_uniform_shapes_and_norms(self):
        ens = uniform_ensemble(4, 100, seed=3)
        assert ens.positions.shape == (100, 4)
        assert np.max(np.abs(np.linalg.norm(ens.positions, axis=1) - 1.0)) < 1e-12
        assert ens.size == 100

    def test_rejects_non_unit_positions(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(n=3, positions=np.array([[1.0, 1.0, 0.0]]), rng=np.random.default_rng(0))

    def test_rejects_non_finite_positions(self):
        # NaN passes a "norm - 1 > tol" test; left in, order_axis fails in eigh
        with pytest.raises(ValueError, match="unit vectors"):
            ParticleEnsemble(n=3, positions=[[math.nan, 0.0, 0.0], [0.0, 0.0, 1.0]], rng=np.random.default_rng(0))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(n=3, positions=np.zeros((0, 3)), rng=np.random.default_rng(0))


class TestSimConfig:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(steps=0)
        with pytest.raises(ValueError):
            SimConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            SimConfig(burn_in=1.0)
        with pytest.raises(ValueError):
            SimConfig(record_every=0)

    @pytest.mark.parametrize("field", [{"dt": math.nan}, {"dt": math.inf}, {"gamma": math.nan}])
    def test_rejects_non_finite(self, field):
        with pytest.raises(ValueError, match=next(iter(field))):
            SimConfig(**field)

    def test_infinite_gamma_allowed(self):
        assert SimConfig(gamma=math.inf).gamma == math.inf


class TestKernelForce:
    def test_constant_kernel_zero_force(self):
        ens = uniform_ensemble(3, 50, seed=1)
        f = kernel_force(CONSTANT3, np.array([0.0, 0.0, 1.0]), ens)
        assert np.max(np.abs(f)) < 1e-14

    def test_two_particle_orthogonal_pair(self):
        # W(t) = -e^{beta t}/beta with beta=1: W'(0) = -1, so the force at x
        # from the pair {x, y} with <x,y>=0 is -(1/2) W'(0) y = y/2
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        ens = _pair(3, x, y)
        f = kernel_force(TRANSFORMER3, x, ens)
        assert np.allclose(f, y / 2.0, atol=1e-14)

    def test_force_is_tangential(self):
        rng = np.random.default_rng(7)
        ens = uniform_ensemble(3, 64, seed=7)
        for _ in range(5):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            f = kernel_force(TRANSFORMER3, x, ens)
            assert abs(np.dot(f, x)) < 1e-13

    def test_rejects_non_unit_point(self):
        ens = uniform_ensemble(3, 8, seed=0)
        with pytest.raises(ValueError):
            kernel_force(TRANSFORMER3, np.array([2.0, 0.0, 0.0]), ens)

    def test_rejects_nan_point(self):
        ens = uniform_ensemble(3, 8, seed=0)
        with pytest.raises(ValueError, match="x must be a unit vector"):
            kernel_force(TRANSFORMER3, np.array([math.nan, 0.0, 0.0]), ens)


def _drift_input(n, count):
    """count uniform particles; "collisions" is 300 of them with a copy of particle 0
    at 130 and its antipode at 260, across a tile boundary (t = +-1 hits W''s clamp)."""
    if count == "collisions":
        x = uniform_ensemble(n, 300, seed=300).positions
        x[130], x[260] = x[0], -x[0]
        return x
    return uniform_ensemble(n, count, seed=count).positions


class TestPairwiseDrift:
    @pytest.mark.parametrize("spec", DRIFT_SPECS, ids=lambda s: s.family)
    @pytest.mark.parametrize("count", [1, 2, 127, 128, 129, 300, "collisions"])
    def test_matches_dense_oracle(self, spec, count):
        x = _drift_input(spec.n, count)
        expected = dense_drift(spec, x)
        got = _pairwise_drift(spec, x)
        assert got.shape == x.shape
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13 * max(1.0, np.max(np.abs(expected))))


class TestStep:
    def test_noiseless_constant_kernel_is_identity(self):
        ens = uniform_ensemble(3, 32, seed=2)
        out = step(ens, CONSTANT3, SimConfig(gamma=math.inf))
        # identical up to the final renormalization round-off
        assert np.allclose(out.positions, ens.positions, atol=1e-15, rtol=0.0)

    def test_norms_preserved(self):
        ens = uniform_ensemble(4, 64, seed=5)
        cfg = SimConfig(dt=1e-2, gamma=2.0)
        for _ in range(20):
            ens = step(ens, KernelSpec(n=4, family="transformer", beta=1.0), cfg)
        assert np.max(np.abs(np.linalg.norm(ens.positions, axis=1) - 1.0)) < 1e-12

    def test_two_particles_align_monotonically(self):
        # attractive transformer kernel, no noise: <x,y> increases to 1
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([math.cos(2.0), math.sin(2.0), 0.0])
        ens = _pair(3, x, y)
        cfg = SimConfig(dt=5e-2, gamma=math.inf)
        inner_prev = float(np.dot(*ens.positions))
        for _ in range(300):
            ens = step(ens, TRANSFORMER3, cfg)
            inner = float(np.dot(*ens.positions))
            assert inner >= inner_prev - 1e-14
            inner_prev = inner
        assert inner_prev > 1.0 - 1e-6

    def test_non_finite_drift_stops_the_step(self):
        nan_kernel = KernelSpec(
            n=3, family="custom", profile=np.cos, profile_derivative=lambda t: np.full_like(t, np.nan)
        )
        ens = uniform_ensemble(3, 8, seed=0)
        with pytest.raises(RuntimeError, match="non-finite"):
            step(ens, nan_kernel, SimConfig(gamma=math.inf))

    @pytest.mark.parametrize("gamma", [2.0, math.inf])
    @pytest.mark.parametrize("spec,count", ORACLE_CASES, ids=lambda c: getattr(c, "family", None))
    def test_matches_reference_step(self, spec, count, gamma):
        ens = uniform_ensemble(spec.n, count, seed=count)
        x, rng = ens.positions.copy(), np.random.default_rng(count)
        rng.bit_generator.state = ens.rng.bit_generator.state
        cfg = SimConfig(dt=1e-3, gamma=gamma)
        for _ in range(5):
            ens = step(ens, spec, cfg)
            x = reference_step(x, rng, spec, cfg.dt, cfg.gamma)
            assert np.allclose(ens.positions, x, rtol=0.0, atol=1e-14)
        assert ens.rng.bit_generator.state == rng.bit_generator.state
        assert np.array_equal(order_axis(ens), reference_order_axis(ens.positions))

    @pytest.mark.parametrize("gamma", [2.0, math.inf])
    @pytest.mark.parametrize("spec", [CONSTANT3, TRANSFORMER3], ids=lambda s: s.family)
    def test_leaves_the_input_ensemble_alone(self, spec, gamma):
        ens = uniform_ensemble(3, 64, seed=8)
        before = ens.positions.copy()
        out = step(ens, spec, SimConfig(gamma=gamma))
        assert np.array_equal(ens.positions, before)
        assert not np.shares_memory(out.positions, ens.positions)

    def test_determinism_bit_identical(self):
        cfg = SimConfig(dt=1e-3, steps=50, gamma=3.0, seed=9, record_every=10)
        a = simulate(TRANSFORMER3, cfg, 128)
        b = simulate(TRANSFORMER3, cfg, 128)
        assert np.array_equal(a.ensemble.positions, b.ensemble.positions)
        assert np.array_equal(a.moments, b.moments)


class TestOrderAxisAndMoments:
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+e3", "-e3"])
    def test_axis_of_clustered_ensemble(self, sign):
        # eigh's sign does not follow the cluster, so one of the two poles needs the flip
        rng = np.random.default_rng(11)
        pole = np.array([0.0, 0.0, sign])
        pts = pole + 0.1 * rng.standard_normal((200, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        ens = ParticleEnsemble(n=3, positions=pts, rng=rng)
        axis = order_axis(ens)
        assert np.dot(axis, pole) > 0.99

    def test_all_at_pole_moments_equal_y_at_one(self):
        pole = np.array([0.0, 1.0, 0.0])
        pts = np.tile(pole, (10, 1))
        ens = ParticleEnsemble(n=3, positions=pts, rng=np.random.default_rng(0))
        summary = empirical_moments(ens, pole, degrees=(1, 2, 3))
        for l, m in zip(summary.degrees, summary.means):
            assert m == pytest.approx(float(y_l0(l, 3, 1.0)), rel=1e-12)
        assert np.max(summary.standard_errors) < 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    def test_moments_equal_the_per_degree_harmonics(self, n):
        # one table of degree max(degrees) gives each degree's row bit for bit
        ens = uniform_ensemble(n, 2000, seed=5)
        axis = order_axis(ens)
        degrees = (3, 0, 1, 5, 2, 3)
        summary = empirical_moments(ens, axis, degrees)
        t = np.clip(ens.positions @ axis, -1.0, 1.0)
        means = [float(np.mean(y_l0(l, n, t))) for l in degrees]
        errs = [float(np.std(y_l0(l, n, t), ddof=1) / math.sqrt(ens.size)) for l in degrees]
        assert summary.degrees == degrees
        assert np.array_equal(summary.means, np.array(means))
        assert np.array_equal(summary.standard_errors, np.array(errs))
        assert empirical_moments(ens, axis, ()).means.shape == (0,)
        with pytest.raises(ValueError):
            empirical_moments(ens, axis, (2, -1))

    def test_uniform_sample_moments_near_zero(self):
        ens = uniform_ensemble(3, 100_000, seed=13)
        axis = np.array([0.0, 0.0, 1.0])
        summary = empirical_moments(ens, axis, degrees=(1, 2, 3, 4))
        # E[Y_l] = 0 under the uniform law for every l >= 1
        assert np.all(np.abs(summary.means) <= 4.0 * summary.standard_errors)

    def test_rejects_non_unit_axis(self):
        ens = uniform_ensemble(3, 8, seed=0)
        with pytest.raises(ValueError):
            empirical_moments(ens, np.array([0.0, 0.0, 2.0]), degrees=(1,))

    def test_rejects_nan_axis(self):
        ens = uniform_ensemble(3, 8, seed=0)
        with pytest.raises(ValueError, match="axis must be a unit vector"):
            empirical_moments(ens, np.array([0.0, 0.0, math.nan]), degrees=(1,))


class TestSimulate:
    def test_records_and_csv_format(self, tmp_path):
        cfg = SimConfig(dt=1e-3, steps=40, gamma=5.0, seed=1, burn_in=0.0, record_every=10)
        result = simulate(TRANSFORMER3, cfg, 64, degrees=(1, 2))
        assert list(result.recorded_steps) == [10, 20, 30, 40]
        assert result.moments.shape == (4, 2)  # the CSV itself: test_cli.py TestSimulate

    def test_inert_probe_runs_once_per_kernel(self, monkeypatch):
        probes = []
        real = particles.profile_derivative

        def counting(spec, t):
            if np.ndim(t) == 1:  # the probe grid; the drift passes 2-D tiles
                probes.append(spec)
            return real(spec, t)

        monkeypatch.setattr(particles, "profile_derivative", counting)
        particles._kernel_is_inert.cache_clear()
        simulate(TRANSFORMER3, SimConfig(dt=1e-3, steps=10, gamma=2.0, seed=4), 16)
        assert probes == [TRANSFORMER3]

    def test_result_holds_the_final_positions(self):
        cfg = SimConfig(dt=1e-3, steps=5, gamma=2.0, seed=4, record_every=5)
        result = simulate(TRANSFORMER3, cfg, 32)
        ensemble = uniform_ensemble(3, 32, seed=4)
        for _ in range(cfg.steps):
            ensemble = step(ensemble, TRANSFORMER3, cfg)
        assert np.array_equal(result.ensemble.positions, ensemble.positions)

    @pytest.mark.parametrize("n,size", [(4, 50), (3, 49)])
    def test_rejects_mismatched_init(self, n, size):
        cfg = SimConfig(dt=1e-3, steps=2, gamma=2.0, seed=4)
        with pytest.raises(ValueError, match="init ensemble"):
            simulate(ONSAGER3, cfg, 50, init=uniform_ensemble(n, size, seed=4))

    def test_final_state_recorded_when_grid_misses(self):
        cfg = SimConfig(dt=1e-3, steps=7, gamma=2.0, seed=4, record_every=100)
        result = simulate(TRANSFORMER3, cfg, 16)
        assert list(result.recorded_steps) == [7]

    def test_heat_kernel_run(self):
        heat = KernelSpec(n=3, family="heat", epsilon=0.3)
        cfg = SimConfig(dt=1e-3, steps=5, gamma=2.0, seed=4, record_every=5)
        result = simulate(heat, cfg, 32)
        assert list(result.recorded_steps) == [5]
        assert np.all(np.isfinite(result.ensemble.positions))

    def test_noise_only_run_stays_uniform(self):
        # pure diffusion started from the uniform law must stay uniform: the
        # latitude about any fixed axis keeps the distribution with CDF (t+1)/2
        cfg = SimConfig(dt=5e-3, steps=100, gamma=1.0, seed=21)
        result = simulate(CONSTANT3, cfg, 20_000)
        t = result.ensemble.positions @ np.array([0.0, 0.0, 1.0])
        stat = kstest(t, lambda s: 0.5 * (s + 1.0))
        assert stat.pvalue > 0.01
