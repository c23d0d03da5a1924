from dataclasses import replace

import numpy as np
import pytest

from uwbrel.chansim import NoiseParams, Observations, SvParams, observe, sample_scenario
from uwbrel.errors import AntiparallelDirections, InvalidParams, NotPositiveDefinite, RankDeficient
from uwbrel.geom import SPEED_OF_LIGHT as C, Stack, complete_mpc
from uwbrel.posest import (
    _diff_columns,
    _tau_system,
    gls_by_delta,
    lse_by_delta,
    lse_by_delta_pwa,
    lse_by_tau,
    lse_by_tau_sync,
)

EX = np.array([1.0, 0.0, 0.0])


def constant(k, tau_a, tau_b, dir_a, dir_b):
    """K observations of one observer, delays as given, every direction the same."""
    return Observations(tau_a=tau_a, tau_b=tau_b, dir_a=np.tile(dir_a, (k, 1)),
                        dir_b=np.tile(dir_b, (k, 1)), observer=np.zeros(k, dtype=int))


def make_observations(rng, d=2.0, m=3, k_o=4, sigma=0.0, sigma_dir=0.0,
                      eps=5e-9, eps_a=None, seed_offset=0):
    scenario = sample_scenario(d, SvParams(), m, [k_o] * m, rng)
    if eps_a is None:
        eps_a = tuple(rng.uniform(0.0, 100e-9, m))
    noise = NoiseParams(sigma=sigma, sigma_dir=sigma_dir, eps=eps,
                        eps_a_per_observer=eps_a)
    return scenario, observe(scenario, noise, rng)


class TestZeroNoiseExactness:
    def test_lse_by_delta_recovers_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scenario, obs = make_observations(rng, d=rng.uniform(0.5, 6.0))
            est = lse_by_delta(obs)
            assert np.linalg.norm(est.d_vec - scenario.d_vec) < 1e-9
            assert est.eps_hat == pytest.approx(5e-9, abs=1e-18)

    def test_lse_by_tau_recovers_all_offsets(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            eps_a = tuple(rng.uniform(0.0, 100e-9, 3))
            scenario, obs = make_observations(rng, d=rng.uniform(0.5, 6.0), eps_a=eps_a)
            est = lse_by_tau(obs)
            assert np.linalg.norm(est.d_vec - scenario.d_vec) < 1e-9
            assert est.eps_hat == pytest.approx(5e-9, abs=1e-18)
            for got, want in zip(est.eps_a_hats, eps_a):
                assert got == pytest.approx(want, abs=1e-18)

    def test_residual_is_zero_on_consistent_data(self):
        rng = np.random.default_rng(2)
        scenario, obs = make_observations(rng)
        (columns,), (antiparallel,) = _diff_columns(Stack.of([obs]), pwa=False)
        assert not antiparallel
        x = np.concatenate([scenario.d_vec, [C * 5e-9]])
        resid = columns @ x - C * (obs.tau_b - obs.tau_a)
        assert np.abs(resid).max() < 1e-9

    def test_s_vector_projection_property(self):
        rng = np.random.default_rng(3)
        scenario, obs = make_observations(rng, eps=0.0, eps_a=(0.0, 0.0, 0.0))
        (columns,), _ = _diff_columns(Stack.of([obs]), pwa=False)
        proj = columns[:, :3] @ scenario.d_vec
        np.testing.assert_allclose(proj, C * (obs.tau_b - obs.tau_a), atol=1e-9)


class TestRankAndGuards:
    def test_k3_rank_deficient(self):
        rng = np.random.default_rng(4)
        _, obs = make_observations(rng, m=1, k_o=3)
        with pytest.raises(RankDeficient):
            lse_by_delta(obs)

    def test_antiparallel_guard(self):
        with pytest.raises(AntiparallelDirections):
            lse_by_delta(constant(4, np.full(4, 20e-9), np.full(4, 20e-9), EX, -EX))

    def test_tau_needs_enough_rows(self):
        with pytest.raises(RankDeficient):
            lse_by_tau(constant(1, [20e-9], [20e-9], EX, EX))  # 3 rows < 5 unknowns

    def test_degenerate_directions_rejected(self):
        # all B directions equal: the tau system cannot separate d from eps
        steps = np.arange(6) * 1e-9
        with pytest.raises(RankDeficient):
            lse_by_tau(constant(6, 20e-9 + steps, 21e-9 + steps, EX, EX))


class TestPwa:
    def test_zero_distance_exact(self):
        rng = np.random.default_rng(5)
        scenario, obs = make_observations(rng, d=0.0)
        est = lse_by_delta_pwa(obs)
        assert np.linalg.norm(est.d_vec) < 1e-9

    def test_small_d_close_large_d_biased(self):
        rng = np.random.default_rng(6)
        errs = {d: [] for d in (0.5, 6.0)}
        for d in errs:
            for _ in range(40):
                scenario, obs = make_observations(rng, d=d)
                est = lse_by_delta_pwa(obs)
                errs[d].append(np.linalg.norm(est.d_vec - scenario.d_vec))
        assert np.mean(errs[0.5]) < np.mean(errs[6.0])


class TestGls:
    def test_isotropic_equals_lse(self):
        rng = np.random.default_rng(7)
        _, obs = make_observations(rng, sigma=0.3e-9)
        k = len(obs)
        ref = lse_by_delta(obs)
        est = gls_by_delta(obs, np.zeros(k), (0.3e-9) ** 2 * np.eye(k))
        np.testing.assert_allclose(est.d_vec, ref.d_vec, rtol=1e-12, atol=1e-15)
        assert est.eps_hat == pytest.approx(ref.eps_hat, rel=1e-12)

    def test_known_bias_absorbed_into_offset(self):
        rng = np.random.default_rng(8)
        _, obs = make_observations(rng, sigma=0.2e-9)
        k = len(obs)
        cov = (0.2e-9) ** 2 * np.eye(k)
        base = gls_by_delta(obs, np.zeros(k), cov)
        bias = 3e-9
        biased_obs = replace(obs, tau_b=obs.tau_b + bias)
        est = gls_by_delta(biased_obs, np.full(k, bias), cov)
        np.testing.assert_allclose(est.d_vec, base.d_vec, atol=1e-12)
        assert est.eps_hat == pytest.approx(base.eps_hat, abs=1e-20)

    def test_huge_variance_downweights_to_exclusion(self):
        rng = np.random.default_rng(9)
        _, obs = make_observations(rng, m=1, k_o=8, sigma=0.2e-9)
        k = len(obs)
        cov = (0.2e-9) ** 2 * np.eye(k)
        cov[0, 0] *= 1e8
        est = gls_by_delta(obs, np.zeros(k), cov)
        ref = lse_by_delta(obs[1:])
        np.testing.assert_allclose(est.d_vec, ref.d_vec, atol=1e-4)

    def test_not_positive_definite(self):
        rng = np.random.default_rng(10)
        _, obs = make_observations(rng)
        k = len(obs)
        with pytest.raises(NotPositiveDefinite):
            gls_by_delta(obs, np.zeros(k), -np.eye(k))

    @pytest.mark.parametrize("bad", ["short mean", "nan mean", "nan cov"])
    def test_bad_error_inputs_rejected(self, bad):
        rng = np.random.default_rng(16)
        _, obs = make_observations(rng)
        k = len(obs)
        mean, cov = np.zeros(k), (0.2e-9) ** 2 * np.eye(k)
        if bad == "short mean":
            mean = np.zeros(k - 1)
        elif bad == "nan mean":
            mean[2] = np.nan
        else:
            cov[0, 1] = cov[1, 0] = np.nan
        with pytest.raises(InvalidParams):
            gls_by_delta(obs, mean, cov)


class TestTauSync:
    def test_exact_for_any_k(self):
        rng = np.random.default_rng(11)
        for k_o in (1, 2, 5):
            scenario, obs = make_observations(rng, m=1, k_o=k_o, eps=0.0,
                                              eps_a=(0.0,))
            est = lse_by_tau_sync(obs)
            assert np.linalg.norm(est.d_vec - scenario.d_vec) < 1e-9

    def test_single_mpc_noise_level(self):
        # linearized oracle: total error covariance trace is c^2 sigma^2
        rng = np.random.default_rng(12)
        sigma = 0.2e-9
        errs = []
        for _ in range(4000):
            scenario, obs = make_observations(rng, m=1, k_o=1, sigma=sigma,
                                              eps=0.0, eps_a=(0.0,))
            est = lse_by_tau_sync(obs)
            errs.append(np.linalg.norm(est.d_vec - scenario.d_vec))
        rmse = np.sqrt(np.mean(np.square(errs)))
        assert rmse == pytest.approx(C * sigma, rel=0.05)

    def test_matches_tau_solver_with_pinned_offsets(self):
        # constrained oracle: dropping every offset column from the stacked
        # system leaves the componentwise mean as the exact LSE
        rng = np.random.default_rng(13)
        _, obs = make_observations(rng, sigma=0.3e-9, sigma_dir=np.radians(2.0))
        (G,), (t,) = _tau_system(Stack.of([obs]))
        pinned, *_ = np.linalg.lstsq(G[:, :3], t, rcond=None)
        est = lse_by_tau_sync(obs)
        np.testing.assert_allclose(est.d_vec, pinned, rtol=1e-12, atol=1e-15)


class TestEquivariance:
    def test_rotation_equivariance(self):
        rng = np.random.default_rng(14)
        scenario, obs = make_observations(rng)
        # random rotation via QR
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        rotated = replace(obs, dir_a=obs.dir_a @ q.T, dir_b=obs.dir_b @ q.T)
        for solver in (lse_by_delta, lse_by_delta_pwa, lse_by_tau):
            a = solver(obs)
            b = solver(rotated)
            np.testing.assert_allclose(b.d_vec, q @ a.d_vec, atol=1e-9)

    def test_translation_invariance_of_observations(self):
        # identical MPC sets arise from translated geometry: estimators see
        # the same inputs by construction
        shift = np.array([10.0, -4.0, 2.0])
        tau_b1, dir_b1, _ = complete_mpc(np.zeros(3), 2.0 * EX, 20e-9, EX)
        tau_b2, dir_b2, _ = complete_mpc(shift, 2.0 * EX + shift, 20e-9, EX)
        assert tau_b1 == tau_b2
        np.testing.assert_allclose(dir_b1, dir_b2, atol=1e-15)


class TestConditionReporting:
    def test_condition_number_reported(self):
        rng = np.random.default_rng(15)
        _, obs = make_observations(rng)
        est = lse_by_delta(obs)
        assert est.condition_number > 1.0
        est_t = lse_by_tau(obs)
        assert est_t.condition_number > 1.0
