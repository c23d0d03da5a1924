import numpy as np
import pytest

from uwbrel.chansim import (
    MpcObservation,
    NoiseParams,
    SvParams,
    observe,
    perturb_direction,
    sample_excess_delays,
    sample_scenario,
    sample_unit_directions,
    scenario_csv,
    scramble_association,
)
from uwbrel.errors import InvalidParams
from uwbrel.geom import SPEED_OF_LIGHT as C


class TestExcessDelays:
    def test_deterministic_given_seed(self):
        a = sample_excess_delays(SvParams(), 8, 1234)
        b = sample_excess_delays(SvParams(), 8, 1234)
        np.testing.assert_array_equal(a, b)

    def test_golden_sequence(self):
        # regression pin for the seeded sampler
        got = sample_excess_delays(SvParams(), 4, 42)
        expected = np.array([6.57552197e-08, 5.73353529e-08, 5.65619253e-08,
                             1.20431559e-07])
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_positive_and_floored(self):
        d = sample_excess_delays(SvParams(), 1000, 0)
        assert np.all(d > SvParams().onset_floor)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParams):
            SvParams(cluster_mean=-1.0)
        with pytest.raises(InvalidParams):
            sample_excess_delays(SvParams(), 0, 0)

    def test_marginal_statistics_quick(self):
        rng = np.random.default_rng(9)
        delays = np.concatenate([sample_excess_delays(SvParams(), 4, rng)
                                 for _ in range(20000)])
        assert 36.45e-9 <= delays.mean() <= 44.55e-9
        assert 23.67e-9 <= delays.std() <= 28.93e-9

    def test_within_channel_clustering(self):
        # delays of one call share a cluster onset: within-call spread is
        # much smaller than the marginal spread
        rng = np.random.default_rng(10)
        groups = [sample_excess_delays(SvParams(), 4, rng) for _ in range(4000)]
        within = np.mean([g.std() for g in groups])
        marginal = np.concatenate(groups).std()
        assert within < 0.5 * marginal


class TestSampleScenario:
    def test_zero_distance_degenerates_to_equal_sides(self):
        s = sample_scenario(0.0, SvParams(), 2, [3, 3], 5)
        for m in s.mpcs:
            assert m.tau_a == pytest.approx(m.tau_b, rel=1e-15)
            np.testing.assert_allclose(m.dir_a, m.dir_b, atol=1e-12)

    def test_minimum_delay_floor(self):
        s = sample_scenario(2.0, SvParams(), 3, [4, 4, 4], 6)
        assert all(m.tau_a >= 16.7e-9 for m in s.mpcs)

    def test_invariants_hold(self):
        for seed in range(5):
            sample_scenario(5.0, SvParams(), 2, [4, 4], seed).validate()

    def test_direction_uniformity(self):
        rng = np.random.default_rng(2)
        dirs = sample_unit_directions(rng, 10000)
        assert np.linalg.norm(dirs.mean(axis=0)) < 0.05

    def test_bad_args(self):
        with pytest.raises(InvalidParams):
            sample_scenario(-1.0, SvParams(), 1, [4], 0)
        with pytest.raises(InvalidParams):
            sample_scenario(1.0, SvParams(), 0, [], 0)


class TestObserve:
    def test_zero_noise_is_identity(self):
        s = sample_scenario(2.0, SvParams(), 2, [3, 3], 1)
        obs = observe(s, NoiseParams(), 0)
        for m, ob in zip(s.mpcs, obs):
            assert ob.tau_a_meas == m.tau_a
            assert ob.tau_b_meas == m.tau_b
            np.testing.assert_array_equal(ob.dir_a_meas, m.dir_a)
            np.testing.assert_array_equal(ob.dir_b_meas, m.dir_b)

    def test_clock_offset_shifts_delay_difference(self):
        s = sample_scenario(2.0, SvParams(), 2, [3, 3], 1)
        obs = observe(s, NoiseParams(eps=5e-9, eps_a_per_observer=(12e-9, -3e-9)), 0)
        for m, ob in zip(s.mpcs, obs):
            diff = ob.tau_b_meas - ob.tau_a_meas
            assert diff == pytest.approx((m.tau_b - m.tau_a) + 5e-9, abs=1e-21)

    def test_delay_noise_moments(self):
        s = sample_scenario(2.0, SvParams(), 1, [100], 3)
        sigma = 0.2e-9
        resid = []
        rng = np.random.default_rng(8)
        for _ in range(1000):
            obs = observe(s, NoiseParams(sigma=sigma, eps=5e-9), rng)
            for m, ob in zip(s.mpcs, obs):
                resid.append((ob.tau_b_meas - ob.tau_a_meas) - (m.tau_b - m.tau_a) - 5e-9)
        resid = np.asarray(resid)
        assert resid.std() == pytest.approx(sigma, rel=0.02)
        assert abs(resid.mean()) < 3 * sigma / np.sqrt(resid.size)

    def test_direction_noise_moments(self):
        rng = np.random.default_rng(4)
        sigma_dir = np.radians(5.0)
        u = np.array([0.0, 0.0, 1.0])
        angles = []
        for _ in range(100000):
            v = perturb_direction(rng, u, sigma_dir)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            angles.append(np.arccos(np.clip(v @ u, -1.0, 1.0)))
        angles = np.asarray(angles)
        assert np.mean(angles ** 2) == pytest.approx(sigma_dir ** 2, rel=0.05)


class TestScramble:
    def _obs(self, k_per, seed=0):
        s = sample_scenario(2.0, SvParams(), len(k_per), list(k_per), seed)
        return observe(s, NoiseParams(), 0)

    def test_single_mpc_identity(self):
        obs = self._obs([1, 1])
        scrambled, perms = scramble_association(obs, 7)
        assert all(list(p) == [0] for p in perms.values())
        assert scrambled[0].tau_b_meas == obs[0].tau_b_meas

    def test_deterministic(self):
        obs = self._obs([4, 4])
        s1, p1 = scramble_association(obs, 99)
        s2, p2 = scramble_association(obs, 99)
        for o in p1:
            np.testing.assert_array_equal(p1[o], p2[o])
        assert [x.tau_b_meas for x in s1] == [x.tau_b_meas for x in s2]

    def test_a_side_untouched_b_side_permuted(self):
        obs = self._obs([4])
        scrambled, perms = scramble_association(obs, 3)
        perm = perms[0]
        for i, ob in enumerate(scrambled):
            assert ob.tau_a_meas == obs[i].tau_a_meas
            assert ob.tau_b_meas == obs[perm[i]].tau_b_meas

    def test_uniform_over_permutations(self):
        obs = self._obs([3])
        rng = np.random.default_rng(123)
        counts = {}
        n = 60000
        for _ in range(n):
            _, perms = scramble_association(obs, rng)
            key = tuple(perms[0])
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert c / n == pytest.approx(1 / 6, abs=0.02 / 6 + 3 * np.sqrt(5 / 36 / n))


    def test_interleaved_observers_keep_their_positions(self):
        obs = self._obs([3, 3])
        interleaved = [obs[i] for i in (0, 3, 1, 4, 2, 5)]
        scrambled, perms = scramble_association(interleaved, 11)
        groups = {0: interleaved[0::2], 1: interleaved[1::2]}
        for i, ob in enumerate(scrambled):
            o, slot = interleaved[i].observer_id, i // 2
            assert (ob.observer_id, ob.mpc_id) == (o, interleaved[i].mpc_id)
            assert ob.tau_a_meas == interleaved[i].tau_a_meas
            assert ob.tau_b_meas == groups[o][perms[o][slot]].tau_b_meas


class TestObservationInput:
    @pytest.mark.parametrize("side", ["tau_a_meas", "tau_b_meas"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_delay_rejected(self, side, bad):
        delays = {"tau_a_meas": 20e-9, "tau_b_meas": 21e-9, side: bad}
        with pytest.raises(InvalidParams, match="finite"):
            MpcObservation(dir_a_meas=[1.0, 0.0, 0.0], dir_b_meas=[0.0, 1.0, 0.0], **delays)

    @pytest.mark.parametrize("tau", [0.0, -35e-9])
    def test_zero_and_negative_delays_accepted(self, tau):
        ob = MpcObservation(tau_a_meas=tau, tau_b_meas=tau, dir_a_meas=[1.0, 0.0, 0.0],
                            dir_b_meas=[0.0, 1.0, 0.0])
        assert ob.tau_a_meas == ob.tau_b_meas == tau


class TestCsv:
    def test_header_and_rows(self):
        s = sample_scenario(2.0, SvParams(), 2, [2, 2], 0)
        obs = observe(s, NoiseParams(sigma=0.1e-9), 1)
        text = scenario_csv(s, obs)
        lines = text.strip().split("\n")
        assert lines[0] == ("observer,mpc,tau_a_true,tau_b_true,sax,say,saz,"
                            "sbx,sby,sbz,tau_a_meas,tau_b_meas,max,may,maz,mbx,mby,mbz")
        assert len(lines) == 1 + s.k_total
