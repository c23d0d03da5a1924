import itertools

import numpy as np
import pytest

from uwbrel.assoc import (
    Assignment,
    AssocConfig,
    NO_MATCH_COST,
    associate,
    associate_by_sorting,
    apply_assignment,
    pair_cost,
)
from uwbrel.chansim import Observations, NoiseParams, SvParams, observe, sample_scenario, scramble_association
from uwbrel.errors import InvalidParams
from uwbrel.geom import SPEED_OF_LIGHT as C


def obs(tau_a, tau_b, dir_a, dir_b, o=0):
    """One observer's set from per-MPC delays and (K, 3) directions."""
    tau_a = np.atleast_1d(np.asarray(tau_a, float))
    return Observations(tau_a=tau_a, tau_b=np.atleast_1d(np.asarray(tau_b, float)),
                        dir_a=np.atleast_2d(np.asarray(dir_a, float)),
                        dir_b=np.atleast_2d(np.asarray(dir_b, float)),
                        observer=np.full(tau_a.size, o))


def random_group(rng, n, o=0):
    """Observations with random directions/delays, one observer group."""
    va, vb, ta, tb = [], [], [], []
    for _ in range(n):
        a, b = rng.normal(size=3), rng.normal(size=3)
        va.append(a / np.linalg.norm(a))
        vb.append(b / np.linalg.norm(b))
        ta.append(rng.uniform(20e-9, 100e-9))
        tb.append(rng.uniform(20e-9, 100e-9))
    return obs(ta, tb, va, vb, o)


def stacked(groups):
    """One set holding the rows of every group, in order."""
    return Observations(**{c: np.concatenate([getattr(g, c) for g in groups])
                           for c in ("tau_a", "tau_b", "dir_a", "dir_b", "observer")})


class TestAssocConfig:
    def test_lambda_must_be_finite(self):
        with pytest.raises(InvalidParams, match="lambda_"):
            AssocConfig(lambda_=np.nan)


class TestPairCost:
    def test_identical_mpc_zero_cost(self):
        a = obs(30e-9, 30e-9, [1, 0, 0], [1, 0, 0])
        assert pair_cost(a, a, AssocConfig(), 30e-9, 30e-9)[0, 0] == 0.0

    def test_antipodal_gated(self):
        a = obs(30e-9, 30e-9, [1, 0, 0], [1, 0, 0])
        b = obs(30e-9, 30e-9, [-1, 0, 0], [-1, 0, 0])
        assert pair_cost(a, b, AssocConfig(), 30e-9, 30e-9)[0, 0] == float("inf")

    def test_chord_length_identity(self):
        # oracle: squared chord = 2 - 2 cos(angle)
        ang = np.radians(10.0)
        a = obs(30e-9, 0.0, [1, 0, 0], [1, 0, 0])
        b = obs(0.0, 30e-9, [1, 0, 0], [np.cos(ang), np.sin(ang), 0.0])
        cfg = AssocConfig(lambda_=0.0)
        assert pair_cost(a, b, cfg, 30e-9, 30e-9)[0, 0] == pytest.approx(
            2.0 - 2.0 * np.cos(ang), rel=1e-12)

    def test_mean_centering_removes_offsets(self):
        a = obs(30e-9, 0.0, [1, 0, 0], [1, 0, 0])
        b = obs(0.0, 130e-9, [1, 0, 0], [1, 0, 0])
        # b delay = a delay + 100 ns offset; centered terms cancel exactly
        assert pair_cost(a, b, AssocConfig(), 30e-9, 130e-9)[0, 0] == 0.0

    def test_matrix_matches_pairwise_formula(self):
        # reference: the cost of one pair at a time, gate included
        rng = np.random.default_rng(4)
        cfg = AssocConfig(angle_gate=np.radians(60.0))
        ga, gb = random_group(rng, 5), random_group(rng, 3)
        cost = pair_cost(ga, gb, cfg, 50e-9, 60e-9)
        assert cost.shape == (5, 3)
        for k in range(5):
            for l in range(3):
                if np.dot(ga.dir_a[k], gb.dir_b[l]) < np.cos(cfg.angle_gate):
                    assert cost[k, l] == np.inf
                    continue
                delay = (gb.tau_b[l] - 60e-9) - (ga.tau_a[k] - 50e-9)
                want = np.sum((gb.dir_b[l] - ga.dir_a[k]) ** 2) + cfg.lambda_ ** 2 * delay ** 2
                assert cost[k, l] == pytest.approx(want, rel=1e-12)
        assert np.isinf(cost).any() and np.isfinite(cost).any()


class TestAssociate:
    def test_identity_at_zero_distance(self):
        s = sample_scenario(0.0, SvParams(), 2, [4, 4], 3)
        observations = observe(s, NoiseParams(), 0)
        out = associate(observations, observations)
        for o, perm in out.permutation.items():
            np.testing.assert_array_equal(perm, np.arange(len(perm)))
        assert out.total_cost == pytest.approx(0.0, abs=1e-20)

    def test_brute_force_oracle(self):
        # exhaustive-enumeration minimum equals the assignment total, always
        rng = np.random.default_rng(5)
        cfg = AssocConfig(angle_gate=np.pi)  # keep all pairs finite
        for _ in range(100):
            n = int(rng.integers(2, 6))
            ga, gb = random_group(rng, n), random_group(rng, n)
            cost = pair_cost(ga, gb, cfg, np.mean(ga.tau_a), np.mean(gb.tau_b))
            brute = min(sum(cost[k, p[k]] for k in range(n))
                        for p in itertools.permutations(range(n)))
            got = associate(ga, gb, cfg)
            assert got.total_cost == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("force_full", [False, True])
    def test_total_is_the_running_sum_of_kept_finite_costs(self, force_full):
        # bits and type of the pair-by-pair total: observer by observer,
        # A rows ascending, gated pairs (kept or not) adding nothing; groups
        # up to 8 wide give totals of 8 pairs and more, where a pairwise sum
        # (np.sum) would round differently
        rng = np.random.default_rng(17)
        cfg = AssocConfig(angle_gate=np.radians(100.0))
        for _ in range(30):
            sizes = rng.integers(1, 9, size=(3, 2))
            ga, gb = (stacked([random_group(rng, n, o) for o, n in enumerate(side)])
                      for side in sizes.T)
            got = associate(ga, gb, cfg, force_full=force_full)
            want = 0.0
            for o, perm in got.permutation.items():
                rows_a, rows_b = ga.groups[o], gb.groups[o]
                cost = pair_cost(ga[rows_a], gb[rows_b], cfg, np.mean(ga.tau_a[rows_a]),
                                 np.mean(gb.tau_b[rows_b]))
                for k, l in enumerate(perm):
                    if l >= 0 and np.isfinite(cost[k, l]):
                        want += cost[k, l]
            assert repr(got.total_cost) == repr(want)

    def test_rectangular_leaves_extra_unmatched(self):
        rng = np.random.default_rng(6)
        ga, gb = random_group(rng, 4), random_group(rng, 2)
        cfg = AssocConfig(angle_gate=np.pi)
        out = associate(ga, gb, cfg)
        matched = [l for l in out.permutation[0] if l >= 0]
        assert len(matched) == 2
        assert sorted(matched) == sorted(set(matched))

    def test_gated_pairs_stay_unmatched(self):
        a = obs(30e-9, 30e-9, [1, 0, 0], [1, 0, 0])
        b = obs(30e-9, 30e-9, [-1, 0, 0], [-1, 0, 0])
        out = associate(a, b)
        assert out.permutation[0][0] == -1
        assert not out.matched[0][0]

    def test_mostly_correct_at_small_distance(self):
        # d well below the delay-spread scale: association nearly always exact
        correct = 0
        trials = 300
        for seed in range(trials):
            s = sample_scenario(0.5, SvParams(), 1, [4], seed)
            observations = observe(s, NoiseParams(sigma=0.2e-9, eps=5e-9), seed + 1)
            scrambled, perms = scramble_association(observations, seed + 2)
            out = associate(scrambled, scrambled)
            # out maps A slot k -> scrambled B slot l; truth: slot l holds
            # original B index perms[0][l]; A slot k pairs original index k
            recovered = [perms[0][l] for l in out.permutation[0]]
            correct += recovered == list(range(4))
        assert correct / trials >= 0.99

    def test_lambda_zero_ignores_delays(self):
        rng = np.random.default_rng(7)
        ga = random_group(rng, 3)
        gb = obs(ga.tau_a + 1e-6, ga.tau_b + 1e-3, ga.dir_a, ga.dir_a)
        cfg = AssocConfig(lambda_=0.0, angle_gate=np.pi)
        out = associate(ga, gb, cfg)
        np.testing.assert_array_equal(out.permutation[0], np.arange(3))

    def test_lambda_large_recovers_delay_sorting(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ga, gb = random_group(rng, 4), random_group(rng, 4)
            cfg = AssocConfig(lambda_=1e9 / 26.3e-9, angle_gate=np.pi)
            out = associate(ga, gb, cfg)
            ref = associate_by_sorting(ga, gb)
            np.testing.assert_array_equal(out.permutation[0], ref.permutation[0])

    def test_hungarian_no_worse_than_sorting(self):
        rng = np.random.default_rng(9)
        cfg = AssocConfig(angle_gate=np.pi)
        for _ in range(50):
            ga, gb = random_group(rng, 4), random_group(rng, 4)
            cost = pair_cost(ga, gb, cfg, np.mean(ga.tau_a), np.mean(gb.tau_b))
            srt = associate_by_sorting(ga, gb)
            srt_cost = sum(cost[k, l] for k, l in srt.pairs(0))
            assert associate(ga, gb, cfg).total_cost <= srt_cost + 1e-12

    def test_bijective_on_matched(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            ga, gb = random_group(rng, 5), random_group(rng, 5)
            out = associate(ga, gb)
            matched = [l for l in out.permutation[0] if l >= 0]
            assert len(matched) == len(set(matched))

    @pytest.mark.parametrize("force_full", [False, True])
    def test_empty_set_gives_the_empty_assignment(self, force_full):
        empty = obs(np.zeros(0), np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))
        out = associate(empty, empty, force_full=force_full)
        assert out == associate_by_sorting(empty, empty)
        assert out.permutation == {} and out.matched == {}
        assert out.total_cost == 0.0 and isinstance(out.total_cost, float)
        assert len(apply_assignment(empty, empty, out)) == 0


class TestSorting:
    def test_identity_on_sorted_inputs(self):
        ex = np.tile([1.0, 0.0, 0.0], (3, 1))
        ga = obs(np.array([20.0, 30.0, 40.0]) * 1e-9, np.zeros(3), ex, ex)
        gb = obs(np.zeros(3), np.array([21.0, 31.0, 41.0]) * 1e-9, ex, ex)
        out = associate_by_sorting(ga, gb)
        np.testing.assert_array_equal(out.permutation[0], np.arange(3))

    def test_order_swap_breaks_sorting(self):
        # true pairing: A (20, 30) ns <-> B (33, 31) ns: the B-side order is
        # reversed, so rank pairing returns the wrong association
        ex = np.tile([1.0, 0.0, 0.0], (2, 1))
        ga = obs([20e-9, 30e-9], np.zeros(2), ex, ex)
        gb = obs(np.zeros(2), [33e-9, 31e-9], ex, ex)
        out = associate_by_sorting(ga, gb)
        assert list(out.permutation[0]) == [1, 0]  # != identity = truth

    def test_requires_equal_counts(self):
        rng = np.random.default_rng(11)
        with pytest.raises(InvalidParams):
            associate_by_sorting(random_group(rng, 3), random_group(rng, 2))


class TestApplyAssignment:
    def test_merges_pairs(self):
        rng = np.random.default_rng(12)
        ga, gb = random_group(rng, 3), random_group(rng, 3)
        out = associate(ga, gb, AssocConfig(angle_gate=np.pi))
        merged = apply_assignment(ga, gb, out)
        k, l = np.array(out.pairs(0)).T
        np.testing.assert_array_equal(merged.tau_a, ga.tau_a[k])
        np.testing.assert_array_equal(merged.tau_b, gb.tau_b[l])
        np.testing.assert_array_equal(merged.dir_a, ga.dir_a[k])
        np.testing.assert_array_equal(merged.dir_b, gb.dir_b[l])

    def test_observer_missing_from_a_side_raises(self):
        rng = np.random.default_rng(13)
        both = sample_scenario(2.0, SvParams(), 2, [3, 3], rng)
        full = observe(both, NoiseParams(sigma=0.2e-9), rng)
        assignment = associate(full, full)
        for obs_a, obs_b in ((full, full[:3]), (full[:3], full)):
            with pytest.raises(InvalidParams, match="obs_a or obs_b lacks"):
                apply_assignment(obs_a, obs_b, assignment)
        assert len(apply_assignment(full, full, assignment)) == 6

    @pytest.mark.parametrize("perm", [[0, 1, 5], [0, 1], [0, 1, 2, 3], [-2, 0, 1],
                                      [[0, 1, 2]]])
    def test_out_of_range_or_wrong_length_permutation_raises(self, perm):
        rng = np.random.default_rng(14)
        ga, gb = random_group(rng, 3), random_group(rng, 3)
        with pytest.raises(InvalidParams, match="one entry per A-side MPC"):
            apply_assignment(ga, gb, Assignment(permutation={0: perm}, matched={}))

    def test_index_of_another_observers_rows_raises(self):
        # B index 3 exists in obs_b, but not among observer 0's three rows
        rng = np.random.default_rng(15)
        full = observe(sample_scenario(2.0, SvParams(), 2, [3, 3], rng),
                       NoiseParams(sigma=0.2e-9), rng)
        bad = Assignment(permutation={0: [0, 1, 3], 1: [0, 1, 2]}, matched={})
        with pytest.raises(InvalidParams, match="below 3"):
            apply_assignment(full, full, bad)

    def test_duplicate_b_index_raises(self):
        rng = np.random.default_rng(16)
        ga, gb = random_group(rng, 3), random_group(rng, 3)
        with pytest.raises(InvalidParams, match="two A-side MPCs"):
            apply_assignment(ga, gb, Assignment(permutation={0: [0, 0, 1]}, matched={}))
        merged = apply_assignment(ga, gb, Assignment(permutation={0: [2, -1, 0]}, matched={}))
        np.testing.assert_array_equal(merged.tau_b, gb.tau_b[[2, 0]])
