import numpy as np
import pytest

from uwbrel.chansim import (
    NoiseParams,
    Observations,
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
from uwbrel.geom import SPEED_OF_LIGHT as C, group_by_observer


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["cluster_mean", "ray_mean", "cluster_decay",
                                      "ray_decay", "tau_min"])
    def test_rejects_non_finite_params(self, name, bad):
        with pytest.raises(InvalidParams, match=f"{name} must be finite and positive"):
            SvParams(**{name: bad})

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
        np.testing.assert_allclose(s.mpcs.tau_a, s.mpcs.tau_b, rtol=1e-15)
        np.testing.assert_allclose(s.mpcs.dir_a, s.mpcs.dir_b, atol=1e-12)

    def test_minimum_delay_floor(self):
        s = sample_scenario(2.0, SvParams(), 3, [4, 4, 4], 6)
        assert (s.mpcs.tau_a >= 16.7e-9).all()

    def test_invariants_hold(self):
        for seed in range(5):
            sample_scenario(5.0, SvParams(), 2, [4, 4], seed).validate()

    def test_direction_uniformity(self):
        rng = np.random.default_rng(2)
        dirs = sample_unit_directions(rng, 10000)
        assert np.linalg.norm(dirs.mean(axis=0)) < 0.05

    def test_bad_args(self):
        for bad_d in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidParams):
                sample_scenario(bad_d, SvParams(), 1, [4], 0)
        with pytest.raises(InvalidParams):
            sample_scenario(1.0, SvParams(), 0, [], 0)

    @pytest.mark.parametrize("m, k_per", [
        (1, 4.5), (1, [4.5]), (2, [4, 4.0]), (1.5, 4), (1.5, [4]), (np.float64(2.0), [4, 4]),
    ])
    def test_non_integral_counts_rejected(self, m, k_per):
        # 4.5 MPCs were truncated to 4, and 1.5 observers raised a TypeError
        name = "m_observers" if isinstance(m, float) else "k_per_observer"
        with pytest.raises(InvalidParams, match=f"{name}: .* is not an integer count"):
            sample_scenario(2.0, SvParams(), m, k_per, 0)

    @pytest.mark.parametrize("m, k_per", [
        (np.int64(2), [3, 3]), (2, np.array([3, 3])), (2, np.int32(3)), (2, 3),
    ])
    def test_numpy_and_python_integer_counts_draw_alike(self, m, k_per):
        want = sample_scenario(2.0, SvParams(), 2, [3, 3], 4).mpcs
        got = sample_scenario(2.0, SvParams(), m, k_per, 4).mpcs
        for name in ("tau_a", "tau_b", "dir_a", "dir_b", "observer"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestObserve:
    @pytest.mark.parametrize("bad", [dict(sigma=np.nan), dict(sigma=-1e-9), dict(sigma=np.inf),
                                     dict(sigma_dir=np.nan)])
    def test_bad_noise_params(self, bad):
        with pytest.raises(InvalidParams):
            NoiseParams(**bad)

    @pytest.mark.parametrize("bad", [dict(eps=np.nan), dict(eps=-np.inf),
                                     dict(eps_a_per_observer=(np.inf, 0.0)),
                                     dict(eps_a_per_observer=(0.0, np.nan))])
    def test_non_finite_clock_offsets_rejected(self, bad):
        # named as clock offsets, not left for observe to blame the delays
        with pytest.raises(InvalidParams, match="clock offset"):
            NoiseParams(**bad)

    def test_zero_noise_is_identity(self):
        s = sample_scenario(2.0, SvParams(), 2, [3, 3], 1)
        obs = observe(s, NoiseParams(), 0)
        np.testing.assert_array_equal(obs.tau_a, s.mpcs.tau_a)
        np.testing.assert_array_equal(obs.tau_b, s.mpcs.tau_b)
        np.testing.assert_array_equal(obs.dir_a, s.mpcs.dir_a)
        np.testing.assert_array_equal(obs.dir_b, s.mpcs.dir_b)
        np.testing.assert_array_equal(obs.observer, [0, 0, 0, 1, 1, 1])

    def test_clock_offset_shifts_delay_difference(self):
        s = sample_scenario(2.0, SvParams(), 2, [3, 3], 1)
        obs = observe(s, NoiseParams(eps=5e-9, eps_a_per_observer=(12e-9, -3e-9)), 0)
        true_diff = s.mpcs.tau_b - s.mpcs.tau_a
        np.testing.assert_allclose(obs.tau_b - obs.tau_a, true_diff + 5e-9, rtol=0, atol=1e-21)

    def test_delay_noise_moments(self):
        s = sample_scenario(2.0, SvParams(), 1, [100], 3)
        sigma = 0.2e-9
        true_diff = s.mpcs.tau_b - s.mpcs.tau_a
        rng = np.random.default_rng(8)
        resid = np.concatenate([
            (obs.tau_b - obs.tau_a) - true_diff - 5e-9
            for obs in (observe(s, NoiseParams(sigma=sigma, eps=5e-9), rng) for _ in range(1000))
        ])
        assert resid.std() == pytest.approx(sigma, rel=0.02)
        assert abs(resid.mean()) < 3 * sigma / np.sqrt(resid.size)

    def test_direction_noise_moments(self):
        rng = np.random.default_rng(4)
        sigma_dir = np.radians(5.0)
        u = np.array([0.0, 0.0, 1.0])
        draws = np.array([(rng.normal(0.0, sigma_dir), rng.uniform(0.0, 2.0 * np.pi))
                          for _ in range(100000)])
        v = perturb_direction(np.tile(u, (len(draws), 1)), draws[:, 0], draws[:, 1])
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12
        angles = np.arccos(np.clip(v @ u, -1.0, 1.0))
        assert np.mean(angles ** 2) == pytest.approx(sigma_dir ** 2, rel=0.05)

    @pytest.mark.parametrize("deg", [2.0, 8.0, 24.0])
    def test_perturbation_matches_the_per_vector_rotation(self, deg):
        # reference: the rotation of one vector at a time, as observe once did
        def rotate(u, alpha, phi):
            helper = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
            e1 = np.cross(u, helper)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(u, e1)
            axis = np.cos(phi) * e1 + np.sin(phi) * e2
            out = np.cos(alpha) * u + np.sin(alpha) * axis
            return out / np.linalg.norm(out)

        rng = np.random.default_rng(int(deg))
        u = sample_unit_directions(rng, 2000)
        alpha = rng.normal(0.0, np.radians(deg), u.shape[0])
        phi = rng.uniform(0.0, 2.0 * np.pi, u.shape[0])
        want = np.array([rotate(*args) for args in zip(u, alpha, phi)])
        np.testing.assert_array_equal(perturb_direction(u, alpha, phi), want)


    def test_cross_products_have_np_cross_bits(self):
        """The rows' cross products are ``np.cross``'s, bit for bit (signed
        zeros included), on random rows, on the axis-aligned rows that
        ``perturb_direction`` pairs them with, and on rows with zero entries."""
        from uwbrel.chansim import _cross

        rng = np.random.default_rng(21)
        axes = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0],
                         [0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [-0.0, 0.0, -0.0], [0.0, 0.0, 0.0]])
        random = sample_unit_directions(rng, 500)
        pairs = [(random, sample_unit_directions(rng, 500)), (random, rng.normal(size=(500, 3))),
                 *((random, np.tile(axis, (500, 1))) for axis in axes),
                 (np.repeat(axes, 8, axis=0), np.tile(axes, (8, 1))),
                 (np.where(rng.random((500, 3)) < 0.3, 0.0, random), random)]
        for a, b in pairs:
            for u, v in ((a, b), (b, a)):
                assert _cross(u, v).tobytes() == np.cross(u, v).tobytes()

    @pytest.mark.parametrize("sigma", [1e-12, 0.2e-9, 3e-9])
    def test_delay_noise_without_direction_noise_is_the_scalar_stream(self, sigma):
        """Without direction noise the delay noise is drawn as one array; it
        equals the MPC-by-MPC scalar draws (tau_a, then tau_b, per row) and
        leaves the stream where they leave it."""
        side = sigma / np.sqrt(2.0)
        for seed in range(40):
            k_per = [[4, 4, 4], [7], [1, 5], [2, 3, 1, 2]][seed % 4]
            s = sample_scenario(2.0, SvParams(), len(k_per), k_per, seed)
            eps_a = tuple(np.linspace(-20e-9, 30e-9, len(k_per)))
            noise = NoiseParams(sigma=sigma, eps=5e-9, eps_a_per_observer=eps_a)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            obs = observe(s, noise, rng)
            draws = np.array([(ref.normal(0.0, side), ref.normal(0.0, side))
                              for _ in range(s.k_total)])
            e_a = np.array(eps_a)[s.mpcs.observer]
            np.testing.assert_array_equal(obs.tau_a, s.mpcs.tau_a + draws[:, 0] + e_a)
            np.testing.assert_array_equal(obs.tau_b, s.mpcs.tau_b + draws[:, 1] + (e_a + 5e-9))
            np.testing.assert_array_equal(obs.dir_a, s.mpcs.dir_a)
            assert rng.random() == ref.random()


class TestScramble:
    def _obs(self, k_per, seed=0):
        s = sample_scenario(2.0, SvParams(), len(k_per), list(k_per), seed)
        return observe(s, NoiseParams(), 0)

    def test_single_mpc_identity(self):
        obs = self._obs([1, 1])
        scrambled, perms = scramble_association(obs, 7)
        assert all(list(p) == [0] for p in perms.values())
        np.testing.assert_array_equal(scrambled.tau_b, obs.tau_b)

    def test_deterministic(self):
        obs = self._obs([4, 4])
        s1, p1 = scramble_association(obs, 99)
        s2, p2 = scramble_association(obs, 99)
        for o in p1:
            np.testing.assert_array_equal(p1[o], p2[o])
        np.testing.assert_array_equal(s1.tau_b, s2.tau_b)

    def test_a_side_untouched_b_side_permuted(self):
        obs = self._obs([4])
        scrambled, perms = scramble_association(obs, 3)
        perm = perms[0]
        np.testing.assert_array_equal(scrambled.tau_a, obs.tau_a)
        np.testing.assert_array_equal(scrambled.dir_a, obs.dir_a)
        np.testing.assert_array_equal(scrambled.tau_b, obs.tau_b[perm])
        np.testing.assert_array_equal(scrambled.dir_b, obs.dir_b[perm])

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
        interleaved = obs[[0, 3, 1, 4, 2, 5]]
        groups = group_by_observer(interleaved.observer)
        assert list(groups) == [0, 1]  # first-appearance order
        np.testing.assert_array_equal(groups[0], [0, 2, 4])
        np.testing.assert_array_equal(groups[1], [1, 3, 5])
        scrambled, perms = scramble_association(interleaved, 11)
        np.testing.assert_array_equal(scrambled.observer, interleaved.observer)
        np.testing.assert_array_equal(scrambled.tau_a, interleaved.tau_a)
        for o, rows in groups.items():
            np.testing.assert_array_equal(scrambled.tau_b[rows],
                                          interleaved.tau_b[rows[perms[o]]])


def _columns(k=2, **changes):
    cols = dict(tau_a=np.full(k, 20e-9), tau_b=np.full(k, 21e-9),
                dir_a=np.tile([1.0, 0.0, 0.0], (k, 1)), dir_b=np.tile([0.0, 1.0, 0.0], (k, 1)),
                observer=np.arange(k))
    cols.update(changes)
    return cols


_SET_CASES = [
    *(pytest.param({side: np.array([20e-9, bad])}, False, id=f"{bad}-{side}")
      for side in ("tau_a", "tau_b") for bad in (np.nan, np.inf, -np.inf)),
    pytest.param(dict(dir_a=np.tile([1.0, 0.0], (2, 1))), False, id="k-by-2-directions"),
    pytest.param(dict(dir_b=np.array([[0.0, 1.0, 0.0]])), False, id="short-dir_b"),
    pytest.param(dict(tau_a=np.full(3, 20e-9)), False, id="long-tau_a"),
    pytest.param(dict(observer=[0]), False, id="short-observer"),
    pytest.param(dict(dir_a=np.array([[1.0, 0.0, 0.0], [1.0, 1e-5, 0.0]])), False,
                 id="non-unit-dir_a"),
    pytest.param(dict(dir_b=np.array([[0.0, 1.0, 0.0], [0.0, 1.0 + 1e-11, 0.0]])), False,
                 id="non-unit-dir_b"),
    pytest.param(dict(observer=[0.0, 1.0]), False, id="float-observer"),
    pytest.param(dict(tau_a=np.zeros(2), tau_b=np.zeros(2)), True, id="zero-delays"),
    pytest.param(dict(tau_a=np.full(2, -35e-9), tau_b=np.full(2, -35e-9)), True,
                 id="negative-delays"),
    pytest.param(dict(dir_a=np.array([[1.0, 0.0, 0.0], [0.0, 1.0 + 1e-13, 0.0]])), True,
                 id="unit-within-tolerance"),
]
# the cases above that change values, not shapes: each holds in every set of a stack
_VALUE_CASES = [case for case in _SET_CASES if "observer" not in case.values[0] and all(
    np.shape(v) == np.shape(_columns()[k]) for k, v in case.values[0].items())]


class TestObservations:
    @pytest.mark.parametrize("changes, accepted", _SET_CASES)
    def test_columns_checked_on_construction(self, changes, accepted):
        if not accepted:
            with pytest.raises(InvalidParams):
                Observations(**_columns(**changes))
            return
        obs = Observations(**_columns(**changes))
        assert len(obs) == 2
        np.testing.assert_array_equal(obs.tau_a, changes.get("tau_a", obs.tau_a))
        with pytest.raises(ValueError):
            obs.tau_a[0] = 1.0  # stored read-only

    @pytest.mark.parametrize("changes, accepted", _VALUE_CASES)
    def test_stack_checked_in_every_set(self, changes, accepted):
        # a stack built by the constructor is checked once, for all its sets: a case
        # in any one set is rejected or accepted as that set alone is
        assert len(_VALUE_CASES) == 11
        for t in range(3):
            cols = _columns()
            stacked = {k: np.stack([changes.get(k, v) if i == t else v for i in range(3)])
                       for k, v in cols.items() if k != "observer"}
            if not accepted:
                with pytest.raises(InvalidParams):
                    Observations(**stacked, observer=cols["observer"])
                continue
            stack = Observations(**stacked, observer=cols["observer"])
            assert stack.tau_a.shape == (3, 2) and len(stack) == 2
            np.testing.assert_array_equal(stack.tau_a[t], changes.get("tau_a", cols["tau_a"]))
            with pytest.raises(ValueError):
                stack.dir_b[t, 0, 0] = 1.0  # stored read-only

    @pytest.mark.parametrize("changes", [
        pytest.param(dict(tau_a=np.full((3, 3), 20e-9)), id="tau_a-K-not-observer-K"),
        pytest.param(dict(tau_b=np.full((3, 3), 21e-9)), id="tau_b-K-not-observer-K"),
        pytest.param(dict(tau_a=np.full((3, 3), 20e-9), tau_b=np.full((3, 3), 21e-9),
                          dir_a=np.tile([1.0, 0.0, 0.0], (3, 3, 1)),
                          dir_b=np.tile([0.0, 1.0, 0.0], (3, 3, 1))), id="every-K-not-observer-K"),
        pytest.param(dict(tau_b=np.full((2, 2), 21e-9)), id="tau_b-other-T"),
        pytest.param(dict(tau_a=np.full(2, 20e-9), tau_b=np.full(2, 21e-9)), id="set-delays"),
        pytest.param(dict(dir_a=np.tile([1.0, 0.0, 0.0], (2, 1))), id="set-dir_a"),
        pytest.param(dict(dir_b=np.tile([0.0, 1.0], (3, 2, 1))), id="T-by-K-by-2-dir_b"),
        pytest.param(dict(tau_a=np.full((1, 3, 2), 20e-9), tau_b=np.full((1, 3, 2), 21e-9),
                          dir_a=np.tile([1.0, 0.0, 0.0], (1, 3, 2, 1)),
                          dir_b=np.tile([0.0, 1.0, 0.0], (1, 3, 2, 1))), id="three-axis-delays"),
        pytest.param(dict(observer=np.zeros((3, 2), dtype=int)), id="stacked-observer"),
    ])
    def test_stack_shapes_checked(self, changes):
        cols = {k: v if k == "observer" else np.stack([v] * 3) for k, v in _columns().items()}
        cols.update(changes)
        with pytest.raises(InvalidParams, match="need shape"):
            Observations(**cols)

    def test_rows_of_a_set_are_a_set(self):
        obs = Observations(**_columns(k=4))
        part = obs[1:3]
        assert isinstance(part, Observations) and len(part) == 2
        np.testing.assert_array_equal(part.observer, [1, 2])
        assert len(obs[np.zeros(4, dtype=bool)]) == 0


class TestCsv:
    def test_header_and_rows(self):
        s = sample_scenario(2.0, SvParams(), 2, [2, 2], 0)
        obs = observe(s, NoiseParams(sigma=0.1e-9), 1)
        text = scenario_csv(s, obs)
        lines = text.strip().split("\n")
        assert lines[0] == ("observer,mpc,tau_a_true,tau_b_true,sax,say,saz,"
                            "sbx,sby,sbz,tau_a_meas,tau_b_meas,max,may,maz,mbx,mby,mbz")
        assert len(lines) == 1 + s.k_total
        # observer, then the row's position within its observer group
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
