from dataclasses import replace

import numpy as np
import pytest

from uwbrel.errors import DegenerateGeometry, InvalidParams
from uwbrel.geom import (
    SPEED_OF_LIGHT as C,
    Observations,
    Scenario,
    complete_mpc,
    group_by_observer,
    positions_in_group,
    projection_residual,
    pwa_residual,
)

ORIGIN = np.zeros(3)
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def scenario_from_a_side(pos_b, tau_a, dir_a, observer=None):
    """A scenario with node A at the origin, completed from A-side rows."""
    tau_a, dir_a = np.atleast_1d(tau_a), np.atleast_2d(dir_a)
    tau_b, dir_b, degenerate = complete_mpc(ORIGIN, pos_b, tau_a, dir_a)
    assert not degenerate.any()
    observer = np.zeros(tau_a.size, dtype=int) if observer is None else observer
    return Scenario(pos_a=ORIGIN, pos_b=pos_b, mpcs=Observations(
        tau_a=tau_a, tau_b=tau_b, dir_a=dir_a, dir_b=dir_b, observer=observer))


def random_scenario(rng, k=6, d=2.0, observer=None):
    tau_a, dir_a = np.empty(k), np.empty((k, 3))
    for i in range(k):
        v = rng.normal(size=3)
        dir_a[i] = v / np.linalg.norm(v)
        tau_a[i] = rng.uniform(17e-9, 120e-9)
    return scenario_from_a_side(np.array([d, 0.0, 0.0]), tau_a, dir_a, observer)


class TestCompleteMpc:
    def test_zero_displacement_symmetry(self):
        tau_b, dir_b, _ = complete_mpc(ORIGIN, ORIGIN, 5.0 / C, EY)
        assert tau_b == pytest.approx(5.0 / C, abs=0)
        np.testing.assert_allclose(dir_b, EY, atol=1e-15)

    def test_collinear_path_adds_distance(self):
        tau_b, dir_b, _ = complete_mpc(ORIGIN, 2.0 * EX, 5.0 / C, EX)
        assert tau_b * C == pytest.approx(7.0, abs=1e-12)
        np.testing.assert_allclose(dir_b, EX, atol=1e-15)

    def test_perpendicular_case_vector_oracle(self):
        # oracle: direct vector arithmetic on the B-side leg (2, 5, 0)
        m = scenario_from_a_side(2.0 * EX, 5.0 / C, EY).mpcs
        leg = np.array([2.0, 5.0, 0.0])
        assert m.tau_b[0] == pytest.approx(np.linalg.norm(leg) / C, rel=1e-15)
        np.testing.assert_allclose(m.dir_b[0], leg / np.linalg.norm(leg), atol=1e-15)
        # the delay-difference bound and both identities hold
        d = 2.0 * EX
        assert abs(C * (m.tau_b[0] - m.tau_a[0])) <= 2.0 + 1e-12
        recon = C * m.tau_b[0] * m.dir_b[0] - C * m.tau_a[0] * m.dir_a[0]
        np.testing.assert_allclose(recon, d, atol=1e-12)
        assert abs(projection_residual(m, d)[0]) < 1e-9

    def test_degenerate_virtual_source_on_b(self):
        _, _, degenerate = complete_mpc(ORIGIN, -5.0 * EX, 5.0 / C, EX)
        assert degenerate
        # row by row: only the row whose virtual source sits on B is flagged
        tau_a = np.array([5.0, 5.0, 7.0]) / C
        dir_a = np.array([EY, EX, EX])
        tau_b, dir_b, degenerate = complete_mpc(ORIGIN, -5.0 * EX, tau_a, dir_a)
        np.testing.assert_array_equal(degenerate, [False, True, False])
        assert tau_b.shape == (3,) and dir_b.shape == (3, 3)
        assert tau_b[2] * C == pytest.approx(2.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        # completed rows are checked where the scenario is built
        with pytest.raises(DegenerateGeometry):
            scenario_from_a_side(2.0 * EX, -1e-9, EX)
        with pytest.raises(InvalidParams):
            scenario_from_a_side(2.0 * EX, 5.0 / C, 2.0 * EX)


class TestDelayDiff:
    def test_equal_delays(self):
        tau_b, _, _ = complete_mpc(ORIGIN, ORIGIN, 5.0 / C, EX)
        assert tau_b - 5.0 / C == 0.0

    def test_collinear_equals_d_over_c(self):
        tau_b, _, _ = complete_mpc(ORIGIN, 2.0 * EX, 5.0 / C, EX)
        assert tau_b - 5.0 / C == pytest.approx(2.0 / C, rel=1e-12)

    def test_perpendicular_vector_oracle(self):
        tau_b, _, _ = complete_mpc(ORIGIN, 2.0 * EX, 5.0 / C, EY)
        assert tau_b - 5.0 / C == pytest.approx((np.sqrt(29.0) - 5.0) / C, rel=1e-12)


class TestResiduals:
    def test_projection_identity_by_construction(self):
        rng = np.random.default_rng(11)
        s = random_scenario(rng)
        residual = projection_residual(s.mpcs, s.d_vec)
        assert residual.shape == (6,) and (np.abs(residual) < 1e-9).all()

    def test_projection_zero_displacement(self):
        m = scenario_from_a_side(ORIGIN, 5.0 / C, EX).mpcs
        assert projection_residual(m, np.zeros(3)) == 0.0

    def test_projection_identity_randomized(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            d = rng.uniform(0.0, 8.0)
            s = random_scenario(rng, k=3, d=d)
            worst = max(worst, np.abs(projection_residual(s.mpcs, s.d_vec)).max())
        assert worst < 1e-9

    def test_pwa_zero_cases(self):
        m = scenario_from_a_side(ORIGIN, 5.0 / C, EX).mpcs
        assert pwa_residual(m, np.zeros(3)) == 0.0
        m = scenario_from_a_side(2.0 * EX, 5.0 / C, EX).mpcs
        assert pwa_residual(m, 2.0 * EX)[0] == pytest.approx(0.0, abs=1e-12)

    def test_pwa_perpendicular_value_and_decay(self):
        d = 2.0 * EX
        m = scenario_from_a_side(d, 5.0 / C, EY).mpcs
        assert pwa_residual(m, d)[0] == pytest.approx(-(np.sqrt(29.0) - 5.0), rel=1e-12)
        # |residual| shrinks monotonically as the path gets longer
        taus = np.array([5.0, 10.0, 40.0, 200.0, 1000.0]) / C
        res = np.abs(pwa_residual(scenario_from_a_side(d, taus, np.tile(EY, (5, 1))).mpcs, d))
        assert (res[:-1] > res[1:]).all()

    def test_pwa_far_field_limit(self):
        d_norm = 2.0
        d = d_norm * EX
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=3)
            dir_a = v / np.linalg.norm(v)
            m = scenario_from_a_side(d, 1000.0 * d_norm / C, dir_a).mpcs
            assert abs(pwa_residual(m, d)[0]) < 1e-3 * d_norm


class TestScenario:
    def test_validate_accepts_consistent(self):
        random_scenario(np.random.default_rng(0)).validate()

    def test_validate_rejects_tampered(self):
        s = random_scenario(np.random.default_rng(1))
        tau_a = s.mpcs.tau_a.copy()
        tau_a[0] *= 1.5
        tampered = Scenario(pos_a=s.pos_a, pos_b=s.pos_b, mpcs=replace(s.mpcs, tau_a=tau_a))
        with pytest.raises(DegenerateGeometry):
            tampered.validate()

    @pytest.mark.parametrize("row, name", [(0, r"\(0,0\)"), (4, r"\(1,1\)"), (5, r"\(0,3\)")])
    def test_validate_names_the_first_bad_row(self, row, name):
        # observers interleaved: rows 0, 1, 3, 5 belong to observer 0
        s = random_scenario(np.random.default_rng(1), observer=[0, 0, 1, 0, 1, 0])
        tau_b = s.mpcs.tau_b.copy()
        tau_b[row] *= 1.5
        tampered = replace(s, mpcs=replace(s.mpcs, tau_b=tau_b))
        with pytest.raises(DegenerateGeometry, match=name + " violates the vector identity"):
            tampered.validate()

    def test_counts(self):
        s = random_scenario(np.random.default_rng(2), k=5)
        assert s.k_total == 5
        assert s.k_per_observer() == {0: 5}
        s = random_scenario(np.random.default_rng(2), k=5, observer=[2, 2, 0, 2, 0])
        assert s.k_per_observer() == {2: 3, 0: 2}


class TestGroups:
    OBSERVER = [2, 2, 0, 2, 1, 0]

    def _obs(self):
        return random_scenario(np.random.default_rng(4), k=6, observer=self.OBSERVER).mpcs

    @staticmethod
    def _same(groups, want):
        assert list(groups) == list(want)
        for o in want:
            np.testing.assert_array_equal(groups[o], want[o])

    def test_equals_group_by_observer(self):
        obs = self._obs()
        self._same(obs.groups, group_by_observer(obs.observer))
        assert obs.groups is obs.groups  # computed once per set

    def test_read_only(self):
        groups = self._obs().groups
        for rows in groups.values():
            with pytest.raises(ValueError):
                rows[0] = 5
        with pytest.raises(TypeError):
            groups[7] = np.arange(2)

    @pytest.mark.parametrize("select", [slice(1, 5), np.array([5, 0, 4, 1]),
                                        np.array([True, False, True, True, False, True])])
    def test_a_selection_groups_its_own_rows(self, select):
        obs = self._obs()
        obs.groups  # noqa: B018 -- cache the parent's grouping first
        part = obs[select]
        self._same(part.groups, group_by_observer(np.asarray(self.OBSERVER)[select]))

    def test_replace_groups_its_own_rows(self):
        obs = self._obs()
        obs.groups  # noqa: B018 -- cache the parent's grouping first
        moved = replace(obs, observer=np.array([0, 1, 1, 0, 0, 3]))
        self._same(moved.groups, group_by_observer([0, 1, 1, 0, 0, 3]))


class TestPositionsInGroup:
    def test_non_contiguous_ids(self):
        np.testing.assert_array_equal(positions_in_group([2, 0, 2, 1, 0]), [0, 0, 1, 0, 1])

    def test_empty(self):
        got = positions_in_group(np.array([], dtype=int))
        assert got.shape == (0,)
