"""Oracle for the columnar scenario sampler.

``reference_sample_scenario`` is the sampler as it was written one MPC at a
time: each MPC is completed on its own and, when its virtual source lands on
node B, redrawn with one scalar excess delay and one direction, 100 attempts
in all.  ``chansim.sample_scenario`` completes each observer's rows at once
and redraws only the flagged rows; every column must come out bit for bit
the same, including when many rows take the redraw path and when the
attempts run out.  ``chansim.sample_stack`` draws T sets at once, each from
its own generator: set t must be the set its generator draws alone, redraws
and exhaustion included, and ``observe_stack`` likewise.
"""

from dataclasses import replace

import numpy as np
import pytest

from uwbrel import geom
from uwbrel.chansim import (NoiseParams, Observations, SvParams, observe, observe_stack,
                            sample_excess_delays, sample_scenario, sample_stack,
                            sample_unit_directions)
from uwbrel.errors import DegenerateGeometry, InvalidParams
from uwbrel.geom import Scenario
from uwbrel.geom import SPEED_OF_LIGHT as C

PARAMS = SvParams()


def _reference_complete(pos_a, pos_b, tau_a, dir_a, c):
    """One MPC's B side, or DegenerateGeometry for any row the sampler must redraw."""
    leg_b = (pos_b - pos_a) + c * tau_a * dir_a
    norm_b = np.linalg.norm(leg_b)
    if tau_a <= 0 or abs(np.linalg.norm(dir_a) - 1.0) > geom.UNIT_TOL:
        raise DegenerateGeometry("bad A side")
    if norm_b < geom._COINCIDENCE_EPS:
        raise DegenerateGeometry("virtual source coincides with node B")
    dir_b = leg_b / norm_b
    if norm_b / c <= 0 or abs(np.linalg.norm(dir_b) - 1.0) > geom.UNIT_TOL:
        raise DegenerateGeometry("bad B side")
    return float(norm_b / c), dir_b


def reference_sample_scenario(d, params, m_observers, k_per_observer, rng_seed, c=C):
    """The per-MPC sampling loop; returns the five columns and each row's
    attempt count."""
    rng = np.random.default_rng(rng_seed)
    pos_a, pos_b = np.zeros(3), np.array([d, 0.0, 0.0])
    rows = []
    for o, k_o in enumerate(k_per_observer):
        excess = sample_excess_delays(params, k_o, rng)
        dirs = sample_unit_directions(rng, k_o)
        for k in range(k_o):
            tau_a, dir_a = params.tau_min + excess[k], dirs[k]
            for attempt in range(100):
                try:
                    tau_b, dir_b = _reference_complete(pos_a, pos_b, tau_a, dir_a, c)
                    break
                except DegenerateGeometry:
                    tau_a = params.tau_min + sample_excess_delays(params, 1, rng)[0]
                    dir_a = sample_unit_directions(rng, 1)[0]
            else:
                raise DegenerateGeometry("could not draw a non-degenerate MPC")
            rows.append((o, tau_a, tau_b, dir_a, dir_b, attempt + 1))
    observer, tau_a, tau_b, dir_a, dir_b, attempts = zip(*rows)
    columns = dict(tau_a=np.array(tau_a), tau_b=np.array(tau_b), dir_a=np.array(dir_a),
                   dir_b=np.array(dir_b), observer=np.array(observer))
    return columns, np.array(attempts)


def _assert_same_draw(args):
    """Both samplers on generators seeded alike: equal column bytes, and
    equal stream positions afterwards (the same number of draws)."""
    seed = args[-1]
    rng_want, rng_got = np.random.default_rng(seed), np.random.default_rng(seed)
    want, attempts = reference_sample_scenario(*args[:-1], rng_want)
    got = sample_scenario(*args[:-1], rng_got).mpcs
    for name, column in want.items():
        have = getattr(got, name)
        assert have.dtype == column.dtype and have.shape == column.shape, name
        assert have.tobytes() == column.tobytes(), name
    assert rng_got.random() == rng_want.random()
    return attempts


SHAPES = [(2.0, 3, [4, 4, 4]), (0.0, 2, [3, 3]), (2.0, 1, [7]), (5.0, 3, [4, 5, 8])]


@pytest.mark.parametrize("d, m, k_per", SHAPES)
def test_columns_match_the_per_mpc_loop(d, m, k_per):
    for seed in range(25):
        _assert_same_draw((d, PARAMS, m, k_per, seed))


@pytest.mark.parametrize("d, m, k_per", SHAPES)
def test_redrawn_rows_match(monkeypatch, d, m, k_per):
    # a 15 m coincidence radius flags every path shorter than about 15 m
    # beyond B, so many rows take the redraw path, several per observer
    monkeypatch.setattr(geom, "_COINCIDENCE_EPS", 15.0)
    attempts = np.concatenate([_assert_same_draw((d, PARAMS, m, k_per, seed))
                               for seed in range(25)])
    assert (attempts > 1).mean() > 0.2 and attempts.max() > 5


# At d = 0 and a 28 m coincidence radius about one draw in 26 survives, so
# a single MPC needs about 26 attempts.  Seed 791 succeeds on the last of
# the 100 attempts; seed 1082 would succeed on a 101st, which the sampler
# must not make.
_HARD_EPS = 28.0


def test_success_on_the_last_attempt(monkeypatch):
    monkeypatch.setattr(geom, "_COINCIDENCE_EPS", _HARD_EPS)
    assert _assert_same_draw((0.0, PARAMS, 1, [1], 791)).tolist() == [100]


def test_exhaustion_raises_on_the_same_draw(monkeypatch):
    monkeypatch.setattr(geom, "_COINCIDENCE_EPS", _HARD_EPS)
    args = (0.0, PARAMS, 1, [1], 1082)
    with pytest.raises(DegenerateGeometry, match="could not draw"):
        reference_sample_scenario(*args)
    with pytest.raises(DegenerateGeometry, match="could not draw"):
        sample_scenario(*args)


# --- stacks: T generators drawn at once must give the T sets each draws alone ---

def _assert_stack_is_the_sets(args, seeds):
    """``sample_stack`` over one generator per seed against the per-MPC loop on
    each seed alone: equal column bytes per set and equal stream positions."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    got = sample_stack(*args, rngs)
    attempts = []
    for t, seed in enumerate(seeds):
        rng_want = np.random.default_rng(seed)
        want, tries = reference_sample_scenario(*args, rng_want)
        for name, column in want.items():
            have = getattr(got.mpcs, name) if name == "observer" else getattr(got.mpcs, name)[t]
            assert have.dtype == column.dtype and have.shape == column.shape, (t, name)
            assert have.tobytes() == column.tobytes(), (t, name)
        assert rngs[t].random() == rng_want.random(), t
        attempts.append(tries)
    return np.array(attempts)


@pytest.mark.parametrize("d, m, k_per", SHAPES)
def test_stack_is_the_sets_drawn_alone(d, m, k_per):
    _assert_stack_is_the_sets((d, PARAMS, m, k_per), range(9))


@pytest.mark.parametrize("d, m, k_per", SHAPES)
def test_stack_redraws_each_set_from_its_own_generator(monkeypatch, d, m, k_per):
    monkeypatch.setattr(geom, "_COINCIDENCE_EPS", 15.0)
    attempts = _assert_stack_is_the_sets((d, PARAMS, m, k_per), range(12))
    # redraws in most sets, and in more than one observer of a set
    observer = np.repeat(np.arange(m), k_per)
    redrawn = [{o for o, a in zip(observer, row) if a > 1} for row in attempts]
    assert sum(map(bool, redrawn)) >= 9 and (m == 1 or max(map(len, redrawn)) > 1)
    assert attempts.max() > 5


def _hard_seeds(count, skip):
    """The first ``count`` seeds past 700 (``skip`` aside) whose one MPC the
    per-MPC loop draws at d = 0 under the hard radius."""
    seeds = []
    for seed in range(700, 800):
        try:
            if seed != skip:
                reference_sample_scenario(0.0, PARAMS, 1, [1], seed)
                seeds.append(seed)
        except DegenerateGeometry:
            pass
        if len(seeds) == count:
            return seeds


def test_stack_success_on_the_last_attempt(monkeypatch):
    monkeypatch.setattr(geom, "_COINCIDENCE_EPS", _HARD_EPS)
    seeds = _hard_seeds(4, skip=791)
    seeds.insert(2, 791)
    attempts = _assert_stack_is_the_sets((0.0, PARAMS, 1, [1]), seeds)
    assert attempts[2].tolist() == [100] and (attempts[[0, 1, 3, 4]] < 100).all()


def test_stack_exhaustion_raises_on_the_same_draw(monkeypatch):
    monkeypatch.setattr(geom, "_COINCIDENCE_EPS", _HARD_EPS)
    seeds = _hard_seeds(2, skip=1082)
    seeds.insert(1, 1082)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    with pytest.raises(DegenerateGeometry, match="could not draw"):
        sample_stack(0.0, PARAMS, 1, [1], rngs)
    alone = np.random.default_rng(1082)
    with pytest.raises(DegenerateGeometry, match="could not draw"):
        sample_scenario(0.0, PARAMS, 1, [1], alone)
    want = np.random.default_rng(1082)  # 100 attempts of one delay and one direction
    for _ in range(100):
        sample_excess_delays(PARAMS, 1, want), sample_unit_directions(want, 1)
    assert rngs[1].random() == alone.random() == want.random()


def test_stack_of_one_is_sample_scenario():
    for seed in range(10):
        one = sample_scenario(2.0, PARAMS, 3, [4, 2, 5], seed)
        stack = sample_stack(2.0, PARAMS, 3, [4, 2, 5], [np.random.default_rng(seed)])
        for name in ("tau_a", "tau_b", "dir_a", "dir_b"):
            assert getattr(stack.mpcs, name)[0].tobytes() == getattr(one.mpcs, name).tobytes()


@pytest.mark.parametrize("sigma, sigma_dir", [(0.0, 0.0), (0.2e-9, 0.0), (0.2e-9, 0.1),
                                              (0.0, 0.3)])
def test_observe_stack_is_the_sets_observed_alone(sigma, sigma_dir):
    """``observe_stack`` against ``observe`` of each set alone, its offsets in
    ``eps_a_per_observer``: equal column bytes and stream positions."""
    k_per = [4, 1, 3]
    seeds = range(7)
    scenario = sample_stack(2.0, PARAMS, 3, k_per, [np.random.default_rng(s) for s in seeds])
    offsets = np.random.default_rng(99).uniform(-50e-9, 50e-9, (len(seeds), 3))
    noise = NoiseParams(sigma=sigma, sigma_dir=sigma_dir, eps=5e-9)
    rngs = [np.random.default_rng([s, 1]) for s in seeds]
    got = observe_stack(scenario.mpcs, noise, offsets, rngs)
    for t, seed in enumerate(seeds):
        one = Scenario(pos_a=scenario.pos_a, pos_b=scenario.pos_b, mpcs=Observations(
            **{c: getattr(scenario.mpcs, c)[t] for c in ("tau_a", "tau_b", "dir_a", "dir_b")},
            observer=scenario.mpcs.observer))
        ref = np.random.default_rng([seed, 1])
        want = observe(one, replace(noise, eps_a_per_observer=tuple(offsets[t])), ref)
        for name in ("tau_a", "tau_b", "dir_a", "dir_b"):
            assert getattr(got, name)[t].tobytes() == getattr(want, name).tobytes(), (t, name)
        assert rngs[t].random() == ref.random(), t
    np.testing.assert_array_equal(got.observer, scenario.mpcs.observer)
    if sigma_dir > 0:
        assert not np.array_equal(got.dir_a, scenario.mpcs.dir_a)


def test_observe_stack_checks_its_offsets_and_generators():
    scenario = sample_stack(2.0, PARAMS, 2, [2, 2], [np.random.default_rng(s) for s in (1, 2)])
    rngs = [np.random.default_rng(s) for s in (1, 2)]
    for truth, offsets, gens in ((scenario.mpcs, np.zeros((2, 3)), rngs),
                                 (scenario.mpcs, np.zeros((1, 2)), rngs),
                                 (scenario.mpcs, np.zeros(2), rngs),
                                 (scenario.mpcs, np.zeros((1, 2)), rngs[:1]),
                                 (scenario.mpcs, np.zeros((2, 2)), rngs * 2),
                                 (scenario.mpcs._set(0), np.zeros((1, 2)), rngs[:1])):
        with pytest.raises(InvalidParams, match="eps_a_per_observer length"):
            observe_stack(truth, NoiseParams(), offsets, gens)
    one = Scenario(pos_a=scenario.pos_a, pos_b=scenario.pos_b, mpcs=scenario.mpcs._set(1))
    with pytest.raises(InvalidParams, match="eps_a_per_observer length"):
        observe(one, NoiseParams(eps_a_per_observer=(1e-9,)), 0)
