"""Oracle for the columnar scenario sampler.

``reference_sample_scenario`` is the sampler as it was written one MPC at a
time: each MPC is completed on its own and, when its virtual source lands on
node B, redrawn with one scalar excess delay and one direction, 100 attempts
in all.  ``chansim.sample_scenario`` completes each observer's rows at once
and redraws only the flagged rows; every column must come out bit for bit
the same, including when many rows take the redraw path and when the
attempts run out.
"""

import numpy as np
import pytest

from uwbrel import geom
from uwbrel.chansim import SvParams, sample_excess_delays, sample_scenario, sample_unit_directions
from uwbrel.errors import DegenerateGeometry
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
