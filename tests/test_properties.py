"""The paper's invariances as properties over random scenarios.

- A constant shift of every B-side delay is a clock offset: it moves
  ``eps_hat`` by the shift and leaves the distance and position alone.
- Relabeling the MPCs within an observer changes nothing.
- Rotating every direction rotates the position estimate.

An estimator that fails on a draw (a rank-deficient or antiparallel
system) must fail the same way on the transformed draw.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uwbrel import distest, posest
from uwbrel.chansim import NoiseParams, SvParams, observe, sample_scenario
from uwbrel.errors import UwbrelError
from uwbrel.geom import group_by_observer

seeds = st.integers(min_value=0, max_value=2**32 - 1)
distances = st.floats(min_value=0.5, max_value=6.0)


def _observations(seed, d):
    rng = np.random.default_rng(seed)
    scenario = sample_scenario(d, SvParams(), 3, [4, 4, 4], rng)
    noise = NoiseParams(sigma=0.2e-9, sigma_dir=np.radians(2.0), eps=5e-9,
                        eps_a_per_observer=tuple(rng.uniform(0.0, 100e-9, 3)))
    return observe(scenario, noise, rng)


ESTIMATORS = {"MV": distest.mvue_async, "DD": posest.lse_by_delta, "TAU": posest.lse_by_tau}


def _outcomes(name, obs, transformed):
    """Both estimates, or None after checking that both raised alike."""
    fn = ESTIMATORS[name]
    try:
        a = fn(obs)
    except UwbrelError as exc:
        with pytest.raises(type(exc)):
            fn(transformed)
        return None
    return a, fn(transformed)


@pytest.mark.parametrize("name", ["MV", "DD"])
@given(seed=seeds, d=distances, shift=st.floats(min_value=-100e-9, max_value=100e-9))
def test_b_delay_shift_moves_only_the_clock_offset(name, seed, d, shift):
    obs = _observations(seed, d)
    shifted = replace(obs, tau_b=obs.tau_b + shift)
    both = _outcomes(name, obs, shifted)
    if both is None:
        return
    a, b = both
    assert b.eps_hat == pytest.approx(a.eps_hat + shift, abs=1e-15)
    if name == "MV":
        assert b.d_hat == pytest.approx(a.d_hat, abs=1e-6)
    else:
        np.testing.assert_allclose(b.d_vec, a.d_vec, atol=1e-6)


@pytest.mark.parametrize("name", ["MV", "DD", "TAU"])
@given(seed=seeds, d=distances, relabel_seed=seeds)
def test_relabeling_within_an_observer_changes_nothing(name, seed, d, relabel_seed):
    obs = _observations(seed, d)
    rng = np.random.default_rng(relabel_seed)
    relabeled = obs[np.concatenate([rows[rng.permutation(rows.size)]
                                    for rows in group_by_observer(obs.observer).values()])]
    both = _outcomes(name, obs, relabeled)
    if both is None:
        return
    a, b = both
    assert b.eps_hat == pytest.approx(a.eps_hat, abs=1e-15)
    if name == "MV":
        assert b.d_hat == a.d_hat
    else:
        np.testing.assert_allclose(b.d_vec, a.d_vec, atol=1e-6)


@pytest.mark.parametrize("name", ["DD", "TAU"])
@given(seed=seeds, d=distances, rotation_seed=seeds)
def test_rotating_every_direction_rotates_the_position(name, seed, d, rotation_seed):
    obs = _observations(seed, d)
    q, _ = np.linalg.qr(np.random.default_rng(rotation_seed).normal(size=(3, 3)))
    q *= np.sign(np.linalg.det(q))  # a proper rotation
    rotated = replace(obs, dir_a=obs.dir_a @ q.T, dir_b=obs.dir_b @ q.T)
    both = _outcomes(name, obs, rotated)
    if both is None:
        return
    a, b = both
    np.testing.assert_allclose(b.d_vec, q @ a.d_vec, atol=1e-6)
    assert b.eps_hat == pytest.approx(a.eps_hat, abs=1e-15)
