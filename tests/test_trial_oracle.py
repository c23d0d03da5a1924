"""``run_trial`` against an independent per-tag recomputation, bit for bit.

A sweep point runs in two passes: trial by trial it samples, observes,
scrambles, builds each pairing once and runs NA; then each closed-form tag
runs once on the stacked input sets of all the point's trials.  The oracle
here does none of that: for every tag on its own it samples, observes and
scrambles the trial from the per-trial RNG streams, pairs the scrambled
set, runs the one-set estimator and scores it.  Errors must agree to the
bit and failures by exception class.  Closed-form-shaped configurations
(no direction noise: the assignment nearly always recovers the
observations, so DDN's input set equals DD's) and direction-noise ones (the
assignment often errs, so it does not) cover both cases, and the tests
assert that each ran.
"""

import math

import numpy as np
import pytest

from uwbrel import assoc, chansim, distest, posest
from uwbrel.errors import UwbrelError
from uwbrel.evalcli import ExperimentConfig, run_sweep, run_trial
from uwbrel.likelihood import ErrorModel

CLOSED_FORM = dict(sweep="distance", d=(0.0, 2.0, 8.0), sigma=0.2e-9, m_observers=3,
                   k_per_observer=(4,), trials=12,
                   estimators=("MV", "SO", "DD", "PWA", "TAU", "DDN", "TNA"))
DIRECTION_NOISE = dict(sweep="direction_error", d=(2.0,), sigma=0.2e-9,
                       sigma_dir=tuple(math.radians(deg) for deg in (2.0, 8.0, 24.0)),
                       m_observers=3, k_per_observer=(4,), trials=12,
                       estimators=("DD", "PWA", "TAU", "DDN", "TNA", "MV", "SO"))
COLUMNS = ("tau_a", "tau_b", "dir_a", "dir_b", "observer")


def _rng(cfg, point, trial, stream):
    return np.random.default_rng([cfg.seed, point, trial, stream])


def _trial(cfg, point, trial):
    """Scenario, observations, scrambled set and true perms of one trial."""
    value = {"distance": cfg.d, "direction_error": cfg.sigma_dir,
             "mpc_count": cfg.k_per_observer}[cfg.sweep][point]
    d = value if cfg.sweep == "distance" else cfg.d[0]
    sigma_dir = value if cfg.sweep == "direction_error" else cfg.sigma_dir[0]
    k_per = int(value) if cfg.sweep == "mpc_count" else cfg.k_per_observer[0]
    scenario = chansim.sample_scenario(d, cfg.sv, cfg.m_observers,
                                       [k_per] * cfg.m_observers, _rng(cfg, point, trial, 0))
    noise_rng = _rng(cfg, point, trial, 1)
    offsets = tuple(noise_rng.uniform(0.0, cfg.eps_a_max, cfg.m_observers))
    noise = chansim.NoiseParams(sigma=cfg.sigma, sigma_dir=sigma_dir, eps=cfg.eps,
                                eps_a_per_observer=offsets)
    observations = chansim.observe(scenario, noise, noise_rng)
    scrambled, perms = chansim.scramble_association(observations, _rng(cfg, point, trial, 2))
    return scenario, observations, scrambled, perms


def _oracle(tag, cfg, scenario, observations, scrambled):
    """One tag on one trial, nothing shared: its error or its error class."""
    inputs = scrambled if tag in ("NA", "SO", "DDN", "TNA") else observations
    if tag == "SO":
        inputs = assoc.apply_assignment(inputs, inputs,
                                        assoc.associate_by_sorting(inputs, inputs))
    elif tag in ("DDN", "TNA"):
        inputs = assoc.apply_assignment(inputs, inputs,
                                        assoc.associate(inputs, inputs, force_full=True))
    try:
        if tag in ("MV", "SO"):
            est = distest.mvue_async(inputs)
        elif tag == "NA":
            model = (ErrorModel(kind="gaussian", sigma_per_mpc=cfg.sigma) if cfg.sigma > 0
                     else ErrorModel(kind="none"))
            est = distest.mle_async_noassoc(inputs, model)
        elif tag in ("DD", "DDN"):
            est = posest.lse_by_delta(inputs)
        elif tag == "PWA":
            est = posest.lse_by_delta_pwa(inputs)
        else:
            est = posest.lse_by_tau(inputs)
        if isinstance(est, distest.DistanceEstimate):
            return est.d_hat - scenario.d
        if est.condition_number > cfg.cond_gate:
            raise posest.RankDeficient("condition above the harness gate")
        return float(np.linalg.norm(est.d_vec - scenario.d_vec))
    except UwbrelError as exc:
        return type(exc)


def _same(got, want):
    if isinstance(want, type):
        return got is want
    return not isinstance(got, type) and np.float64(got).tobytes() == np.float64(want).tobytes()


def _check(cfg):
    """Compare every tag of every trial; return how many DDN trials had a
    re-paired set equal to the observations (shared) and how many did not."""
    shared = unshared = 0
    for point in range(len({"distance": cfg.d, "direction_error": cfg.sigma_dir}[cfg.sweep])):
        for trial in range(cfg.trials):
            outcomes, perms = run_trial(cfg, point, trial)
            scenario, observations, scrambled, want_perms = _trial(cfg, point, trial)
            assert perms.keys() == want_perms.keys()
            for o in want_perms:
                np.testing.assert_array_equal(perms[o], want_perms[o])
            tags = [t for t in cfg.estimators if t != "NA" or trial < cfg.trials_na]
            assert list(outcomes) == tags
            for tag in tags:
                want = _oracle(tag, cfg, scenario, observations, scrambled)
                assert _same(outcomes[tag], want), (point, trial, tag, outcomes[tag], want)
            applied = assoc.apply_assignment(
                scrambled, scrambled, assoc.associate(scrambled, scrambled, force_full=True))
            if all(np.array_equal(getattr(applied, c), getattr(observations, c))
                   for c in COLUMNS):
                shared += 1
            else:
                unshared += 1
    return shared, unshared


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_closed_form_shape(seed):
    shared, unshared = _check(ExperimentConfig(seed=seed, **CLOSED_FORM))
    assert shared > 0


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_direction_noise_shape(seed):
    shared, unshared = _check(ExperimentConfig(seed=seed, **DIRECTION_NOISE))
    assert shared > 0 and unshared > 0


def test_na_and_its_trial_cap():
    cfg = ExperimentConfig(seed=2, sweep="distance", d=(2.0,), sigma=0.2e-9, m_observers=2,
                           k_per_observer=(3,), trials=3, trials_na=2,
                           estimators=("NA", "DDN", "MV", "TNA", "SO"))
    _check(cfg)


def test_shared_estimates_run_once(monkeypatch):
    # each stacked solver runs once per tag and sweep point, on the stack of
    # all the point's trials; the one-set estimators are not reached
    cfg = ExperimentConfig(seed=7, **DIRECTION_NOISE)
    calls = []
    for module, name in ((posest, "solve_by_delta"), (posest, "solve_by_tau"),
                         (distest, "mvue_async_stack"), (posest, "lse_by_delta")):
        def counted(stack, *args, original=getattr(module, name), name=name):
            calls.append((name, len(stack.tau_a)))
            return original(stack, *args)
        monkeypatch.setattr(module, name, counted)
    run_sweep(cfg)
    monkeypatch.undo()
    # DD, PWA and DDN; TAU and TNA; MV and SO
    per_point = {"solve_by_delta": 3, "solve_by_tau": 2, "mvue_async_stack": 2}
    assert sorted(calls) == sorted((name, cfg.trials) for name, n in per_point.items()
                                   for _ in range(n * len(cfg.sigma_dir)))
    shared, unshared = _check(cfg)
    assert shared > 0 and unshared > 0
