"""Golden outputs: SHA-256 of the CSV bytes of small fixed runs.

The determinism tests elsewhere compare two runs of the same version; these
pin the bytes across versions, so a refactor or speed-up that changes any
printed digit fails here.  A deliberate change of output (a new RNG stream,
a different optimizer path) updates the hashes and says so in CHANGES.md.

The hashes were captured with numpy 2.4 and scipy 1.17 on x86-64 Linux; a
different libm or numpy build may round a last digit differently.
"""

import contextlib
import hashlib
import io
import math

import numpy as np
import pytest

from uwbrel import assoc, chansim, distest, posest
from uwbrel.errors import UwbrelError
from uwbrel.evalcli import (ExperimentConfig, _calibrate_csv, calibrate, dump_surface, main,
                            run_sweep)
from uwbrel.likelihood import ErrorModel, soft_indicator


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _na_hard_k7(seed):
    return ExperimentConfig(sweep="mpc_count", d=(2.0,), sigma=0.0, m_observers=1,
                            k_per_observer=(7,), trials=1, trials_na=1,
                            estimators=("NA",), seed=seed)


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _outcome(fn, *args, **kwargs) -> str:
    """``repr`` of a result (arrays as lists, so every bit shows), or the
    name of the library error it raised."""
    try:
        out = fn(*args, **kwargs)
    except UwbrelError as exc:
        return type(exc).__name__
    if isinstance(out, posest.PositionEstimate):
        return repr((out.d_vec.tolist(), out.eps_hat, out.eps_a_hats, out.method,
                     out.condition_number))
    if isinstance(out, np.ndarray):
        return repr(out.tolist())
    return repr(out)


def _library_results() -> str:
    """Public functions that no CLI run reaches, at fixed seeds."""
    lines = []
    sigma = 0.2e-9
    for seed in range(3):
        rng = np.random.default_rng([seed, 7])
        scenario = chansim.sample_scenario(2.0, chansim.SvParams(), 3, [4, 4, 4], rng)
        noise = chansim.NoiseParams(sigma=sigma, sigma_dir=np.radians(2.0), eps=5e-9,
                                    eps_a_per_observer=(10e-9, 40e-9, 70e-9))
        obs = chansim.observe(scenario, noise, rng)
        scrambled, _ = chansim.scramble_association(obs, rng)
        per_mpc = ErrorModel(sigma_per_mpc=sigma * (1.0 + 0.1 * np.arange(12)))
        k = len(obs)
        cov_root = rng.normal(size=(k, k)) * 1e-10
        cov = cov_root @ cov_root.T + np.eye(k) * sigma ** 2
        mu_a = float(np.mean(obs.tau_a[:4]))
        mu_b = float(np.mean(obs.tau_b[:4]))
        cost = assoc.pair_cost(obs[:4], scrambled[:4], assoc.AssocConfig(), mu_a, mu_b)
        x = rng.normal(size=7) * 1e-9
        lines += [
            _outcome(distest.mle_async_noiseless, obs),
            _outcome(distest.mle_sync, obs),
            _outcome(distest.mvue_sync, obs),
            _outcome(distest.mle_async_gaussian, obs, ErrorModel(sigma_per_mpc=sigma)),
            _outcome(distest.mle_async_gaussian, obs, per_mpc),
            _outcome(posest.gls_by_delta, obs, rng.normal(size=k) * 1e-10, cov),
            _outcome(posest.lse_by_tau_sync, obs),
            *(_outcome(float, cost[i, j]) for i in range(4) for j in range(4)),
            _outcome(lambda: assoc.associate(scrambled, scrambled).total_cost),
            _outcome(lambda: assoc.associate(scrambled, scrambled, force_full=True).total_cost),
            _outcome(soft_indicator, x, 0.5, ErrorModel(sigma_per_mpc=sigma)),
            _outcome(soft_indicator, x, np.linspace(0.0, 3.0, 7), per_mpc, mpc_index=seed),
            _outcome(soft_indicator, x, 0.3, ErrorModel(kind="none")),
            _outcome(soft_indicator, float(x[0]), 0.3, ErrorModel(sigma_per_mpc=sigma)),
        ]
    return "\n".join(lines) + "\n"


def _na_gaussian_wide_sigma() -> str:
    """Gaussian NA on two 3 x 4 trials with errors as wide as the delay
    spread.  Most of each permanent's n! products are then neither 0 nor 1,
    so a change in the order they are summed moves the last bits of the
    refined log-likelihood, which the full ``repr`` shows and a CSV's nine
    digits do not."""
    sigma = 2e-9
    lines = []
    for trial in range(2):
        rng = np.random.default_rng([trial, 11])
        scenario = chansim.sample_scenario(2.0, chansim.SvParams(), 3, [4, 4, 4], rng)
        obs = chansim.observe(scenario, chansim.NoiseParams(sigma=sigma, eps=5e-9), rng)
        scrambled, _ = chansim.scramble_association(obs, rng)
        lines.append(_outcome(distest.mle_async_noassoc, scrambled,
                              ErrorModel(sigma_per_mpc=sigma)))
    return "\n".join(lines) + "\n"


def _na_gaussian_one_observer(k) -> str:
    """Gaussian NA on one scrambled observer of ``k`` >= 7 MPCs, whose
    permanents sum up to k 2^(k-1) products; the full ``repr`` shows every
    bit."""
    sigma = 0.2e-9
    rng = np.random.default_rng([k, 11])
    scenario = chansim.sample_scenario(2.0, chansim.SvParams(), 1, [k], rng)
    obs = chansim.observe(scenario, chansim.NoiseParams(sigma=sigma, eps=5e-9), rng)
    scrambled, _ = chansim.scramble_association(obs, rng)
    return _outcome(distest.mle_async_noassoc, scrambled, ErrorModel(sigma_per_mpc=sigma)) + "\n"


def _na_gaussian_benchmark_sweeps() -> str:
    """The sweeps of the benchmark's Gaussian NA workload (3 x 4, d = 2 m,
    sigma 0.2 ns, two trials each) at seeds 0-12, one CSV after another."""
    return "".join(run_sweep(ExperimentConfig(
        sweep="distance", d=(2.0,), sigma=0.2e-9, m_observers=3, k_per_observer=(4,),
        trials=2, trials_na=2, estimators=("NA",), seed=seed)).to_csv() for seed in range(13))


def _benchmark_sweeps(**settings) -> str:
    """The sweeps of one closed-form benchmark workload at seeds 0-3, one CSV
    after another."""
    return "".join(run_sweep(ExperimentConfig(seed=seed, **settings)).to_csv()
                   for seed in range(4))


def _closed_form_benchmark_sweeps() -> str:
    """The benchmark's closed-form workload: d = 0, 2, 4 and 8 m, 3 x 4,
    sigma 0.2 ns, 50 trials per point, every closed-form estimator."""
    return _benchmark_sweeps(
        sweep="distance", d=(0.0, 2.0, 4.0, 8.0), sigma=0.2e-9, m_observers=3,
        k_per_observer=(4,), trials=50, estimators=("MV", "SO", "DD", "PWA", "TAU", "DDN", "TNA"))


def _direction_noise_benchmark_sweeps() -> str:
    """The benchmark's direction-noise workload: 2, 8 and 24 degrees at d = 2 m,
    3 x 4, sigma 0.2 ns, 30 trials per point."""
    return _benchmark_sweeps(
        sweep="direction_error", d=(2.0,), sigma=0.2e-9,
        sigma_dir=tuple(math.radians(deg) for deg in (2.0, 8.0, 24.0)), m_observers=3,
        k_per_observer=(4,), trials=30, estimators=("DD", "PWA", "TAU", "DDN", "TNA"))


def _gated_direction_error_sweeps() -> str:
    """Association under heavy direction error: 45 and 90 degrees at d = 2 m,
    3 x 4, 30 trials per point, SO, DDN and TNA, at seeds 0-1.  At 90 degrees
    many observer blocks are gated in full and take the no-match path."""
    return "".join(run_sweep(ExperimentConfig(
        sweep="direction_error", d=(2.0,), sigma=0.2e-9,
        sigma_dir=(math.radians(45.0), math.radians(90.0)), m_observers=3,
        k_per_observer=(4,), trials=30, estimators=("SO", "DDN", "TNA"), seed=seed)).to_csv()
        for seed in range(2))


RUNS = {
    "na_hard_k7_seed0": lambda: run_sweep(_na_hard_k7(0)).to_csv(),
    "na_hard_k7_seed1": lambda: run_sweep(_na_hard_k7(1)).to_csv(),
    "na_hard_k7_seed2": lambda: run_sweep(_na_hard_k7(2)).to_csv(),
    "na_gaussian_3x4": lambda: run_sweep(ExperimentConfig(
        sweep="distance", d=(2.0,), sigma=0.2e-9, m_observers=3, k_per_observer=(4,),
        trials=2, trials_na=2, estimators=("NA",), seed=0)).to_csv(),
    "surface_noassoc_gaussian": lambda: dump_surface(ExperimentConfig(
        sweep="surface", d=(2.5,), surface_kind="noassoc",
        surface_scenario="canonical", grid_steps=60)),
    "surface_noassoc_hard": lambda: dump_surface(ExperimentConfig(
        sweep="surface", d=(2.5,), sigma=0.0, surface_kind="noassoc",
        surface_scenario="canonical", grid_steps=60)),
    "distance_closed_forms": lambda: run_sweep(ExperimentConfig(
        sweep="distance", d=(0.0, 2.0, 8.0), sigma=0.2e-9, m_observers=3,
        k_per_observer=(4,), trials=20, seed=5,
        estimators=("MV", "SO", "DD", "PWA", "TAU", "DDN", "TNA"))).to_csv(),
    "direction_error_sweep": lambda: run_sweep(ExperimentConfig(
        sweep="direction_error", d=(2.0,), sigma=0.2e-9,
        sigma_dir=tuple(math.radians(deg) for deg in (2.0, 8.0, 24.0)),
        m_observers=3, k_per_observer=(4,), trials=10, seed=3,
        estimators=("DD", "PWA", "TAU", "DDN", "TNA"))).to_csv(),
    "surface_known_gaussian": lambda: dump_surface(ExperimentConfig(
        sweep="surface", d=(2.5,), surface_kind="known",
        surface_scenario="canonical", grid_steps=60)),
    "scenario_dump_direction_noise": lambda: _cli_stdout(
        ["scenario-dump", "--d", "3", "--sigma-dir-deg", "5", "--seed", "4"]),
    "calibrate_small": lambda: _calibrate_csv(calibrate(ExperimentConfig(
        sweep="calibrate", calib_samples=4000, seed=6))),
    "mpc_count_sweep": lambda: run_sweep(ExperimentConfig(
        sweep="mpc_count", d=(2.0,), sigma=0.2e-9, m_observers=1,
        k_per_observer=(2, 3, 4, 5, 6), trials=15, seed=8,
        estimators=("MV", "DD", "TAU"))).to_csv(),
    "surface_known_hard": lambda: dump_surface(ExperimentConfig(
        sweep="surface", d=(2.5,), sigma=0.0, surface_kind="known",
        surface_scenario="canonical", grid_steps=60)),
    "library_results": _library_results,
    "na_gaussian_3x4_wide_sigma": _na_gaussian_wide_sigma,
    "na_gaussian_1x7": lambda: _na_gaussian_one_observer(7),
    "na_gaussian_1x8": lambda: _na_gaussian_one_observer(8),
    "surface_noassoc_random_1x7": lambda: _cli_stdout(
        ["surface", "--kind", "noassoc", "--scenario", "random", "--observers", "1",
         "--mpcs-per-observer", "7", "--seed", "3"]),
    "na_gaussian_benchmark_seeds_0_12": _na_gaussian_benchmark_sweeps,
    "closed_form_benchmark_seeds_0_3": _closed_form_benchmark_sweeps,
    "direction_noise_benchmark_seeds_0_3": _direction_noise_benchmark_sweeps,
    "gated_direction_error_seeds_0_1": _gated_direction_error_sweeps,
}

GOLDEN = {
    "calibrate_small": "dce4bd4e81a7dea24e83c9c1d941d0c5e3c7c0c94cc23e6ebace17fb9b2dcf1d",
    "closed_form_benchmark_seeds_0_3":
        "2e559bef0d8be84168708f9cd3abb2804f9ca027585e7c2c50b1e83f75d81ea5",
    "direction_noise_benchmark_seeds_0_3":
        "de41083eb4c5a52176fbfcbf321be16fc15b1339fc2cfc7586a760778704bf65",
    "direction_error_sweep": "d1a70e60d09c253db172cb7850e59fd7ddfedb0d6ccb1203e1b6aae25697478f",
    "distance_closed_forms": "64941fb25159d9ebfc84924344ccd0f3b1af32546963140c06a46d38aa92a4cb",
    "gated_direction_error_seeds_0_1":
        "f658d19cdcb9a38d4fefb7bdbadbd21da8e32aad61e6ac547c68973313547407",
    "library_results": "17d5d51efc28ca2d3a248f93e4bcd40af5de47b68ff219e68ed09b0b71c36a7e",
    "mpc_count_sweep": "3f0a097d7ba1136f2b9465d61f96d1141b7f65cbbcbc657fcb063bc23f9da2b3",
    "na_gaussian_1x7": "7ed4c04ba0173dec87ab28ca2dac60386a5be1c9de91901cd68670297a4d6a50",
    "na_gaussian_1x8": "9c3b6d23fa3bdee7825922fe096c8b45a696652861fc1d56f947ff0105f6b2b6",
    "na_gaussian_3x4": "f92ae017a046f00e53f027fcbf7f5239d514b4617cf9bdcf8c89008a7c8d8e09",
    "na_gaussian_3x4_wide_sigma": "6b73b498c8892cbf6c84f7874dfe1227d5996f96ca7466c6b226099cd65d57c8",
    "na_gaussian_benchmark_seeds_0_12":
        "b8af815320c8fc5851c1c446fb1247749ee3361b3e5e741d1330431c40e8725c",
    "na_hard_k7_seed0": "b571d1835fcb939eeea31acc8616f8c2a5c9a4a33d51e9c3fd3a21baafe56098",
    "na_hard_k7_seed1": "4d7a3f9e19df77afbc24cf35e10b925fbcb0e7722be5cf3610a4c50913208178",
    "na_hard_k7_seed2": "50511a07277787badff8354214c8e4af2c25025318186b2d1c294cd7458866d4",
    "scenario_dump_direction_noise": "4af44246542465bddec507cd99f79d507b714a64af3ea7a132cb1bdd77574207",
    "surface_known_gaussian": "455f180792292ea5be1b6169757e1c3405f70b79b16b79d4b532fce6e6ace55f",
    "surface_known_hard": "c3ad0dad123389653bf9a892143dd905283e7a52521f7956038665f82265fd51",
    "surface_noassoc_gaussian": "cba59922c7101955a2a58f8f3f695a6b6d625ca2c53089308060826ac2e06740",
    "surface_noassoc_hard": "64e2a0a56dc664f3bbd9e5f1674b15b9098fda8fd1f9a87551e7d6244c4d74f5",
    "surface_noassoc_random_1x7": "080d44c7194258c48c68c467ff3788260183622dc27ddfb877b296a0626bff8d",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_bytes(name):
    assert _sha(RUNS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py: each run's pinned and current
    # hash side by side, for quoting both when a change of output is deliberate
    mismatches = 0
    for name in sorted(RUNS):
        pinned, current = GOLDEN.get(name), _sha(RUNS[name]())
        mismatches += current != pinned
        print(f"{name}\n  pinned  {pinned}\n  current {current}"
              + ("" if current == pinned else "  MISMATCH"))
    print(f"{mismatches} of {len(RUNS)} runs differ from their pins")
    raise SystemExit(1 if mismatches else 0)
