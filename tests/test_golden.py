"""Golden outputs: SHA-256 of the CSV bytes of small fixed runs.

The determinism tests elsewhere compare two runs of the same version; these
pin the bytes across versions, so a refactor or speed-up that changes any
printed digit fails here.  A deliberate change of output (a new RNG stream,
a different optimizer path) updates the hashes and says so in CHANGES.md.

The hashes were captured with numpy 2.4 and scipy 1.17 on x86-64 Linux; a
different libm or numpy build may round a last digit differently.
"""

import hashlib

import pytest

from uwbrel.evalcli import ExperimentConfig, dump_surface, run_sweep


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _na_hard_k7(seed):
    return ExperimentConfig(sweep="mpc_count", d=(2.0,), sigma=0.0, m_observers=1,
                            k_per_observer=(7,), trials=1, trials_na=1,
                            estimators=("NA",), seed=seed)


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
}

GOLDEN = {
    "distance_closed_forms": "64941fb25159d9ebfc84924344ccd0f3b1af32546963140c06a46d38aa92a4cb",
    "na_gaussian_3x4": "f92ae017a046f00e53f027fcbf7f5239d514b4617cf9bdcf8c89008a7c8d8e09",
    "na_hard_k7_seed0": "b571d1835fcb939eeea31acc8616f8c2a5c9a4a33d51e9c3fd3a21baafe56098",
    "na_hard_k7_seed1": "4d7a3f9e19df77afbc24cf35e10b925fbcb0e7722be5cf3610a4c50913208178",
    "na_hard_k7_seed2": "50511a07277787badff8354214c8e4af2c25025318186b2d1c294cd7458866d4",
    "surface_noassoc_gaussian": "cba59922c7101955a2a58f8f3f695a6b6d625ca2c53089308060826ac2e06740",
    "surface_noassoc_hard": "64e2a0a56dc664f3bbd9e5f1674b15b9098fda8fd1f9a87551e7d6244c4d74f5",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_bytes(name):
    assert _sha(RUNS[name]()) == GOLDEN[name]
