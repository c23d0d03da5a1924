"""The benchmark's workloads, each a fixed ``run_sweep`` configuration.

Why each one exists is in README.md beside this file.  Trial counts are
per sweep point; the reference CSVs in ``reference/`` are these sweeps at
``REFERENCE_SEED``.  A run times the sweep at ``INPUTS[name]`` seeds
derived from the benchmark's ``--seed``: sweeps are kept short so that the
median over many of them resists the machine's slow spells, and several
input seeds keep data-dependent run times (NA's refinement) from hanging on
a handful of trials.
"""

from __future__ import annotations

import math
from dataclasses import replace

from uwbrel.evalcli import ExperimentConfig

REFERENCE_SEED = 0

WORKLOADS = {
    "closed_form": dict(
        sweep="distance", d=(0.0, 2.0, 4.0, 8.0), sigma=0.2e-9,
        m_observers=3, k_per_observer=(4,), trials=50,
        estimators=("MV", "SO", "DD", "PWA", "TAU", "DDN", "TNA"),
    ),
    "direction_noise": dict(
        sweep="direction_error", d=(2.0,), sigma=0.2e-9,
        sigma_dir=tuple(math.radians(deg) for deg in (2.0, 8.0, 24.0)),
        m_observers=3, k_per_observer=(4,), trials=30,
        estimators=("DD", "PWA", "TAU", "DDN", "TNA"),
    ),
    "na_gaussian": dict(
        sweep="distance", d=(2.0,), sigma=0.2e-9,
        m_observers=3, k_per_observer=(4,), trials=2, trials_na=2,
        estimators=("NA",),
    ),
    "na_hard_k7": dict(
        sweep="mpc_count", d=(2.0,), sigma=0.0,
        m_observers=1, k_per_observer=(7,), trials=1, trials_na=1,
        estimators=("NA",),
    ),
}

INPUTS = {"closed_form": 4, "direction_noise": 4, "na_gaussian": 6, "na_hard_k7": 4}


def config(name: str, seed: int, trials: int = None) -> ExperimentConfig:
    """The validated configuration of workload ``name`` at ``seed``;
    ``trials`` overrides the per-point trial count (tiny self-test runs)."""
    cfg = ExperimentConfig(seed=seed, **WORKLOADS[name])
    if trials is not None:
        cfg = replace(cfg, trials=trials, trials_na=trials)
    cfg.validate()
    return cfg


def trials_per_sweep(cfg: ExperimentConfig) -> int:
    """Scenarios one sweep samples: trial count times sweep points."""
    points = {"distance": cfg.d, "direction_error": cfg.sigma_dir,
              "mpc_count": cfg.k_per_observer}[cfg.sweep]
    return cfg.trials * len(points)


def input_seeds(name: str, seed: int) -> list:
    """The sweep seeds one benchmark run uses; disjoint for distinct seeds."""
    return [seed * INPUTS[name] + i for i in range(INPUTS[name])]
