"""MPC association between the two nodes' channel views.

Pairs are scored by direction mismatch plus a regularized, mean-centered
delay mismatch; pairs whose directions disagree by more than the angle
gate are forbidden.  The per-observer assignment is solved exactly as a
linear assignment problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .chansim import join_sides
from .errors import InvalidParams
from .geom import group_by_observer

DEFAULT_SIGMA_TAU = 26.3e-9  # indoor RMS delay spread used for the default weight
NO_MATCH_COST = 1e9          # finite stand-in for gated pairs; also the padding cost


@dataclass(frozen=True)
class AssocConfig:
    """Assignment-cost parameters.

    ``lambda_`` weighs the squared delay term against the squared direction
    chord; by default it is 1/sigma_tau.  Pairs with an angle above
    ``angle_gate`` are forbidden.
    """

    sigma_tau: float = DEFAULT_SIGMA_TAU
    lambda_: float = None
    angle_gate: float = np.radians(30.0)

    def __post_init__(self):
        if self.lambda_ is None:
            object.__setattr__(self, "lambda_", 1.0 / self.sigma_tau)
        if self.lambda_ < 0:
            raise InvalidParams("lambda_ must be nonnegative")
        if not (0.0 < self.angle_gate <= np.pi):
            raise InvalidParams("angle_gate must be in (0, pi]")


@dataclass(frozen=True)
class Assignment:
    """Per-observer matching: ``permutation[o][k]`` is the B index matched to
    A index k, or -1 when unmatched."""

    permutation: dict
    matched: dict
    total_cost: float = 0.0

    def pairs(self, observer_id) -> list:
        perm = self.permutation[observer_id]
        return [(k, int(l)) for k, l in enumerate(perm) if l >= 0]


def pair_cost(a, b, cfg: AssocConfig, mu_a: float, mu_b: float) -> float:
    """Cost of pairing A-side MPC ``a`` with B-side MPC ``b``.

    ``mu_a``/``mu_b`` are the per-observer mean delays; centering by them
    removes the unknown clock offsets from the delay term.  Returns inf
    when the direction angle exceeds the gate.
    """
    cos_angle = float(np.dot(a.dir_a_meas, b.dir_b_meas))
    if cos_angle < np.cos(cfg.angle_gate):
        return float("inf")
    chord2 = float(np.sum((b.dir_b_meas - a.dir_a_meas) ** 2))
    delay = (b.tau_b_meas - mu_b) - (a.tau_a_meas - mu_a)
    return chord2 + cfg.lambda_ ** 2 * delay * delay


def _cost_matrix(group_a, group_b, cfg: AssocConfig) -> np.ndarray:
    mu_a = float(np.mean([ob.tau_a_meas for ob in group_a]))
    mu_b = float(np.mean([ob.tau_b_meas for ob in group_b]))
    cost = np.empty((len(group_a), len(group_b)))
    for k, a in enumerate(group_a):
        for l, b in enumerate(group_b):
            cost[k, l] = pair_cost(a, b, cfg, mu_a, mu_b)
    return cost


def associate(obs_a, obs_b, cfg: AssocConfig = None, force_full: bool = False) -> Assignment:
    """Minimum-cost per-observer assignment of A-side to B-side MPCs.

    Group sizes may differ; gated (infinite-cost) pairs and the square
    padding use a finite no-match cost above every real cost, so the solver
    stays a standard linear assignment.  Pairs landing on gated or padding
    cells are reported unmatched, unless ``force_full`` keeps gated pairs
    matched (complete permutations, as an evaluation pipeline may require).
    """
    cfg = cfg or AssocConfig()
    groups_a = group_by_observer(obs_a)
    groups_b = group_by_observer(obs_b)
    if set(groups_a) != set(groups_b):
        raise InvalidParams("A and B sides must cover the same observers")

    permutation, matched = {}, {}
    total = 0.0
    for o in groups_a:
        ga, gb = groups_a[o], groups_b[o]
        n = max(len(ga), len(gb))
        raw = _cost_matrix(ga, gb, cfg)
        finite = raw[np.isfinite(raw)]
        no_match = max(NO_MATCH_COST, 10.0 * n * float(finite.max()) if finite.size else 0.0)
        cost = np.full((n, n), no_match)
        cost[: len(ga), : len(gb)] = np.where(np.isfinite(raw), raw, no_match)
        rows, cols = linear_sum_assignment(cost)
        perm = np.full(len(ga), -1, dtype=int)
        flags = np.zeros(len(ga), dtype=bool)
        for r, c in zip(rows, cols):
            if r < len(ga) and c < len(gb) and (force_full or np.isfinite(raw[r, c])):
                perm[r] = c
                flags[r] = True
                if np.isfinite(raw[r, c]):
                    total += raw[r, c]
        permutation[o] = perm
        matched[o] = flags
    return Assignment(permutation=permutation, matched=matched, total_cost=total)


def associate_by_sorting(obs_a, obs_b) -> Assignment:
    """Rank-pair the delays per observer: i-th smallest A to i-th smallest B."""
    groups_a = group_by_observer(obs_a)
    groups_b = group_by_observer(obs_b)
    if set(groups_a) != set(groups_b):
        raise InvalidParams("A and B sides must cover the same observers")

    permutation, matched = {}, {}
    for o in groups_a:
        ga, gb = groups_a[o], groups_b[o]
        if len(ga) != len(gb):
            raise InvalidParams("sorting association needs equal per-observer counts")
        rank_a = np.argsort([ob.tau_a_meas for ob in ga], kind="stable")
        rank_b = np.argsort([ob.tau_b_meas for ob in gb], kind="stable")
        perm = np.empty(len(ga), dtype=int)
        perm[rank_a] = rank_b
        permutation[o] = perm
        matched[o] = np.ones(len(ga), dtype=bool)
    return Assignment(permutation=permutation, matched=matched, total_cost=0.0)


def apply_assignment(obs_a, obs_b, assignment: Assignment) -> list:
    """Merge matched pairs into observations carrying A-side fields from
    ``obs_a`` and B-side fields from the assigned partner in ``obs_b``.
    Unmatched A-side MPCs are dropped.  An assignment naming an observer
    that either side lacks raises InvalidParams."""
    groups_a = group_by_observer(obs_a)
    groups_b = group_by_observer(obs_b)
    missing = [o for o in assignment.permutation if o not in groups_a or o not in groups_b]
    if missing:
        raise InvalidParams(f"assignment names observers {missing} that obs_a or obs_b lacks")
    return [join_sides(groups_a[o][k], groups_b[o][l])
            for o, perm in assignment.permutation.items() for k, l in enumerate(perm) if l >= 0]
