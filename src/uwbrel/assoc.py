"""MPC association between the two nodes' channel views.

Pairs are scored by direction mismatch plus a regularized, mean-centered
delay mismatch; pairs whose directions disagree by more than the angle
gate are forbidden.  The per-observer assignment is solved exactly as a
linear assignment problem by ``scipy.optimize.linear_sum_assignment``,
imported at the first call of ``associate``, so that code which never
associates never loads ``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .geom import Observations

DEFAULT_SIGMA_TAU = 26.3e-9  # indoor RMS delay spread used for the default weight
NO_MATCH_COST = 1e9          # finite stand-in for gated pairs; also the padding cost


@dataclass(frozen=True)
class AssocConfig:
    """Assignment-cost parameters.

    ``lambda_`` weighs the squared delay term against the squared direction
    chord; by default it is 1/``DEFAULT_SIGMA_TAU``, one over the indoor RMS
    delay spread.  Pairs with an angle above ``angle_gate`` are forbidden.
    """

    lambda_: float = 1.0 / DEFAULT_SIGMA_TAU
    angle_gate: float = np.radians(30.0)

    def __post_init__(self):
        if not 0.0 <= self.lambda_ < np.inf:
            raise InvalidParams("lambda_ must be finite and nonnegative")
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


def pair_cost(a_set, b_set, cfg: AssocConfig, mu_a, mu_b) -> np.ndarray:
    """Costs of pairing every A-side MPC of ``a_set`` (rows) with every
    B-side MPC of ``b_set`` (columns), both ``Observations``.

    ``mu_a``/``mu_b`` are the mean delays of each MPC's observer (scalars,
    or one per row of the set); centering by them removes the unknown clock
    offsets from the delay term.  A pair whose direction angle exceeds the
    gate costs inf.
    """
    chord2 = ((b_set.dir_b[None] - a_set.dir_a[:, None]) ** 2).sum(-1)
    delay = (b_set.tau_b - mu_b)[None, :] - (a_set.tau_a - mu_a)[:, None]
    cost = chord2 + cfg.lambda_ ** 2 * delay * delay
    cost[a_set.dir_a @ b_set.dir_b.T < np.cos(cfg.angle_gate)] = np.inf
    return cost


def _observer_groups(obs_a, obs_b):
    """Each side's row indices per observer; both must cover the same observers."""
    groups_a, groups_b = obs_a.groups, obs_b.groups
    if set(groups_a) != set(groups_b):
        raise InvalidParams("A and B sides must cover the same observers")
    return groups_a, groups_b


def associate(obs_a, obs_b, cfg: AssocConfig = None, force_full: bool = False) -> Assignment:
    """Minimum-cost per-observer assignment of A-side to B-side MPCs.

    Group sizes may differ; gated (infinite-cost) pairs and the square
    padding use a finite no-match cost above every real cost, so the solver
    stays a standard linear assignment.  Pairs landing on gated or padding
    cells are reported unmatched, unless ``force_full`` keeps gated pairs
    matched (complete permutations, as an evaluation pipeline may require).
    """
    from scipy.optimize import linear_sum_assignment

    cfg = cfg or AssocConfig()
    groups_a, groups_b = _observer_groups(obs_a, obs_b)
    mu_a, mu_b = np.empty(len(obs_a)), np.empty(len(obs_b))
    for o, rows in groups_a.items():  # each observer's mean delays, as np.mean adds them
        mu_a[rows] = np.add.reduce(obs_a.tau_a[rows]) / rows.size
        mu_b[groups_b[o]] = np.add.reduce(obs_b.tau_b[groups_b[o]]) / groups_b[o].size
    costs = pair_cost(obs_a, obs_b, cfg, mu_a, mu_b)  # pairs across observers go unused
    permutation, matched = {}, {}
    # the finite costs of the kept pairs, observer by observer, rows ascending;
    # the leading empty block lets a set with no observers concatenate
    paid = [np.zeros(0)]
    for o in groups_a:
        raw = costs[groups_a[o]][:, groups_b[o]]
        n_a, n_b = raw.shape
        n = max(n_a, n_b)
        ungated = np.isfinite(raw)
        finite = raw[ungated]
        no_match = max(NO_MATCH_COST, 10.0 * n * float(finite.max()) if finite.size else 0.0)
        cost = np.where(ungated, raw, no_match)
        if n_a != n_b:  # square it with no-match cells, which pair nothing
            cost = np.pad(cost, ((0, n - n_a), (0, n - n_b)), constant_values=no_match)
        rows, cols = linear_sum_assignment(cost)
        if n_a != n_b:
            real = (rows < n_a) & (cols < n_b)
            rows, cols = rows[real], cols[real]
        kept = ungated[rows, cols]
        paid.append(raw[rows, cols][kept])
        perm = np.full(n_a, -1, dtype=int)
        perm[rows] = np.where(kept | force_full, cols, -1)
        permutation[o] = perm
        matched[o] = perm >= 0
    paid = np.concatenate(paid)
    # summed in order, one pair after the other, as a running total would
    total = np.add.accumulate(paid)[-1] if paid.size else 0.0
    return Assignment(permutation=permutation, matched=matched, total_cost=total)


def associate_by_sorting(obs_a, obs_b) -> Assignment:
    """Rank-pair the delays per observer: i-th smallest A to i-th smallest B."""
    groups_a, groups_b = _observer_groups(obs_a, obs_b)
    permutation, matched = {}, {}
    for o in groups_a:
        tau_a, tau_b = obs_a.tau_a[groups_a[o]], obs_b.tau_b[groups_b[o]]
        if tau_a.size != tau_b.size:
            raise InvalidParams("sorting association needs equal per-observer counts")
        perm = np.empty(tau_a.size, dtype=int)
        perm[tau_a.argsort(kind="stable")] = tau_b.argsort(kind="stable")
        permutation[o] = perm
        matched[o] = np.ones(tau_a.size, dtype=bool)
    return Assignment(permutation=permutation, matched=matched, total_cost=0.0)


def apply_assignment(obs_a, obs_b, assignment: Assignment) -> Observations:
    """Merge matched pairs into observations carrying A-side columns from
    ``obs_a`` and B-side columns from the assigned partner in ``obs_b``,
    observer by observer in the assignment's order.  Unmatched A-side MPCs
    are dropped.  An assignment naming an observer that either side lacks,
    or whose permutation for an observer is not one entry per A-side MPC,
    each -1 or a B index of that observer, or which pairs one B-side MPC
    twice, raises InvalidParams."""
    groups_a, groups_b = obs_a.groups, obs_b.groups
    missing = [o for o in assignment.permutation if o not in groups_a or o not in groups_b]
    if missing:
        raise InvalidParams(f"assignment names observers {missing} that obs_a or obs_b lacks")
    pairs = []  # (A row, B row) of every matched MPC, in the assignment's order
    for o, perm in assignment.permutation.items():
        perm, n_b = np.asarray(perm, dtype=int), groups_b[o].size
        if perm.shape != groups_a[o].shape or not all(-1 <= j < n_b for j in perm.tolist()):
            raise InvalidParams(f"observer {o}: the permutation needs one entry per A-side "
                                f"MPC ({groups_a[o].size}), each -1 or a B index below "
                                f"{groups_b[o].size}")
        in_a, in_b = groups_a[o].tolist(), groups_b[o].tolist()
        pairs += [(in_a[k], in_b[j]) for k, j in enumerate(perm.tolist()) if j >= 0]
    if len({b for _, b in pairs}) != len(pairs):
        raise InvalidParams("the assignment pairs a B-side MPC with two A-side MPCs")
    rows_a, rows_b = np.array(pairs, dtype=int).reshape(-1, 2).T
    return Observations._of_rows(obs_a.tau_a[rows_a], obs_b.tau_b[rows_b], obs_a.dir_a[rows_a],
                                 obs_b.dir_b[rows_b], obs_a.observer[rows_a])
