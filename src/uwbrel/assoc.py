"""MPC association between the two nodes' channel views.

Pairs are scored by direction mismatch plus a regularized, mean-centered
delay mismatch; pairs whose directions disagree by more than the angle
gate are forbidden.  The per-observer assignment is solved exactly as a
linear assignment problem by ``scipy.optimize.linear_sum_assignment``,
imported at the first assignment, so that code which never associates
never loads ``scipy.optimize``.  ``associate_stack`` pairs a whole stack
of sets through the one-set functions' per-observer kernels.
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
    """Costs of pairing every A-side MPC of ``a_set`` (rows) with every B-side
    MPC of ``b_set`` (columns), both sets or both stacks (``Observations``).

    ``mu_a``/``mu_b`` are the mean delays of each MPC's observer (scalars,
    or one per row of the set); centering by them removes the unknown clock
    offsets from the delay term.  A pair whose direction angle exceeds the
    gate costs inf.
    """
    chord2 = ((b_set.dir_b[..., None, :, :] - a_set.dir_a[..., :, None, :]) ** 2).sum(-1)
    delay = (b_set.tau_b - mu_b)[..., None, :] - (a_set.tau_a - mu_a)[..., :, None]
    cost = chord2 + cfg.lambda_ ** 2 * delay * delay
    cost[a_set.dir_a @ np.swapaxes(b_set.dir_b, -1, -2) < np.cos(cfg.angle_gate)] = np.inf
    return cost


def _observer_groups(obs_a, obs_b):
    """Each side's row indices per observer; both must cover the same observers."""
    groups_a, groups_b = obs_a.groups, obs_b.groups
    if set(groups_a) != set(groups_b):
        raise InvalidParams("A and B sides must cover the same observers")
    return groups_a, groups_b


def _observer_means(tau, groups) -> np.ndarray:
    """Each row's observer mean of the delays ``tau`` (..., K), as np.mean adds them."""
    mu = np.empty_like(tau)
    for rows in groups.values():
        mu[..., rows] = (np.add.reduce(tau[..., rows], axis=-1) / rows.size)[..., None]
    return mu


def _assign(raw):
    """The B index of each A row (T, n) in ``associate``'s assignment of each square block
    of ``raw`` (T, n, n), whose gated and padding pairs are inf."""
    from scipy.optimize import linear_sum_assignment

    ungated = np.isfinite(raw)
    no_match = np.maximum(NO_MATCH_COST, 10.0 * raw.shape[-1]
                          * np.where(ungated, raw, -np.inf).max(axis=(1, 2)))
    cost = np.where(ungated, raw, no_match[:, None, None])
    return np.array([linear_sum_assignment(block)[1] for block in cost])  # rows ascend


def _rank_pairs(tau_a, tau_b) -> np.ndarray:
    """Each A row's B index, i-th smallest to i-th smallest along the last axis (stable)."""
    perm = np.empty(tau_a.shape, dtype=int)
    np.put_along_axis(perm, tau_a.argsort(-1, kind="stable"), tau_b.argsort(-1, kind="stable"), -1)
    return perm


def associate(obs_a, obs_b, cfg: AssocConfig = None, force_full: bool = False) -> Assignment:
    """Minimum-cost per-observer assignment of A-side to B-side MPCs.

    Group sizes may differ; gated (infinite-cost) pairs and the square
    padding use a finite no-match cost above every real cost, so the solver
    stays a standard linear assignment.  Pairs landing on gated or padding
    cells are reported unmatched, unless ``force_full`` keeps gated pairs
    matched (complete permutations, as an evaluation pipeline may require).
    """
    cfg = cfg or AssocConfig()
    groups_a, groups_b = _observer_groups(obs_a, obs_b)
    costs = pair_cost(obs_a, obs_b, cfg, _observer_means(obs_a.tau_a, groups_a),
                      _observer_means(obs_b.tau_b, groups_b))  # pairs across observers go unused
    permutation, matched = {}, {}
    # the finite costs of the kept pairs, observer by observer, rows ascending;
    # the leading empty block lets a set with no observers concatenate
    paid = [np.zeros(0)]
    for o, rows in groups_a.items():
        raw = costs[rows][:, groups_b[o]]
        (n_a, n_b), n = raw.shape, max(raw.shape)
        raw = np.pad(raw, ((0, n - n_a), (0, n - n_b)), constant_values=np.inf)  # square
        perm = _assign(raw[None])[0, :n_a]
        kept = np.isfinite(raw[np.arange(n_a), perm])  # neither gated nor padding
        paid.append(raw[kept.nonzero()[0], perm[kept]])
        permutation[o] = np.where(kept | (force_full & (perm < n_b)), perm, -1)
        matched[o] = permutation[o] >= 0
    paid = np.concatenate(paid)
    # summed in order, one pair after the other, as a running total would
    total = np.add.accumulate(paid)[-1] if paid.size else 0.0
    return Assignment(permutation=permutation, matched=matched, total_cost=total)


def associate_by_sorting(obs_a, obs_b) -> Assignment:
    """Rank-pair the delays per observer: i-th smallest A to i-th smallest B."""
    groups_a, groups_b = _observer_groups(obs_a, obs_b)
    if any(groups_a[o].size != groups_b[o].size for o in groups_a):
        raise InvalidParams("sorting association needs equal per-observer counts")
    permutation = {o: _rank_pairs(obs_a.tau_a[groups_a[o]], obs_b.tau_b[groups_b[o]])
                   for o in groups_a}
    return Assignment(permutation=permutation, total_cost=0.0,
                      matched={o: np.ones(p.size, dtype=bool) for o, p in permutation.items()})


def associate_stack(stack: Observations, by_sorting: bool = False) -> np.ndarray:
    """Every set of ``stack`` paired A side to its own B side, as the (T, K) sources
    ``Observations.paired`` takes: set t's A row k pairs with its B row ``sources[t, k]``, of the
    same observer.  By delay rank, the pairs of ``associate_by_sorting``; else by minimum
    cost, those of ``associate(force_full=True)`` (default ``AssocConfig``)."""
    groups, sources = stack.groups, np.empty(stack.tau_a.shape, dtype=int)
    if not by_sorting:
        costs = pair_cost(stack, stack, AssocConfig(), _observer_means(stack.tau_a, groups),
                          _observer_means(stack.tau_b, groups))
    for rows in groups.values():
        sources[:, rows] = rows[_rank_pairs(stack.tau_a[:, rows], stack.tau_b[:, rows])
                                if by_sorting else _assign(costs[:, rows[:, None], rows])]
    return sources


def apply_assignment(obs_a, obs_b, assignment: Assignment) -> Observations:
    """Merge matched pairs into observations carrying A-side columns from
    ``obs_a`` and B-side columns from the assigned partner in ``obs_b``,
    observer by observer in the assignment's order.  Unmatched A-side MPCs
    are dropped.  An assignment naming an observer that either side lacks,
    or whose permutation for an observer is not one integer entry per A-side
    MPC, each -1 or a B index of that observer, or which pairs one B-side MPC
    twice, raises InvalidParams."""
    groups_a, groups_b = obs_a.groups, obs_b.groups
    missing = [o for o in assignment.permutation if o not in groups_a or o not in groups_b]
    if missing:
        raise InvalidParams(f"assignment names observers {missing} that obs_a or obs_b lacks")
    pairs = []  # (A row, B row) of every matched MPC, in the assignment's order
    for o, perm in assignment.permutation.items():
        perm, n_b = np.asarray(perm), groups_b[o].size
        if (perm.dtype.kind not in "iu" or perm.shape != groups_a[o].shape
                or not all(-1 <= j < n_b for j in perm.tolist())):
            raise InvalidParams(f"observer {o}: the permutation needs one entry per A-side "
                                f"MPC ({groups_a[o].size}), each -1 or an integer B index below "
                                f"{groups_b[o].size}")
        in_a, in_b = groups_a[o].tolist(), groups_b[o].tolist()
        pairs += [(in_a[k], in_b[j]) for k, j in enumerate(perm.tolist()) if j >= 0]
    if len({b for _, b in pairs}) != len(pairs):
        raise InvalidParams("the assignment pairs a B-side MPC with two A-side MPCs")
    rows_a, rows_b = np.array(pairs, dtype=int).reshape(-1, 2).T
    return Observations._of_rows(obs_a.tau_a[rows_a], obs_b.tau_b[rows_b], obs_a.dir_a[rows_a],
                                 obs_b.dir_b[rows_b], obs_a.observer[rows_a])
