"""Oracle for the batched hard-indicator NA search.

``_per_candidate_enumerate`` is the scalar loop the batched search
replaced: one ``permanent`` call per candidate and observer, and a
running tuple-key comparison.  The batched search must agree with it
exactly, ties included; a set of one MPC has no spread to estimate from,
and both raise InsufficientMpcs on it.
"""

import numpy as np
import pytest

from uwbrel import distest
from uwbrel.errors import InsufficientMpcs, UwbrelError
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel.likelihood import ErrorModel

from delay_sets import delay_set


def _per_candidate_enumerate(cross):
    k_total = sum(m.shape[0] for m in cross)
    d_cand, e_cand = distest._noassoc_candidates(cross)
    tol = 1e-9 * np.maximum(d_cand, 1.0)
    best = None
    for d, e, t in zip(d_cand, e_cand, tol):
        n_feas = 0
        log_terms = 0.0
        for mat in cross:
            feas = (np.abs(C * (mat - e)) <= d + t).astype(float)
            p = distest.permanent(feas)
            if p > 0:
                n_feas += 1
                log_terms += np.log(p)
        value = -k_total * np.log(max(d, distest._D_FLOOR)) + log_terms
        key = (n_feas, value, -d)
        if best is None or key > best[0]:
            best = (key, float(d), float(e))
    return best[1], best[2], best[0][1], best[0][0] == len(cross)


def _per_candidate_estimate(tau_a, tau_b):
    """(d_hat, eps_hat, loglik, feasible) of the hard-indicator NA estimate,
    centred as mle_async_noassoc centres it."""
    raw = np.concatenate([(np.asarray(tb)[None, :] - np.asarray(ta)[:, None]).ravel()
                          for ta, tb in zip(tau_a, tau_b)])
    if raw.size < 2:
        raise InsufficientMpcs("one MPC")
    mid = (float(raw.max()) + float(raw.min())) / 2.0
    cross = [(np.asarray(tb) - mid)[None, :] - np.asarray(ta)[:, None]
             for ta, tb in zip(tau_a, tau_b)]
    d_hat, eps_hat, value, feasible = _per_candidate_enumerate(cross)
    return d_hat, eps_hat + mid, value, feasible


def _random_groups(rng, lattice):
    """1 to 3 observers of 1 to 7 MPCs, B side scrambled; on a 1 ns lattice
    the cross differences repeat, which makes candidates tie."""
    sizes = rng.integers(1, 8, size=rng.integers(1, 4))
    if sizes.sum() > 9:  # keeps the per-candidate oracle quick
        sizes = sizes[:1]
    tau_a, tau_b = [], []
    for n in sizes:
        if lattice:
            ta = rng.integers(20, 80, n) * 1e-9
            tb = ta + (rng.integers(-5, 6, n) + 4) * 1e-9
        else:
            ta = rng.uniform(20e-9, 80e-9, n)
            tb = ta + rng.uniform(-5e-9, 5e-9, n) + 4e-9
        tau_a.append(ta)
        tau_b.append(rng.permutation(tb))
    return tau_a, tau_b


def _estimate(tau_a, tau_b):
    est = distest.mle_async_noassoc(delay_set(tau_a, tau_b), ErrorModel(kind="none"))
    return est.d_hat, est.eps_hat, est.diagnostics["loglik"], est.diagnostics["feasible"]


def _outcome(estimate, tau_a, tau_b):
    """The estimate's tuple, or the name of the library error it raised."""
    try:
        return estimate(tau_a, tau_b)
    except UwbrelError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("lattice", [True, False])
def test_batched_search_matches_per_candidate_loop(lattice):
    rng = np.random.default_rng(2024 + lattice)
    sizes_seen = set()
    for _ in range(90):
        tau_a, tau_b = _random_groups(rng, lattice)
        sizes_seen.update(len(t) for t in tau_a)
        assert _outcome(_estimate, tau_a, tau_b) == _outcome(_per_candidate_estimate, tau_a, tau_b)
    assert sizes_seen == set(range(1, 8))


def test_least_infeasible_candidate_matches(monkeypatch):
    # The full candidate set always holds a point feasible for every
    # observer (the widest border intersection).  With the wedge apexes
    # alone, several observers rarely agree, so the ranking falls back to
    # the least-infeasible candidate.
    full = distest._noassoc_candidates

    def apexes_only(cross):
        d_cand, e_cand = full(cross)
        k = sum(m.size for m in cross)
        return d_cand[:k], e_cand[:k]

    monkeypatch.setattr(distest, "_noassoc_candidates", apexes_only)
    rng = np.random.default_rng(77)
    infeasible = 0
    for i in range(20):
        tau_a, tau_b = _random_groups(rng, lattice=i % 2 == 0)
        got = _outcome(_estimate, tau_a, tau_b)
        assert got == _outcome(_per_candidate_estimate, tau_a, tau_b)
        infeasible += got != "InsufficientMpcs" and not got[3]
    assert infeasible >= 5
