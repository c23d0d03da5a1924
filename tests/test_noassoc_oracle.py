"""Oracle for the batched hard-indicator NA search.

``_per_candidate_enumerate`` is the scalar loop the batched search
replaced: one ``permanent`` call per candidate and observer, and a
running tuple-key comparison.  The batched search must agree with it
exactly, ties included; a set of one MPC has no spread to estimate from,
and both raise InsufficientMpcs on it.  The batched search takes the
permanents only of the candidates whose feasibility matrix has no
all-zero row or column; the skipped ones are checked against the loop's
matrices.
"""

import numpy as np
import pytest

from uwbrel import distest
from uwbrel.errors import InsufficientMpcs, UwbrelError
from uwbrel.evalcli import ExperimentConfig, run_sweep
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
    return tuple(zip(*(_random_observer(rng, n, lattice) for n in sizes)))


def _random_observer(rng, n, lattice):
    """The A-side delays of one observer of n MPCs and its scrambled B side."""
    if lattice:
        ta = rng.integers(20, 80, n) * 1e-9
        tb = ta + (rng.integers(-5, 6, n) + 4) * 1e-9
    else:
        ta = rng.uniform(20e-9, 80e-9, n)
        tb = ta + rng.uniform(-5e-9, 5e-9, n) + 4e-9
    return ta, rng.permutation(tb)


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


@pytest.mark.parametrize("lattice", [True, False])
def test_batched_search_matches_per_candidate_loop_at_the_cap(lattice):
    rng = np.random.default_rng(4048 + lattice)
    for _ in range(4):
        ta, tb = _random_observer(rng, distest.PERMUTATION_CAP, lattice)
        assert _outcome(_estimate, [ta], [tb]) == _outcome(_per_candidate_estimate, [ta], [tb])


def _oracle_matrices(mat, d_cand, e_cand):
    """The per-candidate loop's feasibility matrices of one observer."""
    tol = 1e-9 * np.maximum(d_cand, 1.0)
    return np.stack([(np.abs(C * (mat - e)) <= d + t).astype(float)
                     for d, e, t in zip(d_cand, e_cand, tol)])


def test_permanents_only_of_candidates_without_an_all_zero_row_or_column(monkeypatch):
    """On the 1 x 7 noiseless configuration the search takes the permanents
    of under half of the candidates; every candidate it skips has an
    all-zero row or column, so its permanent is exactly 0 (Hall)."""
    candidates, batches = [], []
    full, exact = distest._noassoc_candidates, distest.permanent

    def recorded_candidates(cross):
        candidates.append((cross, *full(cross)))
        return candidates[-1][1:]

    def recorded_permanent(mats):
        batches.append(np.array(mats))
        return exact(mats)

    monkeypatch.setattr(distest, "_noassoc_candidates", recorded_candidates)
    monkeypatch.setattr(distest, "permanent", recorded_permanent)
    run_sweep(ExperimentConfig(sweep="mpc_count", d=(2.0,), sigma=0.0, m_observers=1,
                               k_per_observer=(7,), trials=6, trials_na=6, seed=21,
                               estimators=("NA",)))
    assert len(candidates) == len(batches) == 6  # one observer: one call per trial
    for (cross, d_cand, e_cand), got in zip(candidates, batches):
        oracle = _oracle_matrices(cross[0], d_cand, e_cand)
        zero_line = ~oracle.any(axis=2).all(axis=1) | ~oracle.any(axis=1).all(axis=1)
        assert got.shape[0] == (~zero_line).sum() < d_cand.size / 2
        np.testing.assert_array_equal(got, oracle[~zero_line])


def test_observer_with_no_candidate_left(monkeypatch):
    """With the wedge apexes alone, an observer of several MPCs with
    distinct cross differences has an all-zero row at every candidate: its
    permanent call gets an empty batch, and the search still matches the
    per-candidate loop."""
    full = distest._noassoc_candidates
    monkeypatch.setattr(distest, "_noassoc_candidates",
                        lambda cross: tuple(c[:sum(m.size for m in cross)] for c in full(cross)))
    sizes, exact = [], distest.permanent

    def recorded_permanent(mats):
        sizes.append(np.shape(mats)[0])
        return exact(mats)

    rng = np.random.default_rng(5)
    tau_a, tau_b = zip(*(_random_observer(rng, n, lattice=False) for n in (1, 3, 4)))
    expected = _per_candidate_estimate(tau_a, tau_b)
    monkeypatch.setattr(distest, "permanent", recorded_permanent)
    got = _estimate(tau_a, tau_b)
    assert sizes[0] > 0 and sizes[1:] == [0, 0]
    assert got == expected and not got[3]
