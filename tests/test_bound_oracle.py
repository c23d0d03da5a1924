"""Oracle for the branch and bound of the likelihood grid.

Built with ``top=k``, ``distest._noassoc_kernel`` evaluates a grid (points
that share eps values) in ascending d and skips every cell whose envelope,
the value it would have if every factor were 1, falls below the k-th best
value found so far.  ``maximize_2d`` refines only the k best grid cells,
so that is all the grid must get right.  The oracle is the same kernel
without ``top``, which evaluates every cell between its support bounds
(``test_support_oracle`` checks its bits).  Against it, the bounded grid
must rank the same k best cells first, at the same positions, with the same
bits and in the same order (value descending, then lowest flat index);
every finite cell must have its exact bits, and every cell reported -inf
must be -inf or have an exact value strictly below the k-th best.  Calls
whose points each have their own eps are never bounded.
"""

import numpy as np
import pytest

from uwbrel import distest, likelihood
from uwbrel.evalcli import ExperimentConfig, run_trial
from uwbrel.likelihood import ErrorModel, OptimizerConfig

from delay_sets import delay_set, diff_set
from test_refine_oracle import _delays

SIGMAS = (0.05e-9, 0.2e-9, 2e-9)
TOPS = (1, 3, 8)


def _na_groups(sizes, seed):
    """NA's midrange-centered cross differences of random delays."""
    obs = _delays(np.random.default_rng(seed), sizes)
    _, raw = distest._cross_diffs(obs)
    mid = distest._async_range(np.concatenate([m.ravel() for m in raw]))[2]
    return distest._cross_diffs(obs, mid)


def _known_groups(seed):
    """The known-association kernel's one-MPC groups of 3 x 4 centered diffs."""
    delta = np.random.default_rng(seed).uniform(-3e-9, 3e-9, 12)
    return distest._one_mpc_groups(delta - distest._async_range(delta)[2])


def _grid(cross):
    cfg = distest._default_config(np.concatenate([m.ravel() for m in cross]))
    return (np.linspace(*cfg.grid_d[:2], int(cfg.grid_d[2]))[:, None],
            np.linspace(*cfg.grid_eps[:2], int(cfg.grid_eps[2]))[None, :])


def _ranked(vals, k):
    """The flat indices of the k best cells, value descending then lowest
    index first, by a full sort, and their values."""
    flat = np.where(np.isnan(vals), -np.inf, vals).ravel()
    order = np.lexsort((np.arange(flat.size), -flat))[:k]
    return order, flat[order]


def _assert_bounded(rows, cross, model, k):
    """The bounded grid against the exact one; returns the cells skipped."""
    d, eps = _grid(cross)
    exact = distest._noassoc_kernel(rows, cross, model)(d, eps)
    got = distest._noassoc_kernel(rows, cross, model, top=k)(d, eps)
    assert got.shape == exact.shape == (200, 200)
    (i, v), (j, w) = _ranked(got, k), _ranked(exact, k)
    np.testing.assert_array_equal(i, j, strict=True)
    assert v.tobytes() == w.tobytes()
    assert np.argmax(got) == np.argmax(exact)
    finite = np.isfinite(got)
    assert got[finite].tobytes() == exact[finite].tobytes()
    skipped = ~finite & np.isfinite(exact)
    assert (exact[skipped] < w[-1]).all()
    return int(skipped.sum())


@pytest.mark.parametrize("k", TOPS)
@pytest.mark.parametrize("sizes", [[4, 4, 4], [7], [8]], ids=["3x4", "1x7", "1x8"])
def test_noassoc_grid(sizes, k):
    skipped = 0
    for seed in (1, 2):
        rows, cross = _na_groups(sizes, seed)
        for sigma in SIGMAS:
            skipped += _assert_bounded(rows, cross, ErrorModel(sigma_per_mpc=sigma), k)
        sig = np.random.default_rng(seed).uniform(0.05e-9, 2e-9, sum(sizes))
        skipped += _assert_bounded(rows, cross, ErrorModel(sigma_per_mpc=sig), k)
    assert skipped > 0


@pytest.mark.parametrize("k", TOPS)
def test_known_assoc_grid(k):
    skipped = 0
    for seed in (1, 2, 3):
        rows, cross = _known_groups(seed)
        for sigma in SIGMAS:
            skipped += _assert_bounded(rows, cross, ErrorModel(sigma_per_mpc=sigma), k)
    assert skipped > 0


@pytest.mark.parametrize("sizes", [[2], [2, 2], [3, 1]], ids=["1x2", "2x2", "3+1"])
def test_small_observers(sizes):
    """Few MPCs, where the best cells come close to saturation and the
    envelope is tight."""
    for seed in range(6):
        rows, cross = _na_groups(sizes, 10 + seed)
        for sigma in SIGMAS:
            for k in TOPS:
                _assert_bounded(rows, cross, ErrorModel(sigma_per_mpc=sigma), k)


def test_points_with_their_own_eps_are_exact():
    """The candidates and the simplex points (one eps per point) get every
    value, -inf only where the permanent is exactly 0."""
    rows, cross = _na_groups([4, 4, 4], 1)
    model = ErrorModel(sigma_per_mpc=0.2e-9)
    d, eps = (np.ravel(a) for a in np.broadcast_arrays(*_grid(cross)))
    for count in (40, distest._BLOCK, 5000):
        exact = distest._noassoc_kernel(rows, cross, model)(d[:count], eps[:count])
        got = distest._noassoc_kernel(rows, cross, model, top=1)(d[:count], eps[:count])
        assert got.tobytes() == exact.tobytes()


# --- through the estimators ----------------------------------------------

BENCH = ExperimentConfig(d=(2.0,), sigma=0.2e-9, m_observers=3, k_per_observer=(4,),
                         trials=2, trials_na=2, estimators=("NA",), seed=1)


@pytest.fixture
def maximizations(monkeypatch):
    """Per ``maximize_2d`` call of either estimator: its config, every
    objective call as (d, eps, values, points evaluated), and the number of
    objective calls made before the simplex started."""
    record, evaluated = [], [0]
    factors, maximize, simplex = ErrorModel.factors, distest.maximize_2d, likelihood._nelder_mead

    def counting(self, x, half, sigma=None):
        evaluated[0] += np.size(half)
        return factors(self, x, half, sigma)

    def recording(objective, cfg, extra_starts=()):
        entry = {"cfg": cfg, "calls": [], "before_simplex": None}
        record.append(entry)

        def observed(d, eps):
            evaluated[0] = 0
            vals = objective(d, eps)
            entry["calls"].append((np.asarray(d), np.asarray(eps), np.asarray(vals), evaluated[0]))
            return vals

        return maximize(observed, cfg, extra_starts)

    def simplex_entry(*args):
        record[-1]["before_simplex"] = len(record[-1]["calls"])
        return simplex(*args)

    monkeypatch.setattr(ErrorModel, "factors", counting)
    monkeypatch.setattr(distest, "maximize_2d", recording)
    monkeypatch.setattr(likelihood, "_nelder_mead", simplex_entry)
    return record


def test_benchmark_grid_evaluates_few_cells(maximizations):
    """On the benchmark's configuration (3 x 4, sigma 0.2 ns, seed 1, two
    trials) the grid evaluates a small share of its 40,000 cells: about
    7,300 lie between the support bounds, and the bound cuts most of them."""
    for trial in range(BENCH.trials):
        run_trial(BENCH, 0, trial)
    assert len(maximizations) == 2
    for entry in maximizations:
        _, _, vals, evaluated = entry["calls"][0]
        assert vals.shape == (200, 200)
        assert 0 < evaluated < 500


def _assert_one_grid_call(entry):
    """Exactly one objective call before the simplex: the whole grid, with
    a finite value (the benchmark's tracer takes it as the grid)."""
    cfg = entry["cfg"]
    assert entry["before_simplex"] == 1
    d, eps, vals, _ = entry["calls"][0]
    d_grid = np.linspace(*cfg.grid_d[:2], int(cfg.grid_d[2]))
    e_grid = np.linspace(*cfg.grid_eps[:2], int(cfg.grid_eps[2]))
    np.testing.assert_array_equal(d, d_grid[:, None], strict=True)
    np.testing.assert_array_equal(eps, e_grid[None, :], strict=True)
    assert vals.shape == (d_grid.size, e_grid.size)
    assert np.isfinite(vals).any()


def test_grid_is_the_first_and_only_call_before_the_simplex(maximizations):
    for trial in range(BENCH.trials):
        run_trial(BENCH, 0, trial)
    model = ErrorModel(sigma_per_mpc=0.2e-9)
    rng = np.random.default_rng(4)
    distest.mle_async_gaussian(diff_set(*(rng.uniform(-3e-9, 3e-9, 4) for _ in range(3))), model)
    assert len(maximizations) == 3
    for entry in maximizations:
        _assert_one_grid_call(entry)


def _candidate_starts(obs, model, cfg):
    """NA's candidate starts by a full sort of their exact scores."""
    _, raw = distest._cross_diffs(obs)
    mid = distest._async_range(np.concatenate([m.ravel() for m in raw]))[2]
    rows, cross = distest._cross_diffs(obs, mid)
    d_cand, e_cand = distest._noassoc_candidates(cross)
    scores = distest._noassoc_kernel(rows, cross, model)(d_cand, e_cand)
    order = np.lexsort((np.arange(scores.size), -scores))[:max(2, cfg.multistart_count // 2)]
    return [(max(float(d_cand[i]), distest._D_FLOOR), float(e_cand[i])) for i in order], scores


@pytest.mark.parametrize("case", ["3x4", "duplicated", "few finite"])
def test_candidate_starts_in_the_defined_order(monkeypatch, case):
    """The hard-indicator candidates NA refines: value descending, then
    lowest index, whatever the ties; -inf candidates fill the starts when
    fewer are finite."""
    seen = []
    monkeypatch.setattr(distest, "maximize_2d",
                        lambda objective, cfg, extra_starts=(): seen.append(extra_starts)
                        or (1.0, 0.0, 0.0))
    model, cfg = ErrorModel(sigma_per_mpc=0.2e-9), OptimizerConfig()
    if case == "3x4":
        obs = _delays(np.random.default_rng(6), [4, 4, 4])
    elif case == "duplicated":  # two identical observers: every score of one comes twice
        ta, tb = np.array([20.0, 21.5, 23.0]) * 1e-9, np.array([25.1, 26.0, 27.4]) * 1e-9
        obs = delay_set([ta, ta], [tb, tb])
    else:  # 1 x 2 far apart: 10 candidates for 20 starts, few of them finite
        obs, cfg = delay_set([[0.0, 40e-9]], [[5e-9, 41e-9]]), OptimizerConfig(multistart_count=40)
    distest.mle_async_noassoc(obs, model, cfg)
    want, scores = _candidate_starts(obs, model, cfg)
    assert seen == [want]
    if case == "duplicated":
        assert len(set(scores[np.isfinite(scores)])) < np.isfinite(scores).sum()
    if case == "few finite":
        assert 0 < np.isfinite(scores).sum() < len(want) == scores.size
