"""Oracle for the support and saturation bounds of the association-free
likelihood.

Where eps values are shared by several points, ``distest._noassoc_kernel``'s
``loglik`` evaluates only the points between its two bounds.  Below the
lower one some observer's factor matrix has an all-zero row or column,
and the point gets -inf; above the upper one every factor is 1, and the
point gets the value of permanents n_o!.  ``_full`` is the unpruned
per-observer evaluation of ``test_loglik_oracle``, run a thousand points at
a time (every point has its bits in any chunk).  The pruned likelihood must
give its bits at every point; every point it prunes to -inf must have an
all-zero row or column in the oracle's factor matrix of some observer, so
that the exact permanent there is 0 and the oracle's value -inf, and every
finite point it does not evaluate must have every factor exactly 1: the
bounds only save time.  ``_bottleneck`` is the n! bound the kernel used
before, for observers of up to 6 MPCs; it is never below the row/column
bound.
"""

import functools
import itertools
import operator

import numpy as np
import pytest
from scipy.special import ndtr

from uwbrel import distest
from uwbrel.evalcli import ExperimentConfig, run_trial
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel.likelihood import ErrorModel

from delay_sets import delay_set
from test_loglik_oracle import _factors, _groups, _hall_zero, _per_observer_loglik

BLOCK = distest._BLOCK
SIGMAS = (0.05e-9, 0.2e-9, 2e-9)


def _full(obs, model, d, eps):
    d, eps = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(eps, dtype=float))
    if d.ndim == 0:
        return _per_observer_loglik(obs, model, d, eps)
    cuts = range(1000, d.size, 1000)
    parts = zip(np.split(d.ravel(), cuts), np.split(eps.ravel(), cuts))
    return np.concatenate([_per_observer_loglik(obs, model, a, b) for a, b in parts]).reshape(d.shape)


def _models(rng, k_total):
    """The hard indicator, one sigma of 0.05, 0.2 and 2 ns, and one sigma per
    MPC between 0.05 and 2 ns."""
    return ([ErrorModel(kind="none")] + [ErrorModel(sigma_per_mpc=s) for s in SIGMAS]
            + [ErrorModel(sigma_per_mpc=rng.uniform(0.05e-9, 2e-9, k_total))])


def _assert_same(obs, model, d, eps):
    got = distest.loglik_no_assoc(obs, model, d, eps)
    want = _full(obs, model, d, eps)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want, strict=True)
    return got


@pytest.fixture
def evaluated(monkeypatch):
    """The half-widths d/c of every point the kernel computes factors at."""
    seen = []
    factors = ErrorModel.factors

    def recording(self, x, half, sigma=None):
        seen.append(np.array(half, dtype=float).ravel())
        return factors(self, x, half, sigma)

    monkeypatch.setattr(ErrorModel, "factors", recording)
    return seen


def _half(d):
    return np.maximum(d, distest._D_FLOOR) / C


def _all_one(obs, model, d, eps):
    """Whether every factor of every observer's matrix is exactly 1 at each
    point, so that each exact permanent is n_o!."""
    _, shape, _, mats = _factors(obs, model, d, eps)
    out = np.ones(int(np.prod(shape)), dtype=bool)
    for factors in mats:
        out &= (factors == 1.0).all(axis=(1, 2))
    return out.reshape(shape)


def _assert_exact(obs, model, d, eps, evaluated):
    """The oracle's bits at every point.  Of the points the kernel does not
    evaluate, each finite one has every factor of every observer exactly 1;
    each other one is pruned: -inf, with an all-zero row or column of some
    observer's matrix.  Returns the pruned points and the points with such
    a row or column."""
    evaluated.clear()
    got = _assert_same(obs, model, d, eps)
    skipped = ~np.isin(_half(d), np.concatenate(evaluated))
    saturated = skipped & np.isfinite(got)
    pruned = skipped & ~saturated
    hall = _hall_zero(obs, model, d, eps)
    assert np.isneginf(got[pruned]).all() and hall[pruned].all()
    assert _all_one(obs, model, d, eps)[saturated].all()
    return pruned, hall


def _assert_tight(model, pruned, hall):
    """With the hard indicator the bound prunes exactly the points with an
    all-zero row or column; with narrow Gaussian errors it misses only the
    few whose zeros come from ``ndtr`` rounding to 0 or 1 short of the
    saturation bounds."""
    if model.kind == "none":
        np.testing.assert_array_equal(pruned, hall)
    elif model.sigma_per_mpc.max() < 1e-9:
        assert pruned.sum() > 0.9 * hall.sum()


@pytest.mark.parametrize("sizes", [[4, 4, 4], [1, 2, 3], [5, 6], [2, 6, 4, 1, 5, 3, 7]])
def test_dense_grid(sizes):
    rng = np.random.default_rng(sum(sizes))
    obs = _groups(rng, sizes)
    steps = 200 if max(sizes) <= 4 else 80
    d_grid = np.linspace(0.0, 4.0, steps)[:, None]  # d = 0 gives d/c at _D_FLOOR
    e_grid = np.linspace(-8e-9, 16e-9, steps)[None, :]
    pruned = []
    for model in _models(rng, sum(sizes)):
        got = _assert_same(obs, model, d_grid, e_grid)
        assert np.isfinite(got).any()
        pruned.append(np.isneginf(got).mean())
    assert max(pruned) > 0.5


@pytest.mark.parametrize("n", range(1, 7))
def test_random_points_every_pruned_point_is_neg_inf(n, evaluated):
    """Distinct d values tell which points the kernel evaluated; each eps
    is shared by two points."""
    rng = np.random.default_rng(90 + n)
    obs = _groups(rng, [n, n, 8 - n])
    d = rng.uniform(0.0, 3.0, (2, 1500))
    d[0, :3] = [0.0, distest._D_FLOOR / 2, distest._D_FLOOR]  # one d/c, at the floor
    eps = rng.uniform(-6e-9, 14e-9, 1500)
    for model in _models(rng, 8 + n):
        pruned, hall = _assert_exact(obs, model, d, eps, evaluated)
        _assert_tight(model, pruned, hall)
        if model.kind == "none":
            assert pruned.mean() > 0.3


def test_wedge_apexes_and_border_intersections():
    """The hard-indicator candidates sit exactly on wedge edges."""
    rng = np.random.default_rng(5)
    for sizes in ([4, 4, 4], [6, 1], [2, 5, 3]):
        obs = _groups(rng, sizes)
        d, eps = distest._noassoc_candidates(distest._cross_diffs(obs)[1])
        for model in _models(rng, sum(sizes)):
            _assert_same(obs, model, np.stack([d, d[::-1]]), eps)  # each eps shared
            _assert_same(obs, model, d[5], eps[5])


def test_nan_points_are_never_pruned():
    """A NaN d or eps, or an infinite d at an infinite eps, gives NaN in
    the full Gaussian kernel, so the bound keeps it."""
    rng = np.random.default_rng(11)
    obs = _groups(rng, [4, 2, 4])
    d = np.array([np.nan, 1.0, np.inf, 1.0, 0.0, 1.2])
    eps = np.array([4e-9, np.nan, 4e-9, -np.inf, np.inf, 4e-9])
    for model in _models(rng, 10):
        with np.errstate(invalid="ignore"):  # inf - inf in the factors' NaN test
            got = _assert_same(obs, model, np.stack([d, d[::-1]]), eps)
        assert np.isnan(got[0, :2]).all() or model.kind == "none"


@pytest.mark.parametrize("n", [7, 8])
def test_observers_of_7_and_8_prune_rows_and_columns(n, evaluated):
    """An observer of 7 or 8 MPCs alone prunes the points where its matrix
    has an all-zero row or column."""
    rng = np.random.default_rng(n)
    obs = _groups(rng, [n])
    d = rng.uniform(0.0, 3.0, (2, 100))
    eps = rng.uniform(-6e-9, 14e-9, 100)
    for model in _models(rng, n):
        pruned, hall = _assert_exact(obs, model, d, eps, evaluated)
        _assert_tight(model, pruned, hall)
        if model.kind == "none" or model.sigma_per_mpc.max() < 1e-9:
            assert pruned.any()


def _bottleneck(model, x, sigma):
    """The smallest over permutations p of the largest threshold
    ``zero_below`` of entries (k, p(k)) of one observer's (n, n, E) residuals
    ``x``, at each of the E eps: below it every one of the n! products has
    a factor that is exactly 0."""
    n = x.shape[0]
    t = model.zero_below(x, sigma).reshape(n * n, -1)
    flat = np.arange(n) * n + np.array(list(itertools.permutations(range(n))))  # (n!, n)
    return np.concatenate([t[flat, i:i + 1].max(axis=1).min(axis=0)
                           for i in range(t.shape[1])])


@pytest.mark.parametrize("n", range(1, 9))
def test_hall_bound_never_above_the_bottleneck(n, evaluated):
    """At each eps a point at the bottleneck value is evaluated.  Below it
    the permanent is exactly 0, and with the hard indicator most points at
    half of it are pruned.  The eps values are random, far outside the
    delays and at every cross difference, where a threshold of the hard
    indicator is 0."""
    rng = np.random.default_rng(200 + n)
    obs = _groups(rng, [n])
    (x,) = distest._cross_diffs(obs)[1]
    eps = np.concatenate([rng.uniform(-6e-9, 14e-9, 40), [-1e-6, 1e-6], x.ravel()])
    for model in _models(rng, n):
        s = None if model.kind == "none" else model.sigmas(n)[:, None, None]
        bottleneck = np.maximum(_bottleneck(model, x[..., None] - eps, s), 0.0)
        d = np.stack([bottleneck, bottleneck / 2]) * C
        pruned, _ = _assert_exact(obs, model, d, eps, evaluated)
        assert not pruned[0].any()
        if model.kind == "none":
            assert pruned[1].mean() > 0.5


def test_saturation_bound_fires_on_the_benchmark_grid(monkeypatch, evaluated):
    """On the 200 x 200 grid of NA's Gaussian estimate in sweep trials of 3
    observers x 4 MPCs (the benchmark's ``na_gaussian`` configuration),
    thousands of finite points lie above the saturation bound and go
    unevaluated; evaluated at one eps each, where no bound applies, every
    finite point gets the same bits."""
    kernels = []
    maximize = distest.maximize_2d

    def recording(objective, cfg, extra_starts=()):
        kernels.append((objective, cfg))
        return maximize(objective, cfg, extra_starts)

    monkeypatch.setattr(distest, "maximize_2d", recording)
    cfg = ExperimentConfig(d=(2.0,), sigma=0.2e-9, m_observers=3, k_per_observer=(4,),
                           trials=2, trials_na=2, estimators=("NA",), seed=1)
    for trial in range(cfg.trials):
        run_trial(cfg, 0, trial)
    assert len(kernels) == 2
    for objective, opt in kernels:
        d = np.linspace(*opt.grid_d[:2], int(opt.grid_d[2]))[:, None]
        eps = np.linspace(*opt.grid_eps[:2], int(opt.grid_eps[2]))[None, :]
        evaluated.clear()
        got = objective(d, eps)
        assert got.shape == (200, 200)
        finite = np.isfinite(got)
        assert finite.sum() - np.concatenate(evaluated).size > 5000
        d, eps = np.broadcast_arrays(d, eps)
        np.testing.assert_array_equal(objective(d[finite], eps[finite]), got[finite], strict=True)


# --- block splits -------------------------------------------------------

EPS = -10e-9    # shared by every point below; the bound there is about d = 0.7 m
D_MIXED = 2.75  # m; at EPS a pairwise sum of the products moves the log's last bit


def _one_observer_of_five():
    """One observer of 5 MPCs, sigma about the size of the delay spread: at
    eps = EPS and d near 3 m every factor is neither 0 nor 1, and d = 0
    lies below the bound."""
    tau_a = np.array([20.0, 21.3, 22.1, 23.8, 24.6]) * 1e-9
    tau_b = tau_a[[3, 0, 4, 1, 2]] + np.array([0.7, -0.4, 1.1, 0.2, -0.9]) * 1e-9 + 4e-9
    return delay_set([tau_a], [tau_b]), ErrorModel(sigma_per_mpc=1.5e-9)


def _log_order_sensitive(obs, model, d, eps):
    """Whether the log of the observer's 120 products at (d, eps) gets
    other bits from numpy's pairwise sum of a lone run than from a sum in
    permutation order."""
    (x,) = distest._cross_diffs(obs)[1]
    half, s = d / C, model.sigma_per_mpc[0]
    f = np.clip(ndtr((x - eps + half) / s) - ndtr((x - eps - half) / s), 0.0, 1.0)
    products = np.array([f[np.arange(5), p].prod() for p in itertools.permutations(range(5))])
    return np.log(products.sum()) != np.log(functools.reduce(operator.add, products))


def _kept_at(count, kept, rng):
    """``count`` d values, those at ``kept`` above the bound at ``EPS`` and
    the last of them at ``D_MIXED``; the rest at d = 0."""
    d = np.zeros(count)
    d[kept] = rng.uniform(2.8, 3.2, kept.size)
    d[kept[-1]] = D_MIXED
    return d


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_single_kept_point(where, evaluated):
    obs, model = _one_observer_of_five()
    rng = np.random.default_rng(1)
    i = {"first": 0, "middle": 1500, "last": 2999}[where]
    d = _kept_at(3000, np.array([i]), rng)
    got = _assert_same(obs, model, d, EPS)
    assert np.isfinite(got).sum() == 1 and np.isfinite(got[i])
    assert np.concatenate(evaluated).size == 1  # the kept point alone
    assert distest.loglik_no_assoc(obs, model, d[i], EPS) == got[i]
    assert _log_order_sensitive(obs, model, d[i], EPS)  # so a pairwise sum would show


def test_block_plus_one_kept_points(evaluated):
    obs, model = _one_observer_of_five()
    rng = np.random.default_rng(2)
    kept = np.sort(rng.choice(3000, BLOCK + 1, replace=False))
    d = _kept_at(3000, kept, rng)
    got = _assert_same(obs, model, d, EPS)
    assert np.isfinite(got).sum() == BLOCK + 1
    assert sorted(h.size for h in evaluated) == [1, BLOCK]  # the last point alone
    last = kept[-1]
    assert distest.loglik_no_assoc(obs, model, d[last], EPS) == got[last]  # as above
