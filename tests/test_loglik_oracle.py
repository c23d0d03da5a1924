"""Oracle for the compiled association-free likelihood and its permanent.

``_per_observer_loglik`` is the evaluation ``loglik_no_assoc`` did before it
was compiled into ``distest._noassoc_kernel``: every point at once, one
permanent per observer.  Its permanent, ``_permanent_by_masks``, is the
expansion by rows of ``distest.permanent`` written independently, over
column bitmasks instead of the kernel's cached plan: the same products,
added in the same order, elementwise over any batch, so a 2-D matrix is
computed with scalar arithmetic.  The blocked, batch-last kernel must give
the same bits for every input, pruned by its support bound or not, and
``permanent`` the same bits as the oracle.  The permanent is exactly 0
where ``scipy.sparse.csgraph.maximum_bipartite_matching`` finds no perfect
matching of the nonzero pattern (Hall 1935), and only there.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.special import ndtr

from uwbrel import distest
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel.likelihood import ErrorModel

from delay_sets import delay_set

BLOCK = distest._BLOCK


def _permanent_by_masks(mats):
    """The permanents over the last two axes: f[0] = 1, then for rows
    s = 0..n-1 and every column mask S of s+1 bits, f[S] = the sum over
    its bits j, ascending, of f[S - j] * mats[..., s, j], first term
    first."""
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    f = {0: np.ones(mats.shape[:-2])}
    for s in range(n):
        g = {}
        for mask in range(1 << n):
            if bin(mask).count("1") != s + 1:
                continue
            for j in (j for j in range(n) if mask >> j & 1):
                term = f[mask & ~(1 << j)] * mats[..., s, j]
                g[mask] = term if mask not in g else g[mask] + term
        f = g
    out = f[(1 << n) - 1]
    return float(out) if mats.ndim == 2 else out


def _factors(obs, model, d, eps):
    """The flattened points (d, eps) broadcast together, their shape, the
    total MPC count and each observer's (points, n, n) factor matrices."""
    _, cross = distest._cross_diffs(obs)
    k_total = sum(m.shape[0] for m in cross)
    sig = model.sigmas(k_total) if model.kind == "gaussian" else None
    d = np.asarray(d, dtype=float)
    eps = np.asarray(eps, dtype=float)
    shape = np.broadcast_shapes(d.shape, eps.shape)
    dd = np.broadcast_to(d, shape).ravel()
    ee = np.broadcast_to(eps, shape).ravel()
    half = np.maximum(dd, distest._D_FLOOR)[:, None, None] / C
    mats = []
    row = 0  # sigmas in running row order: row k's on the observer-contiguous sets of _groups
    for mat in cross:
        x = mat[None, :, :] - ee[:, None, None]
        if sig is None:
            factors = (np.abs(x) <= half).astype(float)
        else:
            s = sig[row:row + mat.shape[0], None]
            factors = ndtr((x + half) / s) - ndtr((x - half) / s)
        mats.append(np.clip(factors, 0.0, 1.0))
        row += mat.shape[0]
    return dd, shape, k_total, mats


def _per_observer_loglik(obs, model, d, eps):
    dd, shape, k_total, mats = _factors(obs, model, d, eps)
    ll = -k_total * np.log(np.maximum(dd, distest._D_FLOOR))
    for factors in mats:
        ll = ll + distest._log0(_permanent_by_masks(factors))
    out = ll.reshape(shape)
    return out if out.ndim else float(out)


def _hall_zero(obs, model, d, eps):
    """Whether some observer's factor matrix has an all-zero row or column
    at each point, so that its exact permanent is 0."""
    _, shape, _, mats = _factors(obs, model, d, eps)
    out = np.zeros(int(np.prod(shape)), dtype=bool)
    for factors in mats:
        zero = factors == 0.0
        out |= zero.all(axis=2).any(axis=1) | zero.all(axis=1).any(axis=1)
    return out.reshape(shape)


def _groups(rng, sizes):
    """A set of observers of the given sizes, B side scrambled, delays
    within a few ns of each other so the likelihood is finite near the
    truth."""
    tau_a, tau_b = [], []
    for n in sizes:
        ta = rng.uniform(20e-9, 80e-9, n)
        tau_a.append(ta)
        tau_b.append(rng.permutation(ta + rng.uniform(-3e-9, 3e-9, n) + 4e-9))
    return delay_set(tau_a, tau_b)


def _models(rng, k_total):
    """Hard indicator, one sigma, one sigma per MPC, and errors as wide as
    the delay spread: there most of the n! products are neither 0 nor 1, so
    a change in the order they are summed shows in the last bits."""
    return [ErrorModel(kind="none"),
            ErrorModel(kind="gaussian", sigma_per_mpc=0.2e-9),
            ErrorModel(kind="gaussian", sigma_per_mpc=rng.uniform(0.1e-9, 0.5e-9, k_total)),
            ErrorModel(kind="gaussian", sigma_per_mpc=rng.uniform(2e-9, 4e-9, k_total))]


def _points(rng, count):
    """``count`` (d, eps) points around the truth (d about 1.2 m, eps about
    4 ns), every seventh at d = 0."""
    d = rng.uniform(0.0, 3.0, count)
    d[::7] = 0.0
    return d, rng.uniform(0.0, 8e-9, count)


def _assert_same(obs, model, d, eps):
    got = distest.loglik_no_assoc(obs, model, d, eps)
    want = _per_observer_loglik(obs, model, d, eps)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want, strict=True)
    return got


@pytest.mark.parametrize("seed", range(4))
def test_mixed_sizes_and_broadcast_shapes(seed):
    rng = np.random.default_rng(300 + seed)
    sizes_seen = set()
    for _ in range(6):
        sizes = list(rng.integers(1, 7, size=rng.integers(1, 4)))
        sizes.append(7 + (seed + _) % 2)  # one observer of 7 or 8 per input
        sizes = list(rng.permutation(sizes))
        sizes.append(sizes[0])  # two observers of one size share a stack
        sizes_seen.update(int(n) for n in sizes)
        obs = _groups(rng, sizes)
        for model in _models(rng, sum(sizes)):
            d, eps = _points(rng, 12)
            _assert_same(obs, model, d[0], eps[0])              # scalar
            _assert_same(obs, model, 0.0, eps[1])               # scalar at d = 0
            _assert_same(obs, model, d, eps)                    # 1-D
            _assert_same(obs, model, d[:5, None], eps[None, :])  # 2-D, pruned
    assert {7, 8} <= sizes_seen


def test_every_size_one_to_eight_in_one_input():
    rng = np.random.default_rng(17)
    sizes = list(rng.permutation(np.arange(1, 9)))
    obs = _groups(rng, sizes)
    for model in _models(rng, sum(sizes)):
        d, eps = _points(rng, 40)
        _assert_same(obs, model, d, eps)
        _assert_same(obs, model, d[3], eps[3])


def test_single_points_on_observers_of_one_size():
    """A one-point block adds each observer's products in the order a
    batch does; observers stacked by size must not change that."""
    rng = np.random.default_rng(23)
    sizes = [4, 5, 4, 6, 5, 6]
    obs = _groups(rng, sizes)
    model = _models(rng, sum(sizes))[-1]
    d, eps = _points(rng, 60)
    for dv, ev in zip(d, eps):
        _assert_same(obs, model, dv, ev)


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_block_edges(count):
    rng = np.random.default_rng(count)
    sizes = [4, 2, 7, 4, 1]
    obs = _groups(rng, sizes)
    for model in _models(rng, sum(sizes)):
        d, eps = _points(rng, count)
        got = _assert_same(obs, model, d, eps)
        assert np.isfinite(got).any()


@pytest.fixture
def evaluated(monkeypatch):
    """The number of points of each ``ErrorModel.factors`` call."""
    sizes, factors = [], ErrorModel.factors

    def counting(self, x, half, sigma=None):
        sizes.append(np.size(half))
        return factors(self, x, half, sigma)

    monkeypatch.setattr(ErrorModel, "factors", counting)
    return sizes


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_points_with_their_own_eps(count, evaluated):
    """d and eps of one shape, as in a simplex step: below a block, every
    point is evaluated in one call per observer size, with no bounds taken;
    from a block on, the bounds spare the saturated points.  Either way
    the oracle's bits and shape."""
    rng = np.random.default_rng(900 + count)
    sizes = [4, 2, 4, 1]
    obs = _groups(rng, sizes)
    for model in _models(rng, sum(sizes)):
        d, eps = _points(rng, count)
        d[1::7] = 30.0  # every factor saturates at 1
        evaluated.clear()
        assert _assert_same(obs, model, d, eps).shape == (count,)
        if count < BLOCK:
            assert evaluated == [count] * 3
        else:
            assert sum(evaluated) < 3 * count


def test_own_eps_shapes_nan_and_broadcast(evaluated):
    """A scalar point and a 2-D array of points with their own eps take the
    direct path; a NaN eps gives NaN (Gaussian) or -inf (hard indicator)
    there as in the oracle.  A d array against one eps is a grid: its
    saturated points are not evaluated."""
    rng = np.random.default_rng(901)
    sizes = [4, 2, 4, 1]
    obs = _groups(rng, sizes)
    for model in _models(rng, sum(sizes)):
        d, eps = _points(rng, 15)
        d[1::7] = 30.0
        evaluated.clear()
        assert type(_assert_same(obs, model, d[2], eps[2])) is float
        assert _assert_same(obs, model, d.reshape(3, 5), eps.reshape(3, 5)).shape == (3, 5)
        with_nan = np.where(np.arange(15) == 4, np.nan, eps)
        got = _assert_same(obs, model, d, with_nan)
        assert np.isnan(got).tolist() == [i == 4 and model.kind == "gaussian" for i in range(15)]
        assert evaluated == [1] * 3 + [15] * 6
        evaluated.clear()
        assert _assert_same(obs, model, d, eps[2]).shape == (15,)
        assert sum(evaluated) < 3 * 15


def test_grid_of_40000_points():
    """The 200 x 200 grid scan of the benchmark's 3 x 4 setup, a mixed set
    of smaller observers and observers of 7 and 8 MPCs."""
    rng = np.random.default_rng(40000)
    d_grid = np.linspace(0.0, 4.0, 200)[:, None]
    e_grid = np.linspace(-2e-9, 10e-9, 200)[None, :]
    for sizes in ([4, 4, 4], [3, 1, 4, 2], [7, 8]):
        obs = _groups(rng, sizes)
        for model in _models(rng, sum(sizes)):
            got = _assert_same(obs, model, d_grid, e_grid)
            assert got.shape == (200, 200)


@pytest.mark.parametrize("n", range(1, 9))
def test_batch_last_permanent_matches_fancy_index(n):
    """Stacks of every shape, up to 40,000 matrices, get the oracle's bits."""
    rng = np.random.default_rng(60 + n)
    for shape in [(), (1,), (3,), (2, 3), (40000,)]:
        mats = rng.uniform(0.0, 1.0, shape + (n, n))
        mats[..., 0, 0] = rng.uniform(0.0, 1e-12, shape)  # mixed magnitudes
        got, want = distest.permanent(mats), _permanent_by_masks(mats)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want, strict=True)


def _zero_patterns(rng, n, count):
    """``count`` random 0/1 patterns, the second half of them with a Hall
    violation planted: k rows whose nonzeros lie in k - 1 columns.  From
    n = 3 on, the planted patterns have no all-zero row or column."""
    pats = rng.uniform(size=(count, n, n)) < rng.uniform(0.2, 0.9, (count, 1, 1))
    for pat in pats[count // 2:]:
        if n < 3:
            pat[rng.integers(n)] = False
            continue
        k = rng.integers(2, n)
        rows, cols = rng.permutation(n)[:k], rng.permutation(n)[:k - 1]
        pat[np.ix_(rows, np.setdiff1d(np.arange(n), cols))] = False
        pat[rows, rng.choice(cols, k)] = True
        others = np.setdiff1d(np.arange(n), rows)
        for c in np.setdiff1d(np.arange(n), cols):
            pat[rng.choice(others), c] = True
        for r in others:
            pat[r, rng.integers(n)] = True
    return pats


def _perfect_matching(pat):
    match = maximum_bipartite_matching(csr_matrix(pat.astype(float)), perm_type="column")
    return bool((match >= 0).all())


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_zero_exactly_without_a_perfect_matching(n):
    """The permanent is exactly 0.0 where the nonzero pattern has no
    perfect matching, Hall violations without an all-zero row or column
    included, and positive where it has one."""
    rng = np.random.default_rng(700 + n)
    pats = _zero_patterns(rng, n, 400)
    mats = np.where(pats, rng.uniform(1e-3, 1.0, pats.shape), 0.0)
    got = distest.permanent(mats)
    matched = np.array([_perfect_matching(p) for p in pats])
    np.testing.assert_array_equal(got > 0.0, matched)
    assert (got[~matched] == 0.0).all() and (~matched).sum() >= 200
    lines = ~pats.any(axis=2).all(axis=1) | ~pats.any(axis=1).all(axis=1)
    if n >= 3:
        assert (~matched & ~lines).sum() >= 200  # beyond any row or column test


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (2, 0, 0, 0)])
def test_empty_matrices_have_permanent_one(shape):
    got = distest.permanent(np.zeros(shape))
    if len(shape) == 2:
        assert type(got) is float and got == 1.0
    else:
        np.testing.assert_array_equal(got, np.ones(shape[:-2]), strict=True)


def _fuse_batches(n):
    """Batch sizes around ``distest._FUSE`` for n x n stacks: for each row
    s >= 1 of the recursion, the largest batch whose (s+1) C(n, s+1) terms
    per matrix fit, one less and one more; the limit itself, one less and
    one more; and a simplex call's, a hard search's, all the hard
    candidates' and a grid block's sizes."""
    fuse = distest._FUSE
    batches = {1, 4, 48, 300, 1176, 3 * 1024, fuse - 1, fuse, fuse + 1}
    for sub, _ in distest._subsets(n)[1:]:
        batches |= {fuse // sub.size - 1, fuse // sub.size, fuse // sub.size + 1}
    return sorted(b for b in batches if b > 0)


def _batch_last_view(mats):
    """``mats`` (..., n, n) stored batch last, (n, n, ...), and seen
    through a transpose as (..., n, n) again."""
    last = np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)))
    view = np.moveaxis(last, (0, 1), (-2, -1))
    assert view.shape == mats.shape
    return view


@pytest.mark.parametrize("n", range(0, 9))
def test_permanent_on_both_sides_of_the_fuse_limit(n):
    """A row of the recursion is gathered in one step up to ``_FUSE`` terms
    and built term by term above.  Either way every matrix gets the
    oracle's bits, on contiguous stacks and on batch-last stacks passed as
    transposed views (as the likelihood passes its factors), with one or
    two batch axes, and exactly 0.0 where its pattern violates Hall's
    condition.  A 2-D matrix still gives a float, and 0 x 0 gives 1."""
    rng = np.random.default_rng(900 + n)
    hall = None
    if n:
        pats = _zero_patterns(rng, n, 600)[300:]  # each with a Hall violation planted
        hall = np.where(pats, rng.uniform(1e-3, 1.0, pats.shape), 0.0)
    for batch in [(b,) for b in _fuse_batches(n)] + [(3, 1024)]:
        mats = rng.uniform(0.0, 1.0, batch + (n, n))
        if n:
            mats[..., 0, 0] = rng.uniform(0.0, 1e-12, batch)  # mixed magnitudes
        want = _permanent_by_masks(mats)
        for view in (mats, _batch_last_view(mats)):
            np.testing.assert_array_equal(distest.permanent(view), want, strict=True)
        if hall is not None:
            zeros = hall[np.arange(np.prod(batch)).reshape(batch) % len(hall)]
            assert (_permanent_by_masks(zeros) == 0.0).all()
            for view in (zeros, _batch_last_view(zeros)):
                got = distest.permanent(view)
                assert got.shape == batch and (got == 0.0).all()
    single = distest.permanent(mats[0, 0])
    assert type(single) is float and single == float(want[0, 0])
