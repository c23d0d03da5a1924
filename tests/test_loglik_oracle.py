"""Oracle for the compiled association-free likelihood.

``_per_observer_loglik`` is the evaluation ``loglik_no_assoc`` did before it
was compiled into ``distest._noassoc_kernel``: every point at once, one
``permanent`` call per observer, the n <= 6 permanents by a fancy-index
gather over the last two axes.  The blocked, batch-last kernel must give
the same bits for every input, and the batch-last ``permanent`` the same
bits as the old gather.
"""

import itertools

import numpy as np
import pytest
from scipy.special import ndtr

from uwbrel import distest
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel.likelihood import ErrorModel

BLOCK = distest._BLOCK


def _old_permanent(mats):
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    if n <= 6:
        perms = np.array(list(itertools.permutations(range(n))))
        out = mats[..., np.arange(n)[None, :], perms].prod(axis=-1).sum(axis=-1)
    else:
        cols = np.ascontiguousarray(np.moveaxis(mats, -1, 0))
        rowsums = cols[n - 1] - mats.sum(axis=-1) / 2.0
        out = rowsums.prod(axis=-1)
        for k in range(1, 1 << (n - 1)):
            j = (k & -k).bit_length() - 1
            rowsums += cols[j] if (k ^ (k >> 1)) >> j & 1 else -cols[j]
            out += (-1) ** k * rowsums.prod(axis=-1)
        out = (-1) ** (n - 1) * 2.0 * out
    return float(out) if mats.ndim == 2 else out


def _per_observer_loglik(tau_a_groups, tau_b_groups, model, d, eps):
    cross = distest._cross_diffs(tau_a_groups, tau_b_groups)
    k_total = sum(m.shape[0] for m in cross)
    sig = model.sigmas(k_total) if model.kind == "gaussian" else None
    d = np.asarray(d, dtype=float)
    eps = np.asarray(eps, dtype=float)
    shape = np.broadcast_shapes(d.shape, eps.shape)
    dd = np.broadcast_to(d, shape).ravel()
    ee = np.broadcast_to(eps, shape).ravel()
    half = np.maximum(dd, distest._D_FLOOR)[:, None, None] / C
    ll = -k_total * np.log(np.maximum(dd, distest._D_FLOOR))
    row = 0
    for mat in cross:
        x = mat[None, :, :] - ee[:, None, None]
        if sig is None:
            factors = (np.abs(x) <= half).astype(float)
        else:
            s = sig[row:row + mat.shape[0], None]
            factors = ndtr((x + half) / s) - ndtr((x - half) / s)
        ll = ll + distest._log0(_old_permanent(np.clip(factors, 0.0, 1.0)))
        row += mat.shape[0]
    out = ll.reshape(shape)
    return out if out.ndim else float(out)


def _groups(rng, sizes):
    """Observers of the given sizes, B side scrambled, delays within a few
    ns of each other so the likelihood is finite near the truth."""
    tau_a, tau_b = [], []
    for n in sizes:
        ta = rng.uniform(20e-9, 80e-9, n)
        tau_a.append(ta)
        tau_b.append(rng.permutation(ta + rng.uniform(-3e-9, 3e-9, n) + 4e-9))
    return tau_a, tau_b


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


def _assert_same(tau_a, tau_b, model, d, eps):
    got = distest.loglik_no_assoc(tau_a, tau_b, model, d, eps)
    want = _per_observer_loglik(tau_a, tau_b, model, d, eps)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want, strict=True)
    return got


@pytest.mark.parametrize("seed", range(4))
def test_mixed_sizes_and_broadcast_shapes(seed):
    rng = np.random.default_rng(300 + seed)
    sizes_seen = set()
    for _ in range(6):
        sizes = list(rng.integers(1, 7, size=rng.integers(1, 4)))
        sizes.append(7 + (seed + _) % 2)  # one Gray-code observer per input
        sizes = list(rng.permutation(sizes))
        sizes.append(sizes[0])  # two observers of one size share a stack
        sizes_seen.update(int(n) for n in sizes)
        tau_a, tau_b = _groups(rng, sizes)
        for model in _models(rng, sum(sizes)):
            d, eps = _points(rng, 12)
            _assert_same(tau_a, tau_b, model, d[0], eps[0])              # scalar
            _assert_same(tau_a, tau_b, model, 0.0, eps[1])               # scalar at d = 0
            _assert_same(tau_a, tau_b, model, d, eps)                    # 1-D
            _assert_same(tau_a, tau_b, model, d[:5, None], eps[None, :])  # 2-D broadcast
    assert {7, 8} <= sizes_seen


def test_every_size_one_to_eight_in_one_input():
    rng = np.random.default_rng(17)
    sizes = list(rng.permutation(np.arange(1, 9)))
    tau_a, tau_b = _groups(rng, sizes)
    for model in _models(rng, sum(sizes)):
        d, eps = _points(rng, 40)
        _assert_same(tau_a, tau_b, model, d, eps)
        _assert_same(tau_a, tau_b, model, d[3], eps[3])


def test_single_points_on_observers_of_one_size():
    """A one-point block sums each observer's n! products as one contiguous
    run, pairwise, as the per-observer loop did; observers stacked by size
    must not change that.  The refinement evaluates one point at a time."""
    rng = np.random.default_rng(23)
    sizes = [4, 5, 4, 6, 5, 6]
    tau_a, tau_b = _groups(rng, sizes)
    model = _models(rng, sum(sizes))[-1]
    d, eps = _points(rng, 60)
    for dv, ev in zip(d, eps):
        _assert_same(tau_a, tau_b, model, dv, ev)


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_block_edges(count):
    rng = np.random.default_rng(count)
    sizes = [4, 2, 7, 4, 1]
    tau_a, tau_b = _groups(rng, sizes)
    for model in _models(rng, sum(sizes)):
        d, eps = _points(rng, count)
        got = _assert_same(tau_a, tau_b, model, d, eps)
        assert np.isfinite(got).any()


def test_grid_of_40000_points():
    """The 200 x 200 grid scan of the benchmark's 3 x 4 setup, plus a mixed
    set of smaller observers (sizes above 4 would make the all-at-once
    oracle gather more than 100 MB)."""
    rng = np.random.default_rng(40000)
    d_grid = np.linspace(0.0, 4.0, 200)[:, None]
    e_grid = np.linspace(-2e-9, 10e-9, 200)[None, :]
    for sizes in ([4, 4, 4], [3, 1, 4, 2]):
        tau_a, tau_b = _groups(rng, sizes)
        for model in _models(rng, sum(sizes)):
            got = _assert_same(tau_a, tau_b, model, d_grid, e_grid)
            assert got.shape == (200, 200)


@pytest.mark.parametrize("n", range(1, 7))
def test_batch_last_permanent_matches_fancy_index(n):
    rng = np.random.default_rng(60 + n)
    # (40000,) stacks stop at n = 4: a 6 x 6 stack of that size gathers 1.4 GB
    shapes = [(), (1,), (3,), (2, 3)] + [(40000,)] * (n <= 4)
    for shape in shapes:
        mats = rng.uniform(0.0, 1.0, shape + (n, n))
        mats[..., 0, 0] = rng.uniform(0.0, 1e-12, shape)  # mixed magnitudes
        got, want = distest.permanent(mats), _old_permanent(mats)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want, strict=True)
