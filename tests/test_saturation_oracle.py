"""Oracle for the saturation skip in ``ErrorModel.factors``.

The Gaussian factor calls ``ndtr`` only where its value is not already
fixed by saturation.  ``_full`` is the expression it evaluated everywhere
before, and the factor must give its bits on every input, NaN included.
The scans put both ends of the band, z+ = (x + half) / sigma and
z- = (x - half) / sigma, densely across the edges where ``ndtr`` saturates
(about +-8.29 and -37.68) and across the skip bounds themselves.
"""

import numpy as np
import pytest
from scipy.special import ndtr

from uwbrel import likelihood
from uwbrel.likelihood import ErrorModel

HI, LO = likelihood._Z_HI, likelihood._Z_LO
EDGES = (8.29237, -8.29236, -37.677, HI, -HI, LO)
MODEL = ErrorModel(sigma_per_mpc=1.0)  # factors() takes its sigma as an argument


def _full(x, half, sigma):
    return np.clip(ndtr((x + half) / sigma) - ndtr((x - half) / sigma), 0.0, 1.0)


def _pairs(dense_count, seed):
    """(z+, z-) targets: each edge scanned densely on one end against a
    coarse set on the other, both ways round, plus random pairs."""
    rng = np.random.default_rng(seed)
    coarse = np.concatenate([np.linspace(-45.0, 45.0, 19), EDGES, np.negative(EDGES),
                             [0.0, np.inf, -np.inf]])
    zp, zm = [], []
    for edge in EDGES:
        dense = np.linspace(edge - 0.25, edge + 0.25, dense_count)
        zp += [np.repeat(dense, coarse.size), np.tile(coarse, dense.size)]
        zm += [np.tile(coarse, dense.size), np.repeat(dense, coarse.size)]
    zp.append(rng.uniform(-50.0, 50.0, 20000))
    zm.append(rng.uniform(-50.0, 50.0, 20000))
    return np.concatenate(zp), np.concatenate(zm)


def _inputs(zp, zm, sigma):
    """Residuals and half-widths whose band ends sit at ``zp``, ``zm``."""
    with np.errstate(invalid="ignore"):
        return (zp + zm) / 2.0 * sigma, (zp - zm) / 2.0 * sigma


def _assert_same(x, half, sigma):
    with np.errstate(invalid="ignore"):
        want = _full(x, half, sigma)
        got = MODEL.factors(x, half, sigma)
    np.testing.assert_array_equal(got, want, strict=True)
    return got


def test_thresholds_pinned_by_scans():
    """ndtr is exactly 1 from HI up, exactly 0 from LO down, and 1 - ndtr is
    exactly 1 from -HI down; the measured edges sit inside the margins."""
    up = np.concatenate([np.linspace(HI, 40.0, 400001), np.geomspace(40.0, 1e300, 1000), [np.inf]])
    assert (ndtr(up) == 1.0).all()
    assert (1.0 - ndtr(-up) == 1.0).all()
    down = np.concatenate([np.linspace(LO, -80.0, 400001), -np.geomspace(80.0, 1e300, 1000),
                           [-np.inf]])
    assert (ndtr(down) == 0.0).all()

    near_hi = np.linspace(8.0, HI, 500001)
    assert 8.29 < near_hi[ndtr(near_hi) < 1.0].max() < 8.2924 < HI - 0.2
    assert 8.29 < near_hi[1.0 - ndtr(-near_hi) < 1.0].max() < 8.2924 < HI - 0.2
    near_lo = np.linspace(-37.0, LO, 500001)
    assert -37.67 > near_lo[ndtr(near_lo) > 0.0].min() > -37.678 > LO + 0.3


@pytest.mark.parametrize("sigma", [1.0, 0.2e-9, 3e-9])
def test_scalar_sigma_dense_edge_scans(sigma):
    zp, zm = _pairs(4001, seed=int(sigma * 1e12))
    x, half = _inputs(zp, zm, sigma)
    got = _assert_same(x, half, sigma)
    # the scans reach every branch: fixed 0, fixed 1 and ndtr, near each bound
    with np.errstate(invalid="ignore"):
        zp_c, zm_c = (x + half) / sigma, (x - half) / sigma
    one = (zp_c >= HI) & (zm_c <= -HI)
    zero = ((zm_c >= HI) | (zp_c <= LO)) & ~np.isnan(zp_c + zm_c)
    live = ~(one | zero)
    assert one.sum() > 1000 and zero.sum() > 1000 and live.sum() > 1000
    assert (got[one] == 1.0).all() and (got[zero] == 0.0).all()
    for bound, z in ((HI, zp_c), (-HI, zm_c), (HI, zm_c), (LO, zp_c)):
        close = np.abs(z - bound) < 1e-3
        assert close.sum() > 100 and live[close].any() and (~live[close]).any()


def test_per_mpc_sigma_along_last_axis():
    """The known-association layout: (points, K) residuals, K sigmas."""
    rng = np.random.default_rng(5)
    sig = np.geomspace(1e-12, 1e-8, 16)
    zp, zm = _pairs(801, seed=6)
    cut = zp.size // sig.size * sig.size
    zp, zm = zp[:cut].reshape(-1, sig.size), zm[:cut].reshape(-1, sig.size)
    x, half = _inputs(zp, zm, sig)
    _assert_same(x, half, sig)
    # a common half-width per point, broadcast like loglik_known_assoc's
    half_col = rng.uniform(0.0, 50.0, (x.shape[0], 1)) * 1e-9
    _assert_same(x, half_col, sig)


def test_stacked_sigma_of_the_noassoc_kernel():
    """The kernel's layout: (n_obs, n, n, points) residuals, (points,)
    half-widths and (n_obs, n, 1, 1) sigma stacks."""
    rng = np.random.default_rng(7)
    n_obs, n, points = 3, 4, 2048
    sig = rng.uniform(0.05e-9, 4e-9, (n_obs, n, 1, 1))
    x = rng.uniform(-60e-9, 60e-9, (n_obs, n, n, 1)) - rng.uniform(-60e-9, 60e-9, points)
    got = np.stack([_assert_same(x, half, sig) for half in (
        rng.uniform(0.0, 40e-9, points), np.full(points, 1e-6 / 299792458.0),
        rng.uniform(0.0, 400e-9, points))])
    assert (got == 0.0).any() and (got == 1.0).any() and ((got > 0) & (got < 1)).any()


@pytest.mark.parametrize("sigma", [1.0, 0.2e-9, 3e-9])
def test_zero_below_implies_an_exact_zero(sigma):
    """Wherever ``half < zero_below(x, sigma)`` on finite inputs, the factor
    is exactly 0, for both kinds: the support bound of the association-free
    likelihood prunes only points whose factors are 0."""
    zp, zm = _pairs(2001, seed=int(sigma * 1e12) + 1)
    x, half = _inputs(zp, zm, sigma)
    finite = np.isfinite(x) & np.isfinite(half)
    x, half = x[finite], half[finite]
    for model, s in ((MODEL, sigma), (ErrorModel(kind="none"), None)):
        below = half < model.zero_below(x, s)
        assert below.sum() > 1000 and (~below).sum() > 1000
        assert (model.factors(x[below], half[below], s) == 0.0).all()


@pytest.mark.parametrize("sigma", [1.0, 0.2e-9, 3e-9, np.geomspace(1e-12, 1e-8, 16)])
def test_one_above_implies_an_exact_one(sigma):
    """Wherever ``half > one_above(x, sigma) * (1 + 1e-9)`` on finite inputs,
    the factor is exactly 1, for both kinds, with one sigma or one per MPC
    along the last axis: the association-free likelihood gives the points
    above that bound (its margin included) every factor 1 without
    evaluating them.  Besides the edge scans, half-widths sit one and a
    few ulps above the margin, at residuals up to 1e4 sigma, where
    ``x +- half`` rounds the most."""
    sig = np.atleast_1d(sigma)
    zp, zm = _pairs(2001, seed=sig.size * 7 + int(sig[0] * 1e12) + 2)
    cut = zp.size // sig.size * sig.size
    x, half = _inputs(zp[:cut].reshape(-1, sig.size), zm[:cut].reshape(-1, sig.size), sig)
    rng = np.random.default_rng(sig.size)
    x_edge = rng.uniform(-1.0, 1.0, (6000, sig.size)) * np.geomspace(1e-3, 1e4, 6000)[:, None] * sig
    x_edge[::50] = 0.0
    for model, s in ((ErrorModel(sigma_per_mpc=sig), sig), (ErrorModel(kind="none"), None)):
        edge = np.nextafter(model.one_above(x_edge, s) * (1 + 1e-9), np.inf)
        xs = np.concatenate([x, x_edge, x_edge])
        hs = np.concatenate([half, edge, edge * (1 + 4e-16)])
        with np.errstate(invalid="ignore"):
            above = np.isfinite(xs) & np.isfinite(hs) & (hs > model.one_above(xs, s) * (1 + 1e-9))
            got = model.factors(xs, hs, s)
        assert above[:len(x)].sum() > 1000 and (~above[:len(x)]).sum() > 1000
        assert above[len(x):].all()
        assert (got[above] == 1.0).all()


def test_non_finite_and_scalar_inputs():
    sigma = 0.2e-9
    x = np.array([np.nan, np.inf, -np.inf, 0.0, 1e-9, np.nan, np.inf])
    half = np.array([1e-9, 1e-9, 1e-9, np.inf, np.nan, np.inf, np.inf])
    got = _assert_same(x, half, sigma)
    assert np.isnan(got[[0, 4, 5, 6]]).all()
    for xv, hv in ((0.0, 1e-10), (5e-9, 1e-10), (-8e-9, 1e-10), (np.nan, 1e-10)):
        _assert_same(np.float64(xv), hv, sigma)
        _assert_same(np.array(xv), np.array(hv), np.array(sigma))
