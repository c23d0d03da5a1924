"""Oracle for the one soft-indicator factor, ``ErrorModel.factors``.

The three functions below are the spellings the factor had before it got one
body: ``likelihood.soft_indicator`` (a scalar sigma per call),
``distest.loglik_known_assoc`` (one sigma per MPC along the last axis) and
``distest._noassoc_kernel`` (``(n_obs, n, 1, 1)`` sigma stacks, clipped).
The factor must give the same bits as each of them, for both model kinds.
The one allowed difference: ``ndtr`` is not monotone in its last bits, so
an unclipped difference of two nearby arguments can come out a few ulps
below zero, and the factor gives 0 there.
"""

import numpy as np
import pytest
from scipy.special import ndtr

from uwbrel import distest
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel.likelihood import ErrorModel, soft_indicator

SIGMA = 0.2e-9
MODELS = {
    "gaussian": ErrorModel(sigma_per_mpc=SIGMA),
    "none": ErrorModel(kind="none"),
}


def _old_soft_indicator(x, d_hyp, model, mpc_index=0):
    x = np.asarray(x, dtype=float)
    half = np.asarray(d_hyp, dtype=float) / C
    if model.kind == "none":
        out = (np.abs(x) <= half).astype(float)
    else:
        s = model.sigma_for(mpc_index)
        out = ndtr((x + half) / s) - ndtr((x - half) / s)
    return out if out.ndim else float(out)


def _old_known_assoc_factors(x, half, model, k):
    if model.kind == "none":
        return (np.abs(x) <= half).astype(float)
    sig = model.sigmas(k)
    return ndtr((x + half) / sig) - ndtr((x - half) / sig)


def _old_noassoc_factors(x, half, s):
    if s is None:
        return (np.abs(x) <= half).astype(float)
    return np.clip(ndtr((x + half) / s) - ndtr((x - half) / s), 0.0, 1.0)


def _assert_same_or_clipped(new, old):
    """Bitwise equal, except that a negative old value is 0 now."""
    new, old = np.asarray(new), np.asarray(old)
    negative = old < 0
    np.testing.assert_array_equal(new[negative], 0.0)
    np.testing.assert_array_equal(new[~negative], old[~negative])
    return int(negative.sum())


def _band_points(rng, n):
    """Residuals with z = x / SIGMA in ndtr's non-monotone band and band
    half-widths of a few ulps, so x + half and x - half are adjacent or
    nearly adjacent floats."""
    x = rng.uniform(-2.6, 2.0, n) * SIGMA
    half = np.abs(np.spacing(x)) * rng.uniform(0.5, 4.0, n)
    return x, half


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_soft_indicator_spelling(kind):
    model = MODELS[kind]
    rng = np.random.default_rng(1)
    x = rng.normal(size=5000) * 2e-9
    d = rng.uniform(0.0, 3.0, 5000)
    new, old = soft_indicator(x, d, model), _old_soft_indicator(x, d, model)
    assert _assert_same_or_clipped(new, old) == 0
    for xi, di in zip(x[:50], d[:50]):
        new = soft_indicator(float(xi), float(di), model)
        assert type(new) is float and new == _old_soft_indicator(float(xi), float(di), model)


def test_soft_indicator_band_negatives_become_zero():
    model = MODELS["gaussian"]
    x, half = _band_points(np.random.default_rng(2), 20000)
    d = half * C
    old = _old_soft_indicator(x, d, model)
    assert _assert_same_or_clipped(soft_indicator(x, d, model), old) > 0
    assert np.all(soft_indicator(x, d, model) >= 0.0)


@pytest.mark.parametrize("kind", ["gaussian", "per_mpc", "none"])
def test_known_assoc_spelling(kind):
    k = 12
    model = (ErrorModel(sigma_per_mpc=SIGMA * (0.5 + np.arange(k) / 4.0)) if kind == "per_mpc"
             else MODELS[kind])
    rng = np.random.default_rng(3)
    delta = rng.normal(size=k) * 3e-9
    eps = rng.normal(size=400) * 3e-9
    d = np.maximum(rng.uniform(-0.5, 4.0, 400), distest._D_FLOOR)
    x = delta[None, :] - eps[:, None]
    half = d[:, None] / C
    sigma = model.sigmas(k) if model.kind == "gaussian" else None
    new = model.factors(x, half, sigma)
    old = _old_known_assoc_factors(x, half, model, k)
    assert _assert_same_or_clipped(new, old) == 0
    if model.kind == "gaussian":
        # where the clip does act, the log-likelihood is unchanged: log of a
        # negative factor is -inf either way
        xb, hb = _band_points(rng, 2000 * k)
        x = xb.reshape(-1, k)
        half = hb.reshape(-1, k)
        new = model.factors(x, half, sigma)
        old = _old_known_assoc_factors(x, half, model, k)
        assert _assert_same_or_clipped(new, old) > 0
        np.testing.assert_array_equal(distest._log0(new), distest._log0(old))


@pytest.mark.parametrize("kind", ["gaussian", "per_mpc", "none"])
def test_noassoc_stack_spelling(kind):
    n_obs, n, points = 3, 4, 300
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(n_obs, n, n, 1)) * 3e-9
    eps = rng.normal(size=points) * 3e-9
    half = np.maximum(rng.uniform(-0.5, 4.0, points), distest._D_FLOOR) / C
    if kind == "none":
        model, s = MODELS["none"], None
    else:
        model = ErrorModel(sigma_per_mpc=SIGMA)
        s = (np.full((n_obs, n, 1, 1), SIGMA) if kind == "gaussian"
             else SIGMA * rng.uniform(0.5, 3.0, (n_obs, n, 1, 1)))
    x = stack - eps
    np.testing.assert_array_equal(model.factors(x, half, s), _old_noassoc_factors(x, half, s))
    if s is not None:  # the clipped spelling on the non-monotone band
        xb, hb = _band_points(rng, n_obs * n * n * points)
        xb = xb.reshape(n_obs, n, n, points)
        hb = hb.reshape(n_obs, n, n, points)
        np.testing.assert_array_equal(model.factors(xb, hb, s), _old_noassoc_factors(xb, hb, s))
