"""Known association is the one-MPC case of the association-free likelihood.

``loglik_known_assoc`` evaluates through ``distest._noassoc_kernel`` with
every row its own observer, so it must give the bits of ``loglik_no_assoc``
on the same rows relabeled one observer per row, on a grid (eps shared, the
support-pruned path) and on scattered points (every point its own eps, the
unpruned path).  ``_loglik_known`` is the separate body it had before: one
factor per row, the log terms summed by ``numpy``.  The kernel adds them
row by row, so it must stay within 1e-12 relative of it where it is finite
and give -inf exactly where it does.
"""

from dataclasses import replace

import numpy as np
import pytest

from uwbrel import distest
from uwbrel.distest import loglik_known_assoc, loglik_no_assoc
from uwbrel.likelihood import ErrorModel

from delay_sets import delay_set

MODELS = {
    "scalar-sigma": ErrorModel(sigma_per_mpc=0.2e-9),
    "per-mpc-sigma": ErrorModel(sigma_per_mpc=0.2e-9 * (1.0 + 0.1 * np.arange(12))),
    "none": ErrorModel(kind="none"),
}


def _loglik_known(delta, model, d, eps):
    """The known-association log-likelihood of the diffs ``delta`` as it was
    evaluated before it went through the kernel; MPC k's sigma is delta[k]'s."""
    d = np.asarray(d, dtype=float)
    eps = np.asarray(eps, dtype=float)
    shape = np.broadcast_shapes(d.shape, eps.shape)
    dd = np.broadcast_to(d, shape).ravel()
    ee = np.broadcast_to(eps, shape).ravel()
    half = np.maximum(dd, distest._D_FLOOR)[:, None] / distest._C
    x = delta[None, :] - ee[:, None]
    factors = model.factors(x, half, model.sigmas(delta.size) if model.kind == "gaussian" else None)
    ll = -delta.size * np.log(np.maximum(dd, distest._D_FLOOR))
    ll = ll + distest._log0(factors).sum(axis=1)
    out = ll.reshape(shape)
    return out if out.ndim else float(out)


def _set_3x4(seed):
    """Three observers of 4 MPCs, B-side delays within 6 ns of the A-side
    ones plus a 5 ns clock offset."""
    rng = np.random.default_rng([seed, 15])
    tau_a = [rng.uniform(20e-9, 80e-9, 4) for _ in range(3)]
    tau_b = [ta + rng.uniform(-6e-9, 6e-9, 4) + 5e-9 for ta in tau_a]
    return delay_set(tau_a, tau_b)


def _grid(obs, steps):
    """A (steps, 1) distance and (1, steps) offset grid around the diffs,
    wide enough to hold both zero-likelihood and finite regions."""
    delta = obs.tau_b - obs.tau_a
    d = np.linspace(0.0, 8.0, steps)[:, None]
    e = np.linspace(delta.min() - 10e-9, delta.max() + 10e-9, steps)[None, :]
    return d, e


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("seed", range(3))
def test_known_is_noassoc_of_one_mpc_observers(name, seed):
    model = MODELS[name]
    obs = _set_3x4(seed)
    one_each = replace(obs, observer=np.arange(len(obs)))
    d, e = _grid(obs, 60)
    rng = np.random.default_rng([seed, 16])
    scattered = (rng.uniform(0.0, 8.0, 500), rng.uniform(e.min(), e.max(), 500))
    for point in ((d, e), scattered, (2.0, float(e.mean()))):
        got = loglik_known_assoc(obs, model, *point)
        want = loglik_no_assoc(one_each, model, *point)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)
    assert np.isneginf(loglik_known_assoc(obs, model, d, e)).any()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_kernel_matches_the_old_known_body(name):
    model = MODELS[name]
    obs = _set_3x4(0)
    d, e = _grid(obs, 200)
    got = loglik_known_assoc(obs, model, d, e)
    want = _loglik_known(obs.tau_b - obs.tau_a, model, d, e)
    assert got.shape == want.shape == (200, 200)
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    assert finite.sum() > 100 and (~finite).sum() > 100
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)
