import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from uwbrel.distest import (
    DelayDiffSet,
    PERMUTATION_CAP,
    loglik_known_assoc,
    loglik_no_assoc,
    mle_async_gaussian,
    mle_async_noassoc,
    mle_async_noiseless,
    mle_sync,
    mvue_async,
    mvue_sync,
    permanent,
)
from uwbrel.errors import InsufficientMpcs, InvalidParams, PermutationCapExceeded
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel.likelihood import ErrorModel, OptimizerConfig


def dd(*groups):
    return DelayDiffSet(diffs=tuple(np.asarray(g, dtype=float) for g in groups))


def uniform_model_diffs(rng, d, k, eps=0.0, sigma=0.0):
    """Synthetic diffs under the idealized model: c*diff ~ U(-d, d) iid."""
    delta = rng.uniform(-d, d, size=k) / C + eps
    if sigma > 0:
        delta = delta + rng.normal(0.0, sigma, size=k)
    return dd(delta)


class TestClosedForms:
    def test_all_equal_diffs(self):
        est = mvue_async(dd([3e-9, 3e-9, 3e-9]))
        assert est.d_hat == 0.0
        assert est.eps_hat == pytest.approx(3e-9)

    def test_hand_arithmetic_k3(self):
        # oracle: (K+1)/(K-1) = 2, spread 4 ns -> d = c * 4 ns
        est = mvue_async(dd([-1e-9, 0.0, 3e-9]))
        assert est.d_hat == pytest.approx(C * 4e-9, rel=1e-12)
        assert est.eps_hat == pytest.approx(1e-9, rel=1e-12)

    def test_ratio_between_mvue_and_mle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = rng.integers(2, 20)
            diffs = uniform_model_diffs(rng, 2.0, int(k), eps=5e-9)
            a = mvue_async(diffs)
            b = mle_async_noiseless(diffs)
            assert a.d_hat == pytest.approx((k + 1) / (k - 1) * b.d_hat, rel=1e-14)
            assert a.eps_hat == b.eps_hat

    def test_mle_underestimates_with_probability_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10000):
            est = mle_async_noiseless(uniform_model_diffs(rng, 2.0, 12))
            assert est.d_hat < 2.0

    def test_mle_k2(self):
        est = mle_async_noiseless(dd([0.0, 2e-9]))
        assert est.d_hat == pytest.approx(C * 1e-9, rel=1e-12)

    def test_mvue_unbiased_quick(self):
        rng = np.random.default_rng(2)
        est = [mvue_async(uniform_model_diffs(rng, 2.0, 12)).d_hat for _ in range(20000)]
        se = np.std(est) / np.sqrt(len(est))
        assert np.mean(est) == pytest.approx(2.0, abs=4 * se)

    def test_sync_estimators(self):
        assert mle_sync(dd([0.0])).d_hat == 0.0
        est = mle_sync(dd([-3e-9, 1e-9]))
        assert est.d_hat == pytest.approx(C * 3e-9, rel=1e-12)
        assert mvue_sync(dd([-3e-9, 1e-9])).d_hat == pytest.approx(
            1.5 * C * 3e-9, rel=1e-12)

    def test_mvue_sync_unbiased_quick(self):
        rng = np.random.default_rng(3)
        est = [mvue_sync(uniform_model_diffs(rng, 2.0, 12)).d_hat for _ in range(20000)]
        se = np.std(est) / np.sqrt(len(est))
        assert np.mean(est) == pytest.approx(2.0, abs=4 * se)

    def test_insufficient_mpcs(self):
        with pytest.raises(InsufficientMpcs):
            mvue_async(dd([1e-9]))
        with pytest.raises(InsufficientMpcs):
            mle_async_noiseless(dd([1e-9]))

    def test_scale_property(self):
        base = np.array([-2e-9, 0.5e-9, 3e-9])
        d1 = mvue_async(dd(base)).d_hat
        d3 = mvue_async(dd(3.0 * base)).d_hat
        assert d3 == pytest.approx(3.0 * d1, rel=1e-14)


class TestGaussianMle:
    def test_sigma_to_zero_limit(self):
        rng = np.random.default_rng(4)
        diffs = uniform_model_diffs(rng, 2.0, 12, eps=5e-9)
        ref = mle_async_noiseless(diffs)
        model = ErrorModel(kind="gaussian", sigma_per_mpc=1e-13)
        est = mle_async_gaussian(diffs, model)
        assert est.d_hat == pytest.approx(ref.d_hat, abs=1e-3)
        assert est.eps_hat == pytest.approx(ref.eps_hat, abs=1e-3 / C)

    def test_single_trial_sanity(self):
        rng = np.random.default_rng(5)
        diffs = uniform_model_diffs(rng, 2.0, 12, eps=5e-9, sigma=0.2e-9)
        est = mle_async_gaussian(diffs, ErrorModel(kind="gaussian", sigma_per_mpc=0.2e-9))
        assert abs(est.d_hat - 2.0) < 0.5

    def test_envelope_bound(self):
        # the likelihood never exceeds the 1/d^K envelope
        rng = np.random.default_rng(6)
        diffs = uniform_model_diffs(rng, 2.0, 6)
        model = ErrorModel(kind="gaussian", sigma_per_mpc=0.5e-9)
        d = np.linspace(0.1, 10.0, 50)[:, None]
        e = np.linspace(-10e-9, 10e-9, 50)[None, :]
        ll = loglik_known_assoc(diffs, model, d, e)
        assert np.all(ll <= -6 * np.log(np.broadcast_to(d, ll.shape)) + 1e-12)


class TestShiftEquivariance:
    def _check(self, estimate, shift=7.3e-9):
        rng = np.random.default_rng(7)
        diffs = uniform_model_diffs(rng, 2.0, 8, eps=2e-9, sigma=0.1e-9)
        shifted = dd(*[g + shift for g in diffs.diffs])
        a, b = estimate(diffs), estimate(shifted)
        assert b.d_hat == pytest.approx(a.d_hat, abs=1e-12)
        assert b.eps_hat - a.eps_hat == pytest.approx(shift, abs=1e-15)

    def test_mvue(self):
        self._check(mvue_async)

    def test_mle_noiseless(self):
        self._check(mle_async_noiseless)

    def test_mle_gaussian(self):
        model = ErrorModel(kind="gaussian", sigma_per_mpc=0.1e-9)
        self._check(lambda d: mle_async_gaussian(d, model))

    def test_mle_noassoc(self):
        rng = np.random.default_rng(8)
        tau_a = [rng.uniform(20e-9, 100e-9, 3) for _ in range(2)]
        tau_b = [ta + rng.uniform(-5e-9, 5e-9, 3) + 4e-9 for ta in tau_a]
        model = ErrorModel(kind="gaussian", sigma_per_mpc=0.2e-9)
        shift = 7.3e-9
        a = mle_async_noassoc(tau_a, tau_b, model)
        b = mle_async_noassoc(tau_a, [tb + shift for tb in tau_b], model)
        assert b.d_hat == pytest.approx(a.d_hat, abs=1e-12)
        assert b.eps_hat - a.eps_hat == pytest.approx(shift, abs=1e-15)


class TestPermanent:
    def test_small_matrices_vs_enumeration(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 5, 7):
            m = rng.uniform(0.0, 1.0, (n, n))
            rows = range(n)
            brute = sum(np.prod(m[rows, cols])
                        for cols in itertools.permutations(rows))
            assert permanent(m) == pytest.approx(brute, rel=1e-11)

    def test_identity(self):
        assert permanent(np.eye(4)) == pytest.approx(1.0)
        assert permanent(np.ones((4, 4))) == pytest.approx(24.0)

    @staticmethod
    def _brute(m):
        n = m.shape[0]
        perms = np.array(list(itertools.permutations(range(n))))
        return math.fsum(m[np.arange(n)[None, :], perms].prod(axis=1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_vs_enumeration(self, n):
        rng = np.random.default_rng(90 + n)
        zero_one = (rng.uniform(size=(3, 2, n, n)) < 0.6).astype(float)
        floats = rng.uniform(0.0, 1.0, (3, 2, n, n))
        got01, got = permanent(zero_one), permanent(floats)
        assert got01.shape == got.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            assert got01[idx] == self._brute(zero_one[idx])
            assert got[idx] == pytest.approx(self._brute(floats[idx]), rel=1e-12)

    def test_2d_returns_float(self):
        assert type(permanent(np.ones((7, 7)))) is float
        assert permanent(np.ones((7, 7))) == 5040.0

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (5,), ()])
    def test_non_square_rejected(self, shape):
        with pytest.raises(InvalidParams):
            permanent(np.ones(shape))


class TestNoAssoc:
    def _brute_loglik(self, tau_a, tau_b, sigma, d, eps):
        """Independent oracle: direct permutation-sum evaluation."""
        total = -sum(len(t) for t in tau_a) * np.log(d)
        for ta, tb in zip(tau_a, tau_b):
            ta, tb = np.asarray(ta), np.asarray(tb)
            acc = 0.0
            for perm in itertools.permutations(range(len(ta))):
                prod = 1.0
                for k, l in enumerate(perm):
                    x = tb[l] - ta[k] - eps
                    prod *= (ndtr((x + d / C) / sigma) - ndtr((x - d / C) / sigma))
                acc += prod
            total += np.log(acc) if acc > 0 else -np.inf
        return total

    def test_matches_enumeration_at_random_points(self):
        rng = np.random.default_rng(10)
        sigma = 0.5e-9
        tau_a = [rng.uniform(20e-9, 80e-9, 4), rng.uniform(20e-9, 80e-9, 3)]
        tau_b = [ta + rng.uniform(-6e-9, 6e-9, ta.size) for ta in tau_a]
        model = ErrorModel(kind="gaussian", sigma_per_mpc=sigma)
        for _ in range(20):
            d = rng.uniform(0.5, 6.0)
            eps = rng.uniform(-10e-9, 10e-9)
            got = loglik_no_assoc(tau_a, tau_b, model, d, eps)
            want = self._brute_loglik(tau_a, tau_b, sigma, d, eps)
            assert got == pytest.approx(want, rel=1e-12)

    def test_single_mpc_reduces_to_known_association(self):
        rng = np.random.default_rng(11)
        tau_a = [rng.uniform(20e-9, 80e-9, 1) for _ in range(4)]
        tau_b = [ta + rng.uniform(-6e-9, 6e-9, 1) + 5e-9 for ta in tau_a]
        model = ErrorModel(kind="gaussian", sigma_per_mpc=0.3e-9)
        diffs = dd(*[tb - ta for ta, tb in zip(tau_a, tau_b)])
        a = mle_async_noassoc(tau_a, tau_b, model)
        b = mle_async_gaussian(diffs, model)
        assert a.d_hat == pytest.approx(b.d_hat, abs=2e-3)
        assert a.eps_hat == pytest.approx(b.eps_hat, abs=2e-3 / C)

    def test_noiseless_feasible_set_widening(self):
        # permutation freedom can only widen the feasible set: the known-
        # association solution stays feasible for the association-free
        # likelihood, and the chosen candidate never scores below it.
        # (The argmax itself may sit at a larger d when several permutations
        # are simultaneously feasible there: the permutation sum counts
        # multiplicity.)
        rng = np.random.default_rng(12)
        model = ErrorModel(kind="none")
        smaller = 0
        for _ in range(100):
            tau_a = [np.sort(rng.uniform(20e-9, 80e-9, 3)) for _ in range(2)]
            tau_b = [np.sort(ta + rng.uniform(-5e-9, 5e-9, 3) + 4e-9) for ta in tau_a]
            diffs = dd(*[tb - ta for ta, tb in zip(tau_a, tau_b)])
            known = mle_async_noiseless(diffs)
            free = mle_async_noassoc(tau_a, tau_b, model)
            at_known = loglik_no_assoc(tau_a, tau_b, model,
                                       max(known.d_hat, 1e-6) * (1 + 1e-12) + 1e-12,
                                       known.eps_hat)
            assert np.isfinite(at_known)
            assert free.diagnostics["loglik"] >= at_known - 1e-9
            smaller += free.d_hat <= known.d_hat + 1e-9
        assert smaller >= 70

    def test_noiseless_feasibility_of_result(self):
        rng = np.random.default_rng(13)
        tau_a = [np.sort(rng.uniform(20e-9, 80e-9, 3)) for _ in range(2)]
        tau_b = [np.sort(ta + rng.uniform(-5e-9, 5e-9, 3) + 4e-9) for ta in tau_a]
        est = mle_async_noassoc(tau_a, tau_b, ErrorModel(kind="none"))
        assert est.diagnostics["feasible"]

    def test_cap(self):
        with pytest.raises(PermutationCapExceeded):
            mle_async_noassoc([np.arange(PERMUTATION_CAP + 1) * 1e-9],
                              [np.arange(PERMUTATION_CAP + 1) * 1e-9],
                              ErrorModel(kind="none"))


class TestInputChecks:
    """Bad delays and sigma arrays raise InvalidParams where they enter."""

    def _groups(self):
        rng = np.random.default_rng(14)
        tau_a = [rng.uniform(20e-9, 80e-9, 3) for _ in range(2)]
        return tau_a, [ta + 4e-9 for ta in tau_a]

    def test_nan_delay_hard_indicator(self):
        tau_a, tau_b = self._groups()
        tau_b[1][0] = np.nan
        with pytest.raises(InvalidParams, match="finite"):
            mle_async_noassoc(tau_a, tau_b, ErrorModel(kind="none"))

    def test_nan_delay_gaussian(self):
        tau_a, tau_b = self._groups()
        tau_a[0][2] = np.nan
        with pytest.raises(InvalidParams, match="finite"):
            mle_async_noassoc(tau_a, tau_b,
                              ErrorModel(kind="gaussian", sigma_per_mpc=0.2e-9))

    def test_empty_observer_group(self):
        tau_a, tau_b = self._groups()
        with pytest.raises(InvalidParams, match="at least one MPC"):
            loglik_no_assoc(tau_a + [[]], tau_b + [[]],
                            ErrorModel(kind="gaussian", sigma_per_mpc=0.2e-9), 2.0, 0.0)

    def test_observer_count_mismatch(self):
        tau_a, tau_b = self._groups()
        with pytest.raises(InvalidParams, match="number of observer groups"):
            mle_async_noassoc(tau_a, tau_b[:1], ErrorModel(kind="none"))

    def test_short_sigma_no_assoc(self):
        tau_a, tau_b = self._groups()
        model = ErrorModel(kind="gaussian", sigma_per_mpc=[0.2e-9, 0.3e-9])
        with pytest.raises(InvalidParams, match="2 entries for 6 MPCs"):
            mle_async_noassoc(tau_a, tau_b, model)

    def test_nan_diff_rejected(self):
        with pytest.raises(InvalidParams, match="finite"):
            dd([1e-9, np.nan, 3e-9])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_diff_rejected(self, bad):
        with pytest.raises(InvalidParams, match="finite"):
            dd([1e-9, 2e-9], [bad])

    def test_short_sigma_known_assoc(self):
        model = ErrorModel(kind="gaussian", sigma_per_mpc=[0.2e-9, 0.3e-9])
        with pytest.raises(InvalidParams, match="2 entries for 3 MPCs"):
            loglik_known_assoc(dd([1e-9, 2e-9, 3e-9]), model, 2.0, 0.0)
