import itertools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from uwbrel.distest import (
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

from delay_sets import delay_set, diff_set


def uniform_model_diffs(rng, d, k, eps=0.0, sigma=0.0):
    """Synthetic diffs under the idealized model: c*diff ~ U(-d, d) iid."""
    delta = rng.uniform(-d, d, size=k) / C + eps
    if sigma > 0:
        delta = delta + rng.normal(0.0, sigma, size=k)
    return diff_set(delta)


class TestClosedForms:
    def test_all_equal_diffs(self):
        est = mvue_async(diff_set([3e-9, 3e-9, 3e-9]))
        assert est.d_hat == 0.0
        assert est.eps_hat == pytest.approx(3e-9)

    def test_hand_arithmetic_k3(self):
        # oracle: (K+1)/(K-1) = 2, spread 4 ns -> d = c * 4 ns
        est = mvue_async(diff_set([-1e-9, 0.0, 3e-9]))
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
        est = mle_async_noiseless(diff_set([0.0, 2e-9]))
        assert est.d_hat == pytest.approx(C * 1e-9, rel=1e-12)

    def test_mvue_unbiased_quick(self):
        rng = np.random.default_rng(2)
        est = [mvue_async(uniform_model_diffs(rng, 2.0, 12)).d_hat for _ in range(20000)]
        se = np.std(est) / np.sqrt(len(est))
        assert np.mean(est) == pytest.approx(2.0, abs=4 * se)

    def test_sync_estimators(self):
        assert mle_sync(diff_set([0.0])).d_hat == 0.0
        est = mle_sync(diff_set([-3e-9, 1e-9]))
        assert est.d_hat == pytest.approx(C * 3e-9, rel=1e-12)
        assert mvue_sync(diff_set([-3e-9, 1e-9])).d_hat == pytest.approx(
            1.5 * C * 3e-9, rel=1e-12)

    def test_mvue_sync_unbiased_quick(self):
        rng = np.random.default_rng(3)
        est = [mvue_sync(uniform_model_diffs(rng, 2.0, 12)).d_hat for _ in range(20000)]
        se = np.std(est) / np.sqrt(len(est))
        assert np.mean(est) == pytest.approx(2.0, abs=4 * se)

    def test_insufficient_mpcs(self):
        with pytest.raises(InsufficientMpcs):
            mvue_async(diff_set([1e-9]))
        with pytest.raises(InsufficientMpcs):
            mle_async_noiseless(diff_set([1e-9]))
        for model in (ErrorModel(sigma_per_mpc=0.2e-9), ErrorModel(kind="none")):
            with pytest.raises(InsufficientMpcs):
                mle_async_noassoc(diff_set([1e-9]), model)

    def test_scale_property(self):
        base = np.array([-2e-9, 0.5e-9, 3e-9])
        d1 = mvue_async(diff_set(base)).d_hat
        d3 = mvue_async(diff_set(3.0 * base)).d_hat
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
        shifted = replace(diffs, tau_b=diffs.tau_b + shift)
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
        a = mle_async_noassoc(delay_set(tau_a, tau_b), model)
        b = mle_async_noassoc(delay_set(tau_a, [tb + shift for tb in tau_b]), model)
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
        """0/1 matrices exactly, uniform [0, 1] ones within 1e-12 relative
        of the correctly rounded sum of the n! products."""
        rng = np.random.default_rng(90 + n)
        zero_one = (rng.uniform(size=(10, 4, n, n)) < 0.6).astype(float)
        floats = rng.uniform(0.0, 1.0, (10, 4, n, n))
        got01, got = permanent(zero_one), permanent(floats)
        assert got01.shape == got.shape == (10, 4)
        for idx in np.ndindex(10, 4):
            assert got01[idx] == self._brute(zero_one[idx])
            assert got[idx] == pytest.approx(self._brute(floats[idx]), rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_empty_batch(self, n):
        """No matrices in, no permanents out: the hard-indicator search
        passes an observer with no candidate left as a (0, n, n) batch."""
        got = permanent(np.ones((0, n, n)))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

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
            got = loglik_no_assoc(delay_set(tau_a, tau_b), model, d, eps)
            want = self._brute_loglik(tau_a, tau_b, sigma, d, eps)
            assert got == pytest.approx(want, rel=1e-12)

    def test_single_mpc_reduces_to_known_association(self):
        rng = np.random.default_rng(11)
        tau_a = [rng.uniform(20e-9, 80e-9, 1) for _ in range(4)]
        tau_b = [ta + rng.uniform(-6e-9, 6e-9, 1) + 5e-9 for ta in tau_a]
        model = ErrorModel(kind="gaussian", sigma_per_mpc=0.3e-9)
        obs = delay_set(tau_a, tau_b)
        a = mle_async_noassoc(obs, model)
        b = mle_async_gaussian(obs, model)
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
            obs = delay_set(tau_a, tau_b)
            known = mle_async_noiseless(obs)
            free = mle_async_noassoc(obs, model)
            at_known = loglik_no_assoc(obs, model,
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
        est = mle_async_noassoc(delay_set(tau_a, tau_b), ErrorModel(kind="none"))
        assert est.diagnostics["feasible"]

    def test_cap(self):
        with pytest.raises(PermutationCapExceeded):
            mle_async_noassoc(delay_set([np.arange(PERMUTATION_CAP + 1) * 1e-9],
                                        [np.arange(PERMUTATION_CAP + 1) * 1e-9]),
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
            mle_async_noassoc(delay_set(tau_a, tau_b), ErrorModel(kind="none"))

    def test_nan_delay_gaussian(self):
        tau_a, tau_b = self._groups()
        tau_a[0][2] = np.nan
        with pytest.raises(InvalidParams, match="finite"):
            mle_async_noassoc(delay_set(tau_a, tau_b),
                              ErrorModel(kind="gaussian", sigma_per_mpc=0.2e-9))

    def test_short_sigma_no_assoc(self):
        model = ErrorModel(kind="gaussian", sigma_per_mpc=[0.2e-9, 0.3e-9])
        with pytest.raises(InvalidParams, match="2 entries for 6 MPCs"):
            mle_async_noassoc(delay_set(*self._groups()), model)

    def test_nan_diff_rejected(self):
        with pytest.raises(InvalidParams, match="finite"):
            diff_set([1e-9, np.nan, 3e-9])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_diff_rejected(self, bad):
        with pytest.raises(InvalidParams, match="finite"):
            diff_set([1e-9, 2e-9], [bad])

    def test_short_sigma_known_assoc(self):
        model = ErrorModel(kind="gaussian", sigma_per_mpc=[0.2e-9, 0.3e-9])
        with pytest.raises(InvalidParams, match="2 entries for 3 MPCs"):
            loglik_known_assoc(diff_set([1e-9, 2e-9, 3e-9]), model, 2.0, 0.0)

    @pytest.mark.parametrize("estimate", [
        mvue_async, mle_async_noiseless, mle_sync, mvue_sync,
        lambda obs: loglik_known_assoc(obs, ErrorModel(sigma_per_mpc=0.2e-9), 2.0, 0.0),
        lambda obs: mle_async_gaussian(obs, ErrorModel(sigma_per_mpc=0.2e-9)),
        lambda obs: loglik_no_assoc(obs, ErrorModel(sigma_per_mpc=0.2e-9), 2.0, 0.0),
        lambda obs: mle_async_noassoc(obs, ErrorModel(kind="none")),
    ], ids=["mvue_async", "mle_async_noiseless", "mle_sync", "mvue_sync",
            "loglik_known_assoc", "mle_async_gaussian", "loglik_no_assoc",
            "mle_async_noassoc"])
    def test_zero_rows_rejected(self, estimate):
        empty = delay_set(*self._groups())[np.zeros(0, dtype=int)]
        with pytest.raises(InvalidParams, match="no observations"):
            estimate(empty)


class TestRowOrder:
    """An observer-interleaved reordering that keeps the first-appearance
    order of the observers and the row order within each of them changes
    no bit of MV or NA."""

    @staticmethod
    def _pair():
        rng = np.random.default_rng(15)
        tau_a = [rng.uniform(20e-9, 80e-9, n) for n in (4, 3, 4)]
        tau_b = [rng.permutation(ta + rng.uniform(-3e-9, 3e-9, ta.size) + 4e-9)
                 for ta in tau_a]
        contiguous = delay_set(tau_a, tau_b)
        # observers 0, 1, 2 first appear in that order; each keeps its row order
        interleaved = contiguous[[0, 4, 1, 7, 5, 2, 8, 3, 6, 9, 10]]
        assert interleaved.observer.tolist() == [0, 1, 0, 2, 1, 0, 2, 0, 1, 2, 2]
        return contiguous, interleaved

    @pytest.mark.parametrize("estimate", [
        mvue_async,
        lambda obs: mle_async_noassoc(obs, ErrorModel(kind="none")),
        lambda obs: mle_async_noassoc(obs, ErrorModel(sigma_per_mpc=0.3e-9)),
    ], ids=["MV", "NA-hard", "NA-gaussian"])
    def test_interleaved_rows_give_the_same_bits(self, estimate):
        contiguous, interleaved = self._pair()
        a, b = estimate(contiguous), estimate(interleaved)
        assert repr(a) == repr(b)


def _scrambled(rng, sizes):
    """Observers of the given sizes, B side scrambled and 4 ns late."""
    tau_a = [rng.uniform(20e-9, 80e-9, n) for n in sizes]
    tau_b = [rng.permutation(ta + rng.uniform(-3e-9, 3e-9, ta.size) + 4e-9) for ta in tau_a]
    return delay_set(tau_a, tau_b)


class TestWholeFloatCounts:
    """``OptimizerConfig`` accepts whole float counts; they give both ML
    estimators the bits of the integer counts."""

    @pytest.mark.parametrize("starts, iters", [(8, 200), (5, 40), (1, 3)])
    def test_float_counts_give_the_integer_bits(self, starts, iters):
        obs = _scrambled(np.random.default_rng(16), [4, 4, 4])
        model = ErrorModel(sigma_per_mpc=0.2e-9)
        cfg = OptimizerConfig(grid_d=(0.0, 20.0, 80), grid_eps=(-60e-9, 60e-9, 80),
                              multistart_count=starts, refine_iters=iters)
        floats = replace(cfg, multistart_count=float(starts), refine_iters=float(iters))
        for estimate in (mle_async_noassoc, mle_async_gaussian):
            assert repr(estimate(obs, model, floats)) == repr(estimate(obs, model, cfg))


class TestConcurrency:
    """Estimators are pure functions, safe to call concurrently (README):
    threads that interleave often get the bits of sequential runs."""

    def test_threads_give_the_bits_of_sequential_runs(self):
        rng = np.random.default_rng(17)
        gaussian = ErrorModel(sigma_per_mpc=0.2e-9)
        jobs = [
            lambda obs=_scrambled(rng, [4, 4, 4]): mle_async_noassoc(obs, gaussian),
            lambda obs=_scrambled(rng, [7]): mle_async_noassoc(obs, ErrorModel(kind="none")),
            lambda obs=_scrambled(rng, [4, 3, 4]): mle_async_gaussian(obs, gaussian),
        ]
        want = [repr(job()) for job in jobs]
        got = [[] for _ in range(4)]  # threads: more than a 2-core machine's cores

        def work(t):
            for _ in range(2):
                for j in range(len(jobs)):
                    j = (j + t) % len(jobs)  # each thread in its own order
                    got[t].append((j, repr(jobs[j]())))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(got))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for results in got:
            assert len(results) == 2 * len(jobs)
            assert all(text == want[j] for j, text in results)
