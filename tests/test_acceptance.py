"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The quantitative
criteria are Monte-Carlo reproductions of the published accuracy study at
desk scale; their tolerance bands are fixed (20% relative on RMSE targets,
30% where noted) and the seeds are pinned for reproducibility.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.special import ndtr

from uwbrel import assoc, chansim, distest, posest
from uwbrel.evalcli import ExperimentConfig, calibrate, dump_surface, run_sweep
from uwbrel.geom import SPEED_OF_LIGHT as C, Observations, complete_mpc, projection_residual
from uwbrel.likelihood import ErrorModel

from delay_sets import delay_set, diff_set


def check(criterion, label, value, lo, hi, unit="m"):
    ok = lo <= value <= hi
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}  "
          f"{label}: {value:.6g} {unit} (band {lo:.6g} .. {hi:.6g})")
    assert ok, f"criterion {criterion}: {label} = {value:.6g} outside [{lo:.6g}, {hi:.6g}]"


def band(criterion, label, value, target, rel=0.20):
    check(criterion, label, value, target * (1 - rel), target * (1 + rel))


class TestPropertyCriteria:
    def test_01_geometric_identity_suite(self):
        # 1000 random consistent scenarios; all identities within 1e-9 m,
        # checked vectorized to honor the 1 s budget
        t0 = time.time()
        rng = np.random.default_rng(42)
        worst = 0.0
        n, k = 1000, 6
        for _ in range(n):
            d = rng.uniform(0.0, 8.0)
            d_vec = np.array([d, 0.0, 0.0])
            tau_a = rng.uniform(17e-9, 140e-9, k)
            v = rng.normal(size=(k, 3))
            dir_a = v / np.linalg.norm(v, axis=1, keepdims=True)
            leg_b = d_vec + C * tau_a[:, None] * dir_a
            norm_b = np.linalg.norm(leg_b, axis=1)
            tau_b = norm_b / C
            dir_b = leg_b / norm_b[:, None]
            # delay-difference bound
            worst = max(worst, float((np.abs(C * (tau_b - tau_a)) - d).max()))
            # vector identity
            recon = C * tau_b[:, None] * dir_b - C * tau_a[:, None] * dir_a
            worst = max(worst, float(np.abs(recon - d_vec).max()))
            # projection identity
            lhs = (dir_a + dir_b) @ d_vec
            rhs = C * (tau_b - tau_a) * (1.0 + np.einsum("ij,ij->i", dir_a, dir_b))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            # combined-direction property s^T d = c * delay diff
            s = (dir_a + dir_b) / (1.0 + np.einsum("ij,ij->i", dir_a, dir_b))[:, None]
            worst = max(worst, float(np.abs(s @ d_vec - C * (tau_b - tau_a)).max()))
        elapsed = time.time() - t0
        # bridge to the library construction on a sample
        tau_a, dir_a = np.array([30e-9]), np.array([[0.0, 1.0, 0.0]])
        tau_b, dir_b, _ = complete_mpc(np.zeros(3), np.array([2.0, 0, 0]), tau_a, dir_a)
        m = Observations(tau_a=tau_a, tau_b=tau_b, dir_a=dir_a, dir_b=dir_b, observer=[0])
        worst = max(worst, abs(projection_residual(m, np.array([2.0, 0, 0]))[0]))
        check(1, f"identity residuals ({elapsed:.2f}s)", worst, 0.0, 1e-9)
        assert elapsed < 1.0

    def test_02_zero_noise_exactness(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            k_o = int(rng.integers(max(2, 5 // m), 7))
            scenario = chansim.sample_scenario(rng.uniform(0.5, 6.0),
                                               chansim.SvParams(), m,
                                               [max(k_o, 5 // m + 1)] * m, rng)
            eps_a = tuple(rng.uniform(0, 100e-9, m))
            noise = chansim.NoiseParams(eps=5e-9, eps_a_per_observer=eps_a)
            obs = chansim.observe(scenario, noise, rng)
            if len(obs) >= 4:
                est = posest.lse_by_delta(obs)
                worst = max(worst, float(np.linalg.norm(est.d_vec - scenario.d_vec)))
            est_t = posest.lse_by_tau(obs)
            worst = max(worst, float(np.linalg.norm(est_t.d_vec - scenario.d_vec)))
            worst = max(worst, abs(est_t.eps_hat - 5e-9) * C)
            for got, want in zip(est_t.eps_a_hats, eps_a):
                worst = max(worst, abs(got - want) * C)
        elapsed = time.time() - t0
        check(2, f"zero-noise recovery error ({elapsed:.2f}s)", worst, 0.0, 1e-9)
        assert elapsed < 5.0

    def test_03_closed_form_relations(self):
        rng = np.random.default_rng(3)
        worst_ratio = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 15))
            diffs = diff_set(rng.uniform(-2.0, 2.0, k) / C + 5e-9)
            a = distest.mvue_async(diffs).d_hat
            b = distest.mle_async_noiseless(diffs).d_hat
            if b > 0:
                worst_ratio = max(worst_ratio, abs(a / b - (k + 1) / (k - 1)))
        check(3, "mvue/mle ratio deviation", worst_ratio, 0.0, 1e-12, unit="")

        scenario = chansim.sample_scenario(2.0, chansim.SvParams(), 3, [4, 4, 4], 5)
        obs = chansim.observe(scenario, chansim.NoiseParams(sigma=0.3e-9, eps=5e-9,
                                                            eps_a_per_observer=(0, 0, 0)), 6)
        ref = posest.lse_by_delta(obs)
        gls = posest.gls_by_delta(obs, np.zeros(12), (0.3e-9) ** 2 * np.eye(12))
        rel = np.linalg.norm(gls.d_vec - ref.d_vec) / np.linalg.norm(ref.d_vec)
        check(3, "gls(iso) vs lse relative", rel, 0.0, 1e-12, unit="")

        diffs = diff_set(np.random.default_rng(9).uniform(-2, 2, 12) / C + 5e-9)
        noiseless = distest.mle_async_noiseless(diffs)
        gauss = distest.mle_async_gaussian(
            diffs, ErrorModel(kind="gaussian", sigma_per_mpc=1e-13))
        check(3, "gaussian-to-noiseless limit gap",
              abs(gauss.d_hat - noiseless.d_hat), 0.0, 1e-3)

    def test_04_shift_equivariance(self):
        rng = np.random.default_rng(4)
        shift = 7.25e-9
        base = rng.uniform(-2, 2, 8) / C + 2e-9
        diffs = diff_set(base[:4], base[4:])
        shifted = diff_set(base[:4] + shift, base[4:] + shift)
        model = ErrorModel(kind="gaussian", sigma_per_mpc=0.2e-9)
        worst_d, worst_e = 0.0, 0.0
        for est in (distest.mvue_async, distest.mle_async_noiseless,
                    lambda x: distest.mle_async_gaussian(x, model)):
            a, b = est(diffs), est(shifted)
            worst_d = max(worst_d, abs(a.d_hat - b.d_hat))
            worst_e = max(worst_e, abs((b.eps_hat - a.eps_hat) - shift))
        tau_a = [rng.uniform(20e-9, 80e-9, 3) for _ in range(2)]
        tau_b = [ta + rng.uniform(-5e-9, 5e-9, 3) + 4e-9 for ta in tau_a]
        a = distest.mle_async_noassoc(delay_set(tau_a, tau_b), model)
        b = distest.mle_async_noassoc(delay_set(tau_a, [tb + shift for tb in tau_b]), model)
        worst_d = max(worst_d, abs(a.d_hat - b.d_hat))
        worst_e = max(worst_e, abs((b.eps_hat - a.eps_hat) - shift))
        check(4, "d-hat shift sensitivity", worst_d, 0.0, 1e-12)
        check(4, "eps-hat shift error", worst_e * C, 0.0, 1e-12)

    def test_05_hungarian_oracle(self):
        rng = np.random.default_rng(55)
        cfg = assoc.AssocConfig(angle_gate=np.pi)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 6))
            dir_a, dir_b, tau_a, tau_b = (np.empty((n, 3)), np.empty((n, 3)),
                                          np.empty(n), np.empty(n))
            for k in range(n):  # draws per k: va, vb, the A delay, the B delay
                va, vb = rng.normal(size=3), rng.normal(size=3)
                dir_a[k], dir_b[k] = va / np.linalg.norm(va), vb / np.linalg.norm(vb)
                tau_a[k] = rng.uniform(20e-9, 100e-9)
                tau_b[k] = rng.uniform(20e-9, 100e-9)
            zeros, ids = np.zeros(n), np.zeros(n, dtype=int)
            ga = chansim.Observations(tau_a, zeros, dir_a, dir_a, ids)
            gb = chansim.Observations(zeros, tau_b, dir_b, dir_b, ids)
            cost = assoc.pair_cost(ga, gb, cfg, np.mean(tau_a), np.mean(tau_b))
            brute = min(sum(cost[k, p[k]] for k in range(n))
                        for p in itertools.permutations(range(n)))
            got = assoc.associate(ga, gb, cfg).total_cost
            worst = max(worst, abs(got - brute) / max(brute, 1e-30))
        check(5, "assignment vs enumeration relative gap", worst, 0.0, 1e-12, unit="")

    def test_06_permanent_oracle(self):
        rng = np.random.default_rng(66)
        sigma = 0.5e-9
        tau_a = [rng.uniform(20e-9, 80e-9, 4), rng.uniform(20e-9, 80e-9, 3)]
        tau_b = [ta + rng.uniform(-6e-9, 6e-9, ta.size) for ta in tau_a]
        model = ErrorModel(kind="gaussian", sigma_per_mpc=sigma)
        worst = 0.0
        for _ in range(20):
            d = rng.uniform(0.5, 6.0)
            eps = rng.uniform(-10e-9, 10e-9)
            got = distest.loglik_no_assoc(delay_set(tau_a, tau_b), model, d, eps)
            want = -7 * np.log(d)
            for ta, tb in zip(tau_a, tau_b):
                acc = 0.0
                for perm in itertools.permutations(range(len(ta))):
                    prod = 1.0
                    for k, l in enumerate(perm):
                        x = tb[l] - ta[k] - eps
                        prod *= ndtr((x + d / C) / sigma) - ndtr((x - d / C) / sigma)
                    acc += prod
                want += np.log(acc) if acc > 0 else -np.inf
            if not np.isfinite(want):
                assert got == want  # both degenerate in the same way
                continue
            worst = max(worst, abs(got - want) / abs(want))
        check(6, "permutation-sum vs enumeration relative gap", worst, 0.0, 1e-12,
              unit="")

    def test_07_mvue_unbiasedness(self):
        rng = np.random.default_rng(77)
        k, d, trials = 12, 2.0, 100000
        spread = rng.uniform(-d, d, size=(trials, k))
        est = (k + 1) / (k - 1) * (spread.max(axis=1) - spread.min(axis=1)) / 2.0
        se = est.std() / np.sqrt(trials)
        check(7, f"mvue mean over {trials} uniform-model trials",
              float(est.mean()), d - 3 * se, d + 3 * se)


class TestQuantitativeCriteria:
    def test_08_distance_estimators_vs_d(self):
        cfg = ExperimentConfig(sweep="distance", d=(2.0, 8.0), trials=1000,
                               estimators=("MV",), seed=801)
        r = run_sweep(cfg)
        band(8, "MV rmse at d=2", r.lookup(2.0, "MV")["rmse_m"], 0.224425)
        band(8, "MV rmse at d=8", r.lookup(8.0, "MV")["rmse_m"], 1.094712)

        cfg = ExperimentConfig(sweep="distance", d=(2.0,), trials=2500,
                               estimators=("SO",), seed=401)
        r = run_sweep(cfg)
        band(8, "SO rmse at d=2", r.lookup(2.0, "SO")["rmse_m"], 0.408092)

        cfg = ExperimentConfig(sweep="distance", d=(2.0,), trials=250, trials_na=250,
                               estimators=("NA",), seed=431)
        r = run_sweep(cfg)
        band(8, "NA rmse at d=2 (250 trials)", r.lookup(2.0, "NA")["rmse_m"],
             0.524190, rel=0.30)

    def test_09_position_estimators_vs_d(self):
        cfg = ExperimentConfig(sweep="distance", d=(2.0, 8.0), trials=2500,
                               estimators=("DD", "PWA", "TAU"), seed=422)
        r = run_sweep(cfg)
        band(9, "DD rmse at d=2", r.lookup(2.0, "DD")["rmse_m"], 0.060435)
        band(9, "DD rmse at d=8 (flat in d)", r.lookup(8.0, "DD")["rmse_m"], 0.060718)
        band(9, "TAU rmse at d=2", r.lookup(2.0, "TAU")["rmse_m"], 0.030090)
        band(9, "PWA rmse at d=2", r.lookup(2.0, "PWA")["rmse_m"], 0.076963)
        band(9, "PWA rmse at d=8 (breakdown)", r.lookup(8.0, "PWA")["rmse_m"],
             0.824734)

        cfg = ExperimentConfig(sweep="distance", d=(6.0,), trials=3500,
                               estimators=("DDN",), seed=201)
        r = run_sweep(cfg)
        band(9, "DDN rmse at d=6 (degrading)", r.lookup(6.0, "DDN")["rmse_m"],
             0.623139, rel=0.30)

    def test_10_direction_error_fragility(self):
        cfg = ExperimentConfig(sweep="direction_error", d=(2.0,),
                               sigma_dir=(np.radians(2.0), np.radians(8.0)),
                               trials=3000, estimators=("DD", "TAU"), seed=411)
        r = run_sweep(cfg)
        dd8 = r.lookup(np.radians(8.0), "DD")["rmse_m"]
        dd2 = r.lookup(np.radians(2.0), "DD")["rmse_m"]
        tau2 = r.lookup(np.radians(2.0), "TAU")["rmse_m"]
        band(10, "DD rmse at sigma_dir=8deg", dd8, 0.137706)
        band(10, "TAU rmse at sigma_dir=2deg", tau2, 0.781112)
        check(10, "TAU/DD fragility ratio at 2deg", tau2 / dd2, 5.0, np.inf, unit="")

    def test_11_distance_vs_k(self):
        ks = (2, 3, 4, 5, 6, 7, 8)
        cfg = ExperimentConfig(sweep="mpc_count", d=(2.0,), m_observers=1,
                               k_per_observer=ks, trials=1000,
                               estimators=("MV",), seed=1101)
        r = run_sweep(cfg)
        band(11, "MV rmse at K=2 (M=1)", r.lookup(2, "MV")["rmse_m"], 1.398504)
        band(11, "MV rmse at K=8 (M=1)", r.lookup(8, "MV")["rmse_m"], 0.334546)
        curve = [r.lookup(k, "MV")["rmse_m"] for k in ks]
        ok = all(a > b for a, b in zip(curve, curve[1:]))
        print(f"[criterion 11] {'PASS' if ok else 'FAIL'}  MV rmse monotone "
              f"decreasing over K: {np.round(curve, 3)}")
        assert ok

    def test_12_position_vs_k(self):
        cfg = ExperimentConfig(sweep="mpc_count", d=(2.0,), m_observers=1,
                               k_per_observer=(4, 5, 8), trials=3000,
                               estimators=("DD", "TAU"), seed=305)
        r = run_sweep(cfg)
        band(12, "DD rmse at K=4 (M=1)", r.lookup(4, "DD")["rmse_m"], 1.004607)
        band(12, "DD rmse at K=8 (M=1)", r.lookup(8, "DD")["rmse_m"], 0.091230)
        band(12, "TAU rmse at K=5 (M=1)", r.lookup(5, "TAU")["rmse_m"], 0.055116)

    def test_13_channel_calibration(self):
        report = calibrate(ExperimentConfig(sweep="calibrate",
                                            calib_samples=1_000_000, seed=13))
        check(13, "mean excess delay", report["mean_excess_s"] * 1e9,
              40.5 * 0.9, 40.5 * 1.1, unit="ns")
        check(13, "rms delay spread", report["rms_spread_s"] * 1e9,
              26.3 * 0.9, 26.3 * 1.1, unit="ns")
        assert report["passed"]

    def test_14_surface_peak_at_truth(self):
        # the noiseless likelihood is flat inside the feasibility wedge, so
        # the maximum is attained by a tie set of cells; the criterion holds
        # when that set reaches within one grid step of the truth
        cfg = ExperimentConfig(sweep="surface", d=(2.5,), sigma=0.0, eps=5e-9,
                               surface_kind="known", surface_scenario="canonical",
                               grid_steps=200)
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in dump_surface(cfg).strip().split("\n")[1:]])
        top = rows[:, 2].max()
        ties = rows[rows[:, 2] >= top - 1e-9 * abs(top)]
        d_step = float(np.diff(np.unique(rows[:, 0]))[0])
        e_step = float(np.diff(np.unique(rows[:, 1]))[0])
        steps_away = np.maximum(np.abs(ties[:, 0] - 2.5) / d_step,
                                np.abs(ties[:, 1] - 5e-9) / e_step)
        check(14, "surface maximum distance from truth (grid steps)",
              float(steps_away.min()), 0.0, 1.0 + 1e-9, unit="steps")
