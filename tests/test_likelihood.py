import numpy as np
import pytest
from scipy.stats import norm

from uwbrel.errors import DegenerateObjective, InvalidParams
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel.likelihood import ErrorModel, OptimizerConfig, maximize_2d, soft_indicator

GAUSS_1NS = ErrorModel(kind="gaussian", sigma_per_mpc=1e-9)


class TestSoftIndicator:
    def test_symmetric_center(self):
        sigma = 1e-9
        for d in (0.1, 0.5, 2.0):
            expected = 1.0 - 2.0 * norm.sf(d / (C * sigma))
            assert soft_indicator(0.0, d, GAUSS_1NS) == pytest.approx(expected, rel=1e-12)

    def test_zero_width_hypothesis(self):
        assert soft_indicator(0.0, 0.0, GAUSS_1NS) == 0.0
        assert soft_indicator(3e-9, 0.0, GAUSS_1NS) == 0.0

    def test_one_sigma_band_table_value(self):
        # oracle: standard-normal table, Phi(1) - Phi(-1)
        val = soft_indicator(0.0, C * 1e-9, GAUSS_1NS)
        assert val == pytest.approx(0.6826894921370859, rel=1e-12)

    def test_nondecreasing_in_d_and_saturates(self):
        x = 2e-9
        ds = np.linspace(0.0, 100.0, 50)
        vals = [soft_indicator(x, d, GAUSS_1NS) for d in ds]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert soft_indicator(x, 1e6, GAUSS_1NS) == pytest.approx(1.0, abs=1e-12)

    def test_hard_indicator_is_sigma_zero_limit(self):
        tiny = ErrorModel(kind="gaussian", sigma_per_mpc=1e-15)
        hard = ErrorModel(kind="none")
        for x, d in [(0.5e-9, 1.0), (2e-9, 0.3), (-1e-9, 0.5), (0.2e-9, 0.01)]:
            # stay away from the set boundary |c x| = d
            assert soft_indicator(x, d, tiny) == pytest.approx(
                soft_indicator(x, d, hard), abs=1e-9)

    def test_hard_indicator_values(self):
        hard = ErrorModel(kind="none")
        assert soft_indicator(1e-9, C * 2e-9, hard) == 1.0
        assert soft_indicator(3e-9, C * 2e-9, hard) == 0.0

    def test_model_validation(self):
        with pytest.raises(InvalidParams):
            ErrorModel(kind="gaussian", sigma_per_mpc=0.0)
        with pytest.raises(InvalidParams):
            ErrorModel(kind="weird")

    def test_mpc_index_out_of_range(self):
        model = ErrorModel(sigma_per_mpc=[1e-9, 2e-9])
        assert soft_indicator(1e-9, 2.0, model, mpc_index=1) == soft_indicator(
            1e-9, 2.0, ErrorModel(sigma_per_mpc=2e-9))
        for index in (2, 5, -1):
            with pytest.raises(InvalidParams, match=f"2 entries, none for MPC {index}"):
                soft_indicator(1e-9, 2.0, model, mpc_index=index)


class TestMaximize2d:
    def test_quadratic_optimum(self):
        def objective(d, eps):
            return -((d - 3.0) ** 2) - ((eps - 5e-9) * 1e9) ** 2

        cfg = OptimizerConfig(grid_d=(0.0, 10.0, 100), grid_eps=(-20e-9, 20e-9, 100))
        d, eps, val = maximize_2d(objective, cfg)
        assert d == pytest.approx(3.0, abs=1e-4)
        assert eps == pytest.approx(5e-9, abs=1e-13)

    def test_bimodal_finds_global(self):
        def objective(d, eps):
            peak1 = 1.0 * np.exp(-((d - 1.0) ** 2) / 0.02 - ((eps) * 1e9) ** 2)
            peak2 = 0.6 * np.exp(-((d - 4.0) ** 2) / 0.02 - ((eps - 8e-9) * 1e9) ** 2)
            return peak1 + peak2

        cfg = OptimizerConfig(grid_d=(0.0, 6.0, 120), grid_eps=(-15e-9, 15e-9, 120))
        d, eps, _ = maximize_2d(objective, cfg)
        assert d == pytest.approx(1.0, abs=1e-3)
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_constant_objective_tie_break(self):
        cfg = OptimizerConfig(grid_d=(0.5, 2.0, 10), grid_eps=(-1e-9, 1e-9, 10))
        d, eps, val = maximize_2d(lambda d, e: np.zeros(np.broadcast_shapes(
            np.shape(d), np.shape(e))), cfg)
        assert val == 0.0
        assert d == pytest.approx(0.5)
        assert eps == pytest.approx(-1e-9)

    def test_never_below_grid_best(self):
        rng = np.random.default_rng(0)
        tbl = rng.normal(size=(40, 40))

        def objective(d, eps):
            i = np.clip(np.rint(np.asarray(d) * 39 / 5).astype(int), 0, 39)
            j = np.clip(np.rint((np.asarray(eps) + 5e-9) * 39 / 10e-9).astype(int), 0, 39)
            return tbl[i, j]

        cfg = OptimizerConfig(grid_d=(0.0, 5.0, 40), grid_eps=(-5e-9, 5e-9, 40))
        d_grid = np.linspace(0.0, 5.0, 40)
        e_grid = np.linspace(-5e-9, 5e-9, 40)
        grid_best = objective(d_grid[:, None], e_grid[None, :]).max()
        _, _, val = maximize_2d(objective, cfg)
        assert val >= grid_best - 1e-12

    def test_degenerate_objective_raises(self):
        cfg = OptimizerConfig(grid_d=(0.0, 1.0, 10), grid_eps=(0.0, 1e-9, 10))
        with pytest.raises(DegenerateObjective):
            maximize_2d(lambda d, e: np.full(np.broadcast_shapes(
                np.shape(d), np.shape(e)), -np.inf), cfg)

    def test_extra_starts_respected(self):
        # a spike the coarse grid cannot see
        def objective(d, eps):
            base = -np.abs(np.asarray(d) - 2.5) - np.abs(np.asarray(eps)) * 1e9
            return base + 10.0 * np.exp(-((np.asarray(d) - 2.5) ** 2) * 1e6
                                        - (np.asarray(eps) * 1e9) ** 2 * 1e6)

        cfg = OptimizerConfig(grid_d=(0.0, 10.0, 20), grid_eps=(-5e-9, 5e-9, 20))
        d, _, val = maximize_2d(objective, cfg, extra_starts=[(2.5, 0.0)])
        assert d == pytest.approx(2.5, abs=1e-3)
        assert val > 9.0

    def test_config_validation(self):
        with pytest.raises(InvalidParams):
            OptimizerConfig(grid_d=(1.0, 1.0, 10))
        with pytest.raises(InvalidParams):
            OptimizerConfig(tolerance=0.0)
