import numpy as np
import pytest
from scipy.stats import norm

from uwbrel.errors import DegenerateObjective, InvalidParams
from uwbrel.geom import SPEED_OF_LIGHT as C
from uwbrel import likelihood
from uwbrel.likelihood import (ErrorModel, OptimizerConfig, best_first, maximize_2d,
                               soft_indicator)

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

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, [1e-9, np.nan], None])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InvalidParams, match="finite"):
            ErrorModel(sigma_per_mpc=sigma)

    def test_sigma_of_two_dimensions_rejected(self):
        with pytest.raises(InvalidParams, match=r"shape \(2, 3\)"):
            ErrorModel(sigma_per_mpc=np.full((2, 3), 1e-9))

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

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(InvalidParams, match="tolerance must be finite"):
            OptimizerConfig(tolerance=tolerance)

    @pytest.mark.parametrize("grid", [(0.0, np.inf, 10), (-np.inf, 1.0, 10), (0.0, np.nan, 10)])
    def test_non_finite_grid_bound_rejected(self, grid):
        with pytest.raises(InvalidParams, match="grid_d must be finite"):
            OptimizerConfig(grid_d=grid)

    @pytest.mark.parametrize("steps", [np.nan, np.inf])
    def test_non_finite_step_count_rejected(self, steps):
        with pytest.raises(InvalidParams, match="grid_eps must be finite"):
            OptimizerConfig(grid_eps=(-1e-9, 1e-9, steps))

    @pytest.mark.parametrize("name", ["refine_iters", "multistart_count"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1])
    def test_bad_count_rejected(self, name, value):
        with pytest.raises(InvalidParams, match=f"{name} must be a finite count >= 0"):
            OptimizerConfig(**{name: value})

    @pytest.mark.parametrize("field, value", [
        ("refine_iters", 200.5), ("multistart_count", 2.9),
        ("grid_d", (0.0, 1.0, 2.9)), ("grid_eps", (-1e-9, 1e-9, 10.5))])
    def test_fractional_count_rejected(self, field, value):
        """A fraction raises instead of being truncated; a whole float is a count."""
        name = field if field in ("refine_iters", "multistart_count") else f"{field} steps"
        with pytest.raises(InvalidParams, match=f"{name} must be a whole count"):
            OptimizerConfig(**{field: value})
        whole = float(int(value)) if np.isscalar(value) else value[:2] + (float(int(value[2])),)
        OptimizerConfig(**{field: whole})


class TestStartOrder:
    """Starts go by value descending, then lowest index, on every machine:
    ``np.argsort``'s order among equal values depends on its SIMD path."""

    @staticmethod
    def _full_sort(values, count):
        return np.lexsort((np.arange(values.size), -values))[:count]

    def test_duplicated_values(self):
        values = np.array([1.0, 3.0, 3.0, 2.0, 3.0, -np.inf, 3.0, 2.0, -np.inf])
        for count, want in ((1, [1]), (3, [1, 2, 4]), (5, [1, 2, 4, 6, 3]),
                            (7, [1, 2, 4, 6, 3, 7, 0]), (9, [1, 2, 4, 6, 3, 7, 0, 5, 8]),
                            (12, [1, 2, 4, 6, 3, 7, 0, 5, 8])):
            np.testing.assert_array_equal(best_first(values, count), want)

    def test_matches_a_full_stable_sort(self):
        rng = np.random.default_rng(5)
        for size in (1, 2, 7, 300, 40_000):
            values = rng.integers(-3, 4, size).astype(float)
            values[rng.random(size) < 0.3] = -np.inf
            for count in (1, 2, 8, size):
                np.testing.assert_array_equal(best_first(values, count),
                                              self._full_sort(values, count))

    @pytest.mark.parametrize("finite", [0, 1, 7, 8, 9, 200])
    def test_mostly_minus_inf(self, finite):
        """A grid after the branch and bound: nearly every value is -inf, and
        there are fewer, exactly ``count`` or more finite values than
        ``count``, with ties at the count-th value."""
        rng = np.random.default_rng(finite)
        values = np.full(40_000, -np.inf)
        at = rng.choice(values.size, finite, replace=False)
        values[at] = rng.integers(-2, 2, finite).astype(float)
        if finite > 8:
            values[at[:2]] = np.inf
        for count in (1, 2, 8, 20):
            np.testing.assert_array_equal(best_first(values, count),
                                          self._full_sort(values, count))

    def _starts(self, monkeypatch, objective, cfg):
        seen = []
        simplex = likelihood._nelder_mead

        def recording(fun, x0, *args):
            seen.append(x0.copy())
            return simplex(fun, x0, *args)

        monkeypatch.setattr(likelihood, "_nelder_mead", recording)
        result = maximize_2d(objective, cfg)
        (x0,) = seen
        return x0, result

    def test_plateau_grid(self, monkeypatch):
        """A plateau of 30 equal best cells: the 8 of lowest d, then lowest
        eps, are refined, and the best cell is the first of them."""
        cfg = OptimizerConfig(grid_d=(0.0, 9.0, 10), grid_eps=(0.0, 9.0, 10), refine_iters=0)
        d_grid = e_grid = np.arange(10.0)

        def objective(d, eps):
            d, eps = np.broadcast_arrays(d, eps)
            return np.where((d >= 3) & (d <= 7) & (eps >= 2) & (eps <= 7), 1.0, -d - eps)

        x0, (d, eps, value) = self._starts(monkeypatch, objective, cfg)
        want = [(dv, ev) for dv in d_grid for ev in e_grid if 3 <= dv <= 7 and 2 <= ev <= 7][:8]
        np.testing.assert_array_equal(x0 * [1.0, 9.0], want)
        assert (d, eps, value) == (3.0, 2.0, 1.0)

    def test_fewer_finite_cells_than_starts(self, monkeypatch):
        cfg = OptimizerConfig(grid_d=(0.0, 9.0, 10), grid_eps=(0.0, 9.0, 10), refine_iters=0)

        def objective(d, eps):
            d, eps = np.broadcast_arrays(d, eps)
            return np.where((eps == 4) & (d >= 6), 2.0, np.where(d + eps == 3, 1.0, -np.inf))

        x0, _ = self._starts(monkeypatch, objective, cfg)
        want = [(6, 4), (7, 4), (8, 4), (9, 4), (0, 3), (1, 2), (2, 1), (3, 0)]
        np.testing.assert_array_equal(x0 * [1.0, 9.0], want)
        cfg = OptimizerConfig(grid_d=(0.0, 9.0, 10), grid_eps=(0.0, 9.0, 10), refine_iters=0,
                              multistart_count=20)
        x0, _ = self._starts(monkeypatch, objective, cfg)
        assert len(x0) == 8


@pytest.mark.parametrize("count", [0, -1, -5])
def test_best_first_of_a_count_below_one_is_empty(count):
    """No index for a count below 1, and none of no values, whatever the
    count; the result is still an index array."""
    for values in (np.array([1.0, 2.0, 3.0]), np.array([-np.inf, 2.0]), np.array([])):
        got = best_first(values, count)
        assert got.dtype == np.intp and got.size == 0
    for n in (0, 1, 3):
        got = best_first(np.array([]), n)
        assert got.dtype == np.intp and got.size == 0


@pytest.mark.parametrize("field, value, message", [
    ("grid_d", (0.0, 1.0), "grid_d must be three real numbers"),
    ("grid_eps", (-1e-9, 1e-9, 10, 20), "grid_eps must be three real numbers"),
    ("grid_d", (0.0, 1.0, "5"), "grid_d must be three real numbers"),
    ("grid_eps", None, "grid_eps must be three real numbers"),
    ("tolerance", "1", "tolerance must be a real number"),
    ("refine_iters", None, "refine_iters must be a real number"),
    ("multistart_count", "8", "multistart_count must be a real number"),
])
def test_config_rejects_non_numbers(field, value, message):
    """A grid that is not three real numbers, or a setting that is not a
    number, is InvalidParams, not a ValueError from unpacking or a
    TypeError from ``math.isfinite``."""
    with pytest.raises(InvalidParams, match=message):
        OptimizerConfig(**{field: value})
