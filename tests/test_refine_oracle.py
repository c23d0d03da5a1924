"""Oracle for the lockstep simplex refinement and lone-point bits.

``maximize_2d`` used to refine each start with its own
``scipy.optimize.minimize(method="Nelder-Mead")`` run on a scalar
objective; ``_old_maximize_2d`` below is that maximizer.  Start for start,
the lockstep ``_nelder_mead`` must end on the same bits of ``x`` and
``fun`` after the same number of evaluations.  A lone start evaluates
each iteration's reflection and all three second points scipy may take in
one call; once the second points not taken are dropped, its points must be
scipy's, in the same order.  The NA likelihood and
``permanent`` must give every point and matrix of a batch the bits it gets
alone, since the refinement's points used to be evaluated one at a time.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from uwbrel import distest, likelihood
from uwbrel.likelihood import ErrorModel, OptimizerConfig, maximize_2d

from delay_sets import delay_set, diff_set

XATOL = 1e-5  # OptimizerConfig().tolerance / 10
E_SPAN = 2e-8


def _old_maximize_2d(objective, cfg, extra_starts=()):
    d_lo, d_hi, d_steps = cfg.grid_d
    e_lo, e_hi, e_steps = cfg.grid_eps
    d_grid = np.linspace(d_lo, d_hi, int(d_steps))
    e_grid = np.linspace(e_lo, e_hi, int(e_steps))
    vals = np.asarray(objective(d_grid[:, None], e_grid[None, :]), dtype=float)
    flat = np.where(np.isnan(vals), -np.inf, vals).ravel()
    order = np.lexsort((np.arange(flat.size), -flat))  # value descending, then lowest index
    starts = list(extra_starts)
    for idx in order[: max(1, int(cfg.multistart_count))]:
        if not np.isfinite(flat[idx]):
            break
        starts.append((d_grid[idx // len(e_grid)], e_grid[idx % len(e_grid)]))
    best_idx = int(np.argmax(flat))
    best = (float(d_grid[best_idx // len(e_grid)]), float(e_grid[best_idx % len(e_grid)]),
            float(flat[best_idx]))
    e_span = max(e_hi - e_lo, 1e-12)

    def neg(z):
        v = objective(float(z[0]), float(z[1]) * e_span)
        return -float(v) if np.isfinite(v) else 1e300

    for d0, e0 in starts:
        res = minimize(neg, [d0, e0 / e_span], method="Nelder-Mead",
                       options={"maxiter": int(cfg.refine_iters), "xatol": cfg.tolerance / 10.0,
                                "fatol": 1e-12})
        cand = (float(res.x[0]), float(res.x[1]) * e_span, float(-res.fun))
        if cand[2] > best[2]:
            best = cand
    return best


# --- objectives of (d, eps), broadcasting --------------------------------
# Squares are written as products: numpy's float64 scalar ``x ** 2`` can
# differ from the array one in the last bit, and the refinement evaluates
# arrays where the old loop evaluated scalars.

def _quadratic(d, eps):
    dd, u = np.asarray(d) - 1.3, np.asarray(eps) / E_SPAN - 0.2
    return -dd * dd - 3.0 * u * u - 0.5 * dd * (u + 0.2)


def _banana(d, eps):
    d, u = np.asarray(d), np.asarray(eps) / E_SPAN
    return -(1.0 - d) * (1.0 - d) - 20.0 * (u - d * d) * (u - d * d)


def _kinked(d, eps):
    u = np.asarray(eps) / E_SPAN
    return -(np.abs(np.asarray(d) - 2.0) + 5.0 * np.abs(u - 0.1))


def _terraced(d, eps):
    u = np.asarray(eps) / E_SPAN
    return -np.floor(3.0 * np.abs(np.asarray(d) - 1.0)) - np.floor(4.0 * np.abs(u))


def _rippled(d, eps):
    """Ripples about as wide as the first simplex: not convex, so an outside
    contraction can land higher than the reflection."""
    d, u = np.asarray(d), np.asarray(eps) / E_SPAN
    return np.cos(23.0 * d) + np.cos(41.0 * u) - 0.1 * d * d


def _walled(d, eps):
    """-inf beyond d = 2.5 and NaN below d = 0.2: both refine as 1e300."""
    d = np.asarray(d, dtype=float)
    v = np.where(d < 2.5, _quadratic(d, eps), -np.inf)
    return np.where(d < 0.2, np.nan, v)


SYNTHETIC = {"quadratic": _quadratic, "banana": _banana, "kinked": _kinked,
             "terraced": _terraced, "rippled": _rippled, "walled": _walled}


def _delays(rng, sizes, spread=3e-9):
    tau_a, tau_b = [], []
    for n in sizes:
        ta = rng.uniform(20e-9, 80e-9, n)
        tau_a.append(ta)
        tau_b.append(rng.permutation(ta + rng.uniform(-spread, spread, n) + 4e-9))
    return delay_set(tau_a, tau_b)


def _na_kernel(sizes, model, seed):
    obs = _delays(np.random.default_rng(seed), sizes)
    return distest._noassoc_kernel(*distest._cross_diffs(obs), model)


def _known_assoc(seed, model):
    rng = np.random.default_rng(seed)
    diffs = diff_set(*(rng.uniform(-3e-9, 3e-9, 4) for _ in range(3)))
    return lambda d, eps: distest.loglik_known_assoc(diffs, model, d, eps)


# --- the two refinements ------------------------------------------------

def _scalar_neg(objective):
    def neg(z):
        v = objective(float(z[0]), float(z[1]) * E_SPAN)
        return -float(v) if np.isfinite(v) else 1e300
    return neg


def _batch_neg(objective):
    def neg(z):
        v = np.asarray(objective(z[:, 0], z[:, 1] * E_SPAN), dtype=float)
        return np.where(np.isfinite(v), -v, 1e300)
    return neg


def _scipy_run(objective, x0, maxiter):
    """scipy's result, and every point it evaluated with its value."""
    points, values = [], []
    neg = _scalar_neg(objective)

    def recorded(z):
        points.append(np.array(z))
        values.append(neg(z))
        return values[-1]

    res = minimize(recorded, x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": XATOL, "fatol": 1e-12})
    return res, np.array(points), np.array(values)


def _first_step(points, values):
    """The branch scipy's first iteration took, from the points it evaluated."""
    f = values[:3]
    sim = points[:3]
    for _ in range(2):
        ind = np.argsort(f)
        sim, f = sim[ind], f[ind]
    xbar = np.add.reduce(sim[:-1], 0) / 2
    worst = sim[-1]
    second = {"expand": 3 * xbar - 2 * worst, "outside": 1.5 * xbar - 0.5 * worst,
              "inside": 0.5 * xbar + 0.5 * worst}
    if len(points) == 3:
        return "converged"
    assert np.array_equal(points[3], 2 * xbar - 1 * worst)
    if len(points) == 4:
        return "reflect"
    name = next(k for k, v in second.items() if np.array_equal(points[4], v))
    return name if len(points) == 5 else f"shrink after {name}"


def _assert_speculation_matches(calls, points):
    """A lone start's objective calls, (points, values) pairs, against the
    points its scipy run evaluated.  The first call is the initial simplex.
    Each iteration's call is the block [xr, xe, xo, xi] of scipy's formulas
    at that iteration's simplex, and a shrink's call its shrunk vertices;
    the branch is taken on the block's values as scipy takes it.  Dropping
    the second points the branch does not take leaves scipy's points, bit
    for bit and in order."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim, fsim = (np.array(v) for v in calls[0])
    n = sim.shape[1]
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    kept = [calls[0][0]]
    rest = iter(calls[1:])
    for block, fblock in rest:
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
        xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
        xcc = (1 - psi) * xbar + psi * sim[-1]
        np.testing.assert_array_equal(block, np.array([xr, xe, xc, xcc]), strict=True)
        fxr, fxe, fxc, fxcc = fblock
        if fxr < fsim[0]:
            second, take = 1, (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            second, take = None, (xr, fxr)
        elif fxr < fsim[-1]:
            second, take = 2, (xc, fxc) if fxc <= fxr else None
        else:
            second, take = 3, (xcc, fxcc) if fxcc < fsim[-1] else None
        kept += [block[:1]] if second is None else [block[:1], block[second:second + 1]]
        if take is None:
            shrunk, fshrunk = next(rest)
            np.testing.assert_array_equal(shrunk, sim[0] + sigma * (sim[1:] - sim[0]), strict=True)
            kept.append(shrunk)
            sim[1:], fsim[1:] = shrunk, fshrunk
        else:
            sim[-1], fsim[-1] = take
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    np.testing.assert_array_equal(np.concatenate(kept), points, strict=True)


def _assert_lockstep_matches(objective, starts, maxiter):
    """Every start as one lockstep batch, then each start alone: scipy's
    bits and evaluation counts, and (alone) scipy's points once the
    speculative second points not taken are dropped."""
    x0 = np.array(starts, dtype=float)
    x0[:, 1] /= E_SPAN
    runs = [_scipy_run(objective, [d0, e0 / E_SPAN], maxiter) for d0, e0 in starts]
    x, fun, nfev = likelihood._nelder_mead(_batch_neg(objective), x0, maxiter, XATOL, 1e-12)
    for i, (res, points, _) in enumerate(runs):
        np.testing.assert_array_equal(x[i], res.x, strict=True)
        assert fun[i].tobytes() == np.float64(res.fun).tobytes()
        assert nfev[i] == res.nfev == len(points)
    neg = _batch_neg(objective)
    for start, (res, points, _) in zip(x0, runs):
        calls = []

        def recorded(z):
            calls.append((np.array(z), neg(z)))
            return calls[-1][1]

        likelihood._nelder_mead(recorded, start[None, :], maxiter, XATOL, 1e-12)
        _assert_speculation_matches(calls, points)
    return runs


def _starts(rng, count):
    """Random starts plus starts with a zero coordinate (scipy's simplex
    then steps that coordinate to 0.00025 instead of by 5%)."""
    starts = [(float(d), float(e)) for d, e in zip(rng.uniform(0.0, 4.0, count),
                                                   rng.uniform(-0.5, 0.5, count) * E_SPAN)]
    return starts + [(0.0, 0.3 * E_SPAN), (1.7, 0.0), (0.0, 0.0)]


@pytest.mark.parametrize("maxiter", [0, 1, 2, 3, 200])
@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_objectives(name, maxiter):
    rng = np.random.default_rng(len(name) * 1000 + maxiter)
    objective = SYNTHETIC[name]
    _assert_lockstep_matches(objective, _starts(rng, 9), maxiter)


def test_first_steps_cover_every_branch():
    """Over the synthetic objectives, scipy's first iteration takes every
    branch, and the lockstep refinement follows it on each."""
    rng = np.random.default_rng(99)
    seen = set()
    for objective in SYNTHETIC.values():
        for res, points, values in _assert_lockstep_matches(objective, _starts(rng, 40), 2):
            seen.add(_first_step(points, values))
    assert {"reflect", "expand", "outside", "inside", "shrink after outside",
            "shrink after inside"} <= seen


def _quadratic_n(z):
    """A tilted quadratic over the last axis of ``z``, of any length N."""
    z = np.asarray(z, dtype=float)
    total = 0.4 * z[..., 0] * z[..., -1]
    for i in range(z.shape[-1]):
        u = z[..., i] - 0.3 * (i + 1)
        total = total + (i + 1.0) * u * u
    return total


def _banana_n(z):
    """Rosenbrock's valley over the last axis of ``z``; for N = 1, a quartic
    with its minimum off the start."""
    z = np.asarray(z, dtype=float)
    total = (1.0 - z[..., 0]) * (1.0 - z[..., 0])
    for i in range(z.shape[-1]):
        v = (z[..., i + 1] if i + 1 < z.shape[-1] else 0.5) - z[..., i] * z[..., i]
        total = total + 20.0 * v * v
    return total


def _terraced_n(z):
    """Narrow plateaus in every coordinate but the first, which does not
    count: a first simplex whose other coordinates step towards 0.7 has its
    two worst values tied, at x0 and its first-coordinate step.  numpy's
    sort of N + 1 = 4 values can order such a tie otherwise than a stable
    sort, depending on its SIMD dispatch."""
    z = np.asarray(z, dtype=float)
    return np.floor(30.0 * np.abs(z[..., 1:] - 0.7)).sum(axis=-1)


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("maxiter", [1, 3, 600])
def test_other_dimensions(n, maxiter):
    """``_nelder_mead`` in N = 1 and N = 3 ends on scipy's bits and
    evaluation counts, start for start."""
    rng = np.random.default_rng(10 * n + maxiter)
    x0 = rng.uniform(-1.5, 1.5, (8, n))
    x0[:, 1:] = rng.uniform(0.1, 0.6, (8, n - 1))
    x0[0] = 0.0  # every coordinate steps to 0.00025
    x0[1, 0] = 0.0
    for objective in (_quadratic_n, _banana_n, _terraced_n):
        x, fun, nfev = likelihood._nelder_mead(objective, x0, maxiter, XATOL, 1e-12)
        for i, start in enumerate(x0):
            res = minimize(objective, start, method="Nelder-Mead",
                           options={"maxiter": maxiter, "xatol": XATOL, "fatol": 1e-12})
            np.testing.assert_array_equal(x[i], res.x, strict=True)
            assert fun[i].tobytes() == np.float64(res.fun).tobytes()
            assert nfev[i] == res.nfev


@pytest.mark.parametrize("maxiter", [1, 3, 200])
def test_noassoc_kernel_objective(maxiter):
    """The NA objective: scipy evaluated its scalar ``loglik``, the
    lockstep refinement evaluates it on 1-D arrays."""
    for model in (ErrorModel(sigma_per_mpc=0.2e-9), ErrorModel(sigma_per_mpc=2e-9)):
        loglik = _na_kernel([4, 4, 4], model, seed=3)
        rng = np.random.default_rng(maxiter)
        starts = [(float(d), float(e)) for d, e in zip(rng.uniform(0.5, 2.5, 6),
                                                       rng.uniform(2e-9, 6e-9, 6))]
        _assert_lockstep_matches(loglik, starts + [(1e-6, 4e-9), (0.0, 4e-9)], maxiter)


@pytest.mark.parametrize("maxiter", [1, 3, 200])
def test_known_assoc_objective(maxiter):
    for model in (ErrorModel(sigma_per_mpc=0.2e-9),
                  ErrorModel(sigma_per_mpc=np.linspace(0.1e-9, 2e-9, 12))):
        objective = _known_assoc(maxiter, model)
        rng = np.random.default_rng(maxiter + 1)
        starts = [(float(d), float(e)) for d, e in zip(rng.uniform(0.0, 2.0, 6),
                                                       rng.uniform(-2e-9, 2e-9, 6))]
        _assert_lockstep_matches(objective, starts + [(1e-6, 0.0)], maxiter)


def _assert_same_best(new, old):
    assert type(new) is type(old) is tuple
    assert [np.float64(v).tobytes() for v in new] == [np.float64(v).tobytes() for v in old]


@pytest.mark.parametrize("refine_iters", [0, 1, 3, 200])
def test_maximize_2d_matches_the_scipy_loop(refine_iters):
    cfg = OptimizerConfig(grid_d=(0.0, 4.0, 40), grid_eps=(-E_SPAN / 2, E_SPAN / 2, 30),
                          refine_iters=refine_iters)
    for objective in SYNTHETIC.values():
        for extra in ((), [(0.0, 0.0), (2.5, 1e-9)]):
            _assert_same_best(maximize_2d(objective, cfg, extra_starts=extra),
                              _old_maximize_2d(objective, cfg, extra_starts=extra))
    for sigma in (0.2e-9, 2e-9):
        loglik = _na_kernel([4, 4, 4], ErrorModel(sigma_per_mpc=sigma), seed=5)
        cfg_na = OptimizerConfig(grid_d=(0.0, 6.0, 60), grid_eps=(-4e-9, 12e-9, 60),
                                 refine_iters=refine_iters)
        _assert_same_best(maximize_2d(loglik, cfg_na, extra_starts=[(1.0, 4e-9)]),
                          _old_maximize_2d(loglik, cfg_na, extra_starts=[(1.0, 4e-9)]))


# --- lone-point bits ----------------------------------------------------

BATCHES = (37, distest._BLOCK - 1, distest._BLOCK, distest._BLOCK + 1)


def _models(rng, k_total):
    """Hard indicator, one sigma, one sigma per MPC, and errors as wide as
    the delay spread, where most of the n! products are neither 0 nor 1."""
    return [ErrorModel(kind="none"),
            ErrorModel(sigma_per_mpc=0.2e-9),
            ErrorModel(sigma_per_mpc=rng.uniform(0.1e-9, 0.5e-9, k_total)),
            ErrorModel(sigma_per_mpc=rng.uniform(2e-9, 4e-9, k_total))]


@pytest.mark.parametrize("n", range(1, 9))
def test_each_equals_lone_points(n):
    """Every point of a batch gets the bits it gets alone: 37 points, each
    evaluated alone, then batches of them cycled to one block less one
    point, one block and one block plus one point."""
    rng = np.random.default_rng(70 + n)
    for sizes in ([n, n, n], [n, max(1, n - 2), n]):
        obs = _delays(rng, sizes)
        for model in _models(rng, sum(sizes)):
            d = rng.uniform(0.0, 3.0, 37)
            d[::6] = 0.0
            eps = rng.uniform(0.0, 8e-9, 37)
            lone = [distest.loglik_no_assoc(obs, model, dv, ev) for dv, ev in zip(d, eps)]
            assert [type(v) for v in lone] == [float] * 37
            assert np.isfinite(lone).any()
            for count in BATCHES:
                i = np.arange(count) % 37
                np.testing.assert_array_equal(distest.loglik_no_assoc(obs, model, d[i], eps[i]),
                                              np.array(lone)[i], strict=True)


@pytest.mark.parametrize("n", range(1, 9))
def test_pointwise_permanent_equals_lone_matrices(n):
    """Every matrix of a stack, whatever its shape, gets the bits it gets
    alone."""
    rng = np.random.default_rng(80 + n)
    mats = rng.uniform(0.0, 1.0, (30, n, n))
    mats[:, 0, 0] = rng.uniform(0.0, 1e-12, 30)  # mixed magnitudes
    lone = np.array([distest.permanent(m) for m in mats])
    for shape in ((1,), (2, 15), (15, 2), (30, 1), (1, 30), (3, 1, 10)) + tuple(
            (count,) for count in BATCHES):
        i = np.arange(np.prod(shape)).reshape(shape) % 30
        np.testing.assert_array_equal(distest.permanent(mats[i]), lone[i], strict=True)
