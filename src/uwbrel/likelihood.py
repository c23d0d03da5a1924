"""Soft-indicator likelihood terms and a generic 2D maximizer.

The distance estimators score a hypothesis (d, eps) by how well every
delay difference fits the admissible band [-d/c, d/c] after removing the
clock offset.  The per-MPC factor is F(x + d/c) - F(x - d/c) with F the
CDF of the measurement error; with no error it degenerates to a hard
set-membership indicator.  That factor has one body, ``ErrorModel.factors``,
which ``soft_indicator`` and both likelihoods in ``distest`` share; it
calls ``ndtr`` only where the result is not already fixed at 0 or 1.

``maximize_2d`` scans a grid and refines its best cells with Nelder-Mead.
All starts advance in lockstep, and each iteration costs one objective call
for all of them, plus one when some start shrinks: the call evaluates the
reflection together with every second point the iteration may need
(expansion, outside and inside contraction), before the reflection's value
picks one.  The steps are those of scipy's ``minimize(method="Nelder-Mead")``,
so the result is the one a loop of scipy runs gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateObjective, InvalidParams
from .geom import SPEED_OF_LIGHT

# Saturation of scipy's ndtr in float64: ndtr(z) == 1.0 for every z >= 8.29237,
# ndtr(z) == 0.0 for every z <= -37.677 and 1.0 - ndtr(z) == 1.0 for every
# z <= -8.29236.  The bounds below keep a margin from those edges.
_Z_HI = 8.5
_Z_LO = -38.0


@dataclass(frozen=True)
class ErrorModel:
    """Delay-difference error model: ``gaussian`` with per-MPC sigma, or ``none``."""

    kind: str = "gaussian"
    sigma_per_mpc: object = None  # scalar or array of seconds when gaussian

    def __post_init__(self):
        if self.kind not in ("gaussian", "none"):
            raise InvalidParams(f"unknown error model kind {self.kind!r}")
        if self.kind == "gaussian":
            sig = np.atleast_1d(np.asarray(self.sigma_per_mpc, dtype=float))
            if sig.ndim != 1:
                raise InvalidParams(f"sigma_per_mpc must be scalar or 1-D, not shape {sig.shape}")
            if sig.size == 0 or not np.all(np.isfinite(sig)) or np.any(sig <= 0):
                raise InvalidParams("gaussian model needs positive finite sigma_per_mpc")
            object.__setattr__(self, "sigma_per_mpc", sig)

    def sigma_for(self, index: int) -> float:
        """The sigma of MPC ``index``: a scalar sigma, or that MPC's entry."""
        sig = self.sigma_per_mpc
        if sig.size == 1:
            return float(sig[0])
        if not 0 <= index < sig.size:
            raise InvalidParams(f"sigma_per_mpc has {sig.size} entries, none for MPC {index}")
        return float(sig[index])

    def sigmas(self, k: int) -> np.ndarray:
        """The sigmas of ``k`` MPCs: a scalar sigma repeated, or one per MPC."""
        sig = self.sigma_per_mpc
        if sig.size not in (1, k):
            raise InvalidParams(f"sigma_per_mpc has {sig.size} entries for {k} MPCs")
        return np.broadcast_to(sig, (k,))

    def factors(self, x, half, sigma=None) -> np.ndarray:
        """Per-MPC factor of residuals ``x`` for half-widths ``half`` = d/c:
        ``F(x + half) - F(x - half)`` with F the normal CDF of std ``sigma``
        (broadcasting), clipped to [0, 1] because ``ndtr`` is not monotone in
        its last bits; for ``none`` the hard indicator ``|x| <= half``.

        Entries whose arguments lie where ``ndtr`` saturates are set without
        calling it, to the value the full expression gives there: 0 when
        the lower end rounds to 1 or the upper one to 0, 1 when the upper
        end rounds to 1 and the lower one to less than 1's last bit.  An
        entry with a NaN end goes through ``ndtr`` and stays NaN."""
        if self.kind == "none":
            return (np.abs(x) <= half).astype(float)
        zp = np.asarray((x + half) / sigma)
        zm = np.asarray((x - half) / sigma)
        one = (zp >= _Z_HI) & (zm <= -_Z_HI)
        zero = ((zm >= _Z_HI) | (zp <= _Z_LO)) & ~np.isnan(zp + zm)
        out = np.where(one, 1.0, 0.0)
        live = np.flatnonzero(~(one | zero))
        np.put(out, live, np.clip(ndtr(zp.ravel().take(live)) - ndtr(zm.ravel().take(live)),
                                  0.0, 1.0))
        return out

    def zero_below(self, x, sigma=None) -> np.ndarray:
        """The half-width below which ``factors(x, half, sigma)`` is exactly
        0: ``|x|`` for ``none``; for ``gaussian`` the larger of
        ``x - _Z_HI sigma`` (the lower end saturates at 1) and
        ``-x + _Z_LO sigma`` (the upper one at 0)."""
        if self.kind == "none":
            return np.abs(x)
        return np.maximum(x - _Z_HI * sigma, -x + _Z_LO * sigma)

    def one_above(self, x, sigma=None) -> np.ndarray:
        """The half-width above which, given a small relative margin for
        rounding, ``factors(x, half, sigma)`` is exactly 1: ``|x|`` for
        ``none``; ``|x| + _Z_HI sigma`` for ``gaussian``, where both band
        ends saturate."""
        return np.abs(x) if self.kind == "none" else np.abs(x) + _Z_HI * sigma


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid-then-refine settings for the 2D likelihood maximizer."""

    grid_d: tuple = (0.0, 10.0, 200)       # (min, max, steps) in meters
    grid_eps: tuple = (-1e-7, 1e-7, 200)   # (min, max, steps) in seconds
    refine_iters: int = 200
    multistart_count: int = 8
    tolerance: float = 1e-4                # meters

    def __post_init__(self):
        for name, grid in (("grid_d", self.grid_d), ("grid_eps", self.grid_eps)):
            lo, hi, steps = grid
            if not (all(map(math.isfinite, grid)) and hi > lo and steps >= 2):
                raise InvalidParams(f"{name} must be finite with max > min and steps >= 2")
            if not float(steps).is_integer():
                raise InvalidParams(f"{name} steps must be a whole count, not {steps}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise InvalidParams("tolerance must be finite and positive")
        for name in ("refine_iters", "multistart_count"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidParams(f"{name} must be a finite count >= 0")
            if not float(value).is_integer():
                raise InvalidParams(f"{name} must be a whole count, not {value}")

    @property
    def grid_starts(self) -> int:
        """The number of best grid cells ``maximize_2d`` refines (at least 1)."""
        return max(1, int(self.multistart_count))


def soft_indicator(x: float, d_hyp: float, model: ErrorModel, mpc_index: int = 0):
    """Probability that a residual delay difference ``x`` is consistent with
    a node distance ``d_hyp``.

    Gaussian model: ``F(x + d_hyp/c) - F(x - d_hyp/c)``; ``none``: the hard
    indicator of ``|c*x| <= d_hyp`` (both from ``ErrorModel.factors``).
    Accepts numpy broadcasting in ``x`` and ``d_hyp``.
    """
    x = np.asarray(x, dtype=float)
    half = np.asarray(d_hyp, dtype=float) / SPEED_OF_LIGHT
    out = model.factors(x, half, model.sigma_for(mpc_index) if model.kind == "gaussian" else None)
    return out if out.ndim else float(out)


def _nelder_mead(fun, x0, maxiter: int, xatol: float, fatol: float):
    """Minimize from every row of ``x0`` (S, N) at once by the simplex method
    of scipy 1.17's ``minimize(method="Nelder-Mead")`` with only ``maxiter``,
    ``xatol`` and ``fatol`` set (no bounds, not adaptive).

    Each start takes the same steps, comparisons and arithmetic as its own
    scipy run, so it ends on the same bits; the starts advance in lockstep
    and ``fun`` maps (P, N) points to a (P,) float array of their values.
    After one call on the initial simplexes, each iteration makes one call
    on the block [xr, xe, xo, xi] of every active start (the reflection
    and, by scipy's formulas, the three second points it may lead to) and
    one on the shrunk vertices of the starts that shrink.  Returns the best
    vertex (S, N), its value (S,) and the number of points scipy evaluates
    per start (S,), without the second points it does not take.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    # [xbar, worst] coefficients of xr, xe, xo and xi: a - b equals a + (-b) bit for bit
    steps = np.array([[1 + rho, -rho], [1 + rho * chi, -rho * chi],
                      [1 + psi * rho, -psi * rho], [1 - psi, psi]])
    n_starts, n = x0.shape
    sim = np.repeat(np.asarray(x0, dtype=float)[:, None, :], n + 1, axis=1)
    for k in range(n):
        y = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(y != 0, (1 + 0.05) * y, 0.00025)
    fsim = fun(sim.reshape(-1, n)).reshape(n_starts, n + 1)
    nfev = np.full(n_starts, n + 1)
    active = np.ones(n_starts, dtype=bool)
    rows = np.arange(n_starts)[:, None]
    for _ in range(2):  # scipy sorts the first simplex twice
        ind = np.argsort(fsim, axis=1)
        sim, fsim = sim[rows, ind], fsim[rows, ind]

    iterations = 1
    while iterations < maxiter:
        active &= ~((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                    & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        a = np.flatnonzero(active)
        if a.size == 0:
            break
        s, f = sim[a], fsim[a]
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        # the reflection and the three second points scipy may need after it
        cand = steps[:, :1] * xbar[:, None] + steps[:, 1:] * worst[:, None]
        fcand = fun(cand.reshape(-1, n)).reshape(a.size, 4)
        xr, fxr = cand[:, 0], fcand[:, 0]
        expand = fxr < f[:, 0]
        accept = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~accept & (fxr < f[:, -1])
        inside = ~(expand | accept | outside)
        second = (np.arange(a.size), np.where(expand, 1, np.where(outside, 2, 3)))
        x2, f2 = cand[second], fcand[second]
        take2 = (expand & (f2 < fxr)) | (outside & (f2 <= fxr)) | (inside & (f2 < f[:, -1]))
        take_r = accept | (expand & ~take2)
        shrink = (outside | inside) & ~take2
        s[:, -1] = np.where(take2[:, None], x2, np.where(take_r[:, None], xr, worst))
        f[:, -1] = np.where(take2, f2, np.where(take_r, fxr, f[:, -1]))
        if shrink.any():
            shrunk = s[shrink, :1] + sigma * (s[shrink, 1:] - s[shrink, :1])
            s[shrink, 1:] = shrunk
            f[shrink, 1:] = fun(shrunk.reshape(-1, n)).reshape(-1, n)
        nfev[a] += 1 + ~accept + n * shrink
        iterations += 1
        ind = np.argsort(f, axis=1)
        rows = np.arange(a.size)[:, None]
        sim[a], fsim[a] = s[rows, ind], f[rows, ind]
    return sim[:, 0], fsim.min(axis=1), nfev


def best_first(values, count: int) -> np.ndarray:
    """The indices of the ``count`` largest of the 1-D ``values`` (no NaN),
    value descending and, among equal values, lowest index first: the order
    of a full stable sort, found with ``np.partition``."""
    count = min(count, values.size)
    kth = np.partition(values, -count)[-count]
    above = np.flatnonzero(values > kth)
    above = above[np.lexsort((above, -values[above]))]
    return np.concatenate([above, np.flatnonzero(values == kth)[: count - above.size]])


def maximize_2d(objective, cfg: OptimizerConfig, extra_starts=()):
    """Maximize ``objective(d, eps)`` by coarse grid scan plus simplex refinement.

    The objective must accept numpy-broadcast arrays.  Refinement starts
    from any ``extra_starts`` (d, eps) pairs plus the best
    ``multistart_count`` (at least 1) finite grid cells; the result never
    falls below the best grid value.  Ties break toward the lowest d, then
    the lowest eps (``best_first``, the same on every machine), and between
    refined starts toward the earlier one.  Only those best cells and their
    order matter, so a grid objective may report any other cell as -inf.

    Each start is refined by Nelder-Mead on (d, eps / eps span) with
    ``maxiter = refine_iters``, ``xatol = tolerance / 10`` and
    ``fatol = 1e-12``, minimizing the negated objective (1e300 where it is
    not finite).  The grid is the first call of ``objective``.  The starts
    then advance in lockstep, with one call of ``objective`` on 1-D arrays
    per iteration, which evaluates the reflection and all three second
    points scipy may take after it, and one more per shrink.  When that
    gives every point the bits it gets alone, each start ends where
    ``scipy.optimize.minimize(method="Nelder-Mead")`` on the scalar
    objective ends.

    Returns ``(d, eps, value)``.  Raises DegenerateObjective when every grid
    cell evaluates to zero probability (-inf log-likelihood).
    """
    d_lo, d_hi, d_steps = cfg.grid_d
    e_lo, e_hi, e_steps = cfg.grid_eps
    d_grid = np.linspace(d_lo, d_hi, int(d_steps))
    e_grid = np.linspace(e_lo, e_hi, int(e_steps))
    vals = np.asarray(objective(d_grid[:, None], e_grid[None, :]), dtype=float)
    if not np.any(np.isfinite(vals)):
        raise DegenerateObjective("objective is -inf/NaN on the whole grid")

    # (lowest d, lowest eps) tie-break: first flat index wins
    flat = np.where(np.isnan(vals), -np.inf, vals).ravel()
    order = best_first(flat, cfg.grid_starts)
    starts = list(extra_starts) + [(d_grid[i // len(e_grid)], e_grid[i % len(e_grid)])
                                   for i in order if np.isfinite(flat[i])]
    best_idx = order[0]
    best = (float(d_grid[best_idx // len(e_grid)]), float(e_grid[best_idx % len(e_grid)]),
            float(flat[best_idx]))
    if not starts:
        return best

    # refine on a conditioned scale: eps in units of the grid span
    e_span = max(e_hi - e_lo, 1e-12)

    def neg(z):
        v = np.asarray(objective(z[:, 0], z[:, 1] * e_span), dtype=float)
        return np.where(np.isfinite(v), -v, 1e300)

    x0 = np.array(starts, dtype=float)
    x0[:, 1] /= e_span
    xs, funs, _ = _nelder_mead(neg, x0, int(cfg.refine_iters), cfg.tolerance / 10.0, 1e-12)
    for (d, e), fun in zip(xs, funs):
        cand = (float(d), float(e) * e_span, float(-fun))
        if cand[2] > best[2]:
            best = cand
    return best
