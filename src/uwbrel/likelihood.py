"""Soft-indicator likelihood terms and a generic 2D maximizer.

The distance estimators score a hypothesis (d, eps) by how well every
delay difference fits the admissible band [-d/c, d/c] after removing the
clock offset.  The per-MPC factor is F(x + d/c) - F(x - d/c) with F the
CDF of the measurement error; with no error it degenerates to a hard
set-membership indicator.  That factor has one body, ``ErrorModel.factors``,
which ``soft_indicator`` and both likelihoods in ``distest`` share; it
calls ``ndtr`` only where the result is not already fixed at 0 or 1, and
imports it from ``scipy.special`` at its first Gaussian call, so that
noiseless work never loads that module.

``maximize_2d`` scans a grid and refines its best cells with Nelder-Mead,
all starts in lockstep: each iteration costs one objective call for all of
them, plus one when some start shrinks, on the reflection and every second
point the iteration may need (expansion, outside and inside contraction).
Between calls the simplexes are held in Python floats and take the steps
of scipy's ``minimize(method="Nelder-Mead")`` with numpy's rounding, so the
result is the one a loop of scipy runs gives.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

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
        (broadcasting), floored at 0 because ``ndtr`` is not monotone in its
        last bits (a difference of two values in [0, 1] never exceeds 1, so
        that is a clip to [0, 1]); for ``none`` the hard indicator
        ``|x| <= half``.

        Entries whose arguments lie where ``ndtr`` saturates are set without
        calling it, to the value the full expression gives there: 0 when
        the lower end rounds to 1 or the upper one to 0, 1 when the upper
        end rounds to 1 and the lower one to less than 1's last bit.  An
        entry with a NaN end goes through ``ndtr`` and stays NaN."""
        if self.kind == "none":
            return (np.abs(x) <= half).astype(float)
        from scipy.special import ndtr

        zp = np.asarray((x + half) / sigma)
        zm = np.asarray((x - half) / sigma)
        one = (zp >= _Z_HI) & (zm <= -_Z_HI)
        zero = ((zm >= _Z_HI) | (zp <= _Z_LO)) > np.isnan(zp + zm)  # a > b: a and not b
        out = np.array(one, dtype=float, order="C")  # ravel() below is a view
        live = np.flatnonzero(one == zero)  # neither: one and zero exclude each other
        live_p = ndtr(zp.ravel().take(live))
        live_p -= ndtr(zm.ravel().take(live))
        out.ravel()[live] = np.maximum(live_p, 0.0, out=live_p)
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
            if not (isinstance(grid, (tuple, list, np.ndarray)) and len(grid) == 3
                    and all(isinstance(v, numbers.Real) for v in grid)):
                raise InvalidParams(f"{name} must be three real numbers, not {grid!r}")
            lo, hi, steps = grid
            if not (all(map(math.isfinite, grid)) and hi > lo and steps >= 2):
                raise InvalidParams(f"{name} must be finite with max > min and steps >= 2")
            if not float(steps).is_integer():
                raise InvalidParams(f"{name} steps must be a whole count, not {steps}")
        for name in ("tolerance", "refine_iters", "multistart_count"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise InvalidParams(f"{name} must be a real number, not {getattr(self, name)!r}")
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
    scipy run, in Python floats, which round as numpy's ufuncs do, so it
    ends on the same bits; the starts advance in lockstep and ``fun`` maps
    (P, N) points to a (P,) float array of their values.  After one call on
    the initial simplexes, each iteration makes one call on the block
    [xr, xe, xo, xi] of every active start (the reflection and, by scipy's
    formulas, the three second points it may lead to) and one on the shrunk
    vertices of the starts that shrink.  Returns the best vertex (S, N), its
    value (S,) and the number of points scipy evaluates per start (S,),
    without the second points it does not take.
    """
    rho, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    # [xbar, worst] coefficients of xr, xe, xo and xi: a + b equals a - (-b) bit for bit
    steps = [(1 + rho, rho), (1 + rho * chi, rho * chi),
             (1 + psi * rho, psi * rho), (1 - psi, -psi)]
    n = x0.shape[1]

    def call(flat):
        return fun(np.array(flat, dtype=float).reshape(-1, n)).tolist()

    def sort(i):
        """Reorder start i's simplex as ``np.argsort`` of its values does: move
        its last vertex, mostly the only new one, into place; unless the values
        then strictly increase, take numpy's order (on ties, the machine's)."""
        f, sim = fsims[i], sims[i]
        at = bisect.bisect_right(f, f[-1], 0, n)
        f.insert(at, f.pop())
        sim.insert(at, sim.pop())
        if not all(map(operator.lt, f, f[1:])):
            f.append(f.pop(at))
            sim.append(sim.pop(at))
            ind = np.argsort(f).tolist()
            sims[i], fsims[i] = [sim[j] for j in ind], [f[j] for j in ind]

    sims = [[x] + [x[:k] + [(1 + 0.05) * x[k] if x[k] != 0 else 0.00025] + x[k + 1:]
                   for k in range(n)] for x in np.asarray(x0, dtype=float).tolist()]
    values = call([c for sim in sims for x in sim for c in x])
    fsims = [values[i:i + n + 1] for i in range(0, len(values), n + 1)]
    nfev = [n + 1] * len(sims)
    active = range(len(sims))
    for i in [*active, *active]:  # scipy sorts the first simplex twice
        sort(i)

    iterations = 1
    while iterations < maxiter:
        # scipy's test; the values are sorted, NaN last, so max |f0 - f| is |f0 - f[-1]|
        active = [i for i in active if not (
            abs(fsims[i][0] - fsims[i][-1]) <= fatol
            and all(abs(v - b) <= xatol for x in sims[i][1:] for v, b in zip(x, sims[i][0])))]
        if not active:
            break
        block = []  # flat: [xr, xe, xo, xi] of each active start
        for i in active:
            xbar = sims[i][0]
            for x in sims[i][1:-1]:  # np.add.reduce over the vertices: one after another
                xbar = list(map(operator.add, xbar, x))
            pairs = [(b / n, w) for b, w in zip(xbar, sims[i][-1])]
            block += [p * b - q * w for p, q in steps for b, w in pairs]
        fblock = call(block)
        shrink = []
        for j, i in enumerate(active):
            fxr, fxe, fxo, fxi = fblock[4 * j:4 * j + 4]
            sim, f = sims[i], fsims[i]
            nfev[i] += 2
            if fxr < f[0]:
                k = 1 if fxe < fxr else 0
            elif fxr < f[-2]:
                k = 0
                nfev[i] -= 1
            elif fxr < f[-1]:
                k = 2 if fxo <= fxr else -1
            else:
                k = 3 if fxi < f[-1] else -1
            if k >= 0:
                sim[-1], f[-1] = block[(4 * j + k) * n:(4 * j + k + 1) * n], fblock[4 * j + k]
                sort(i)
            else:
                shrink.append(i)
                sim[1:] = [[b + sigma * (v - b) for b, v in zip(sim[0], x)] for x in sim[1:]]
        if shrink:
            values = call([c for i in shrink for x in sims[i][1:] for c in x])
            for j, i in enumerate(shrink):
                fsims[i][1:] = values[n * j:n * j + n]
                nfev[i] += n
                sort(i)
        iterations += 1
    return (np.array([sim[0] for sim in sims]).reshape(-1, n), np.array(fsims).min(axis=1),
            np.array(nfev))


def best_first(values, count: int) -> np.ndarray:
    """The indices of the ``count`` largest of the 1-D ``values`` (no NaN),
    value descending and, among equal values, lowest index first: the order
    of a full stable sort, found with ``np.partition`` of the values above
    -inf, or of all of them when fewer than ``count`` are; none if ``count`` < 1."""
    count = min(count, values.size)
    if count < 1:
        return np.arange(0)
    live = np.flatnonzero(values > -np.inf)
    live = live if live.size >= count else np.arange(values.size)  # else the count-th is -inf
    kth = np.partition(values[live], -count)[-count]
    above = live[values[live] > kth]
    above = above[np.lexsort((above, -values[above]))]
    return np.concatenate([above, live[values[live] == kth][: count - above.size]])


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
