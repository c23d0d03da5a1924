"""Soft-indicator likelihood terms and a generic 2D maximizer.

The distance estimators score a hypothesis (d, eps) by how well every
delay difference fits the admissible band [-d/c, d/c] after removing the
clock offset.  The per-MPC factor is F(x + d/c) - F(x - d/c) with F the
CDF of the measurement error; with no error it degenerates to a hard
set-membership indicator.  That factor has one body, ``ErrorModel.factors``,
which ``soft_indicator`` and both likelihoods in ``distest`` evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr

from .errors import DegenerateObjective, InvalidParams
from .geom import SPEED_OF_LIGHT


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
            if np.any(sig <= 0) or sig.size == 0:
                raise InvalidParams("gaussian model needs positive sigma_per_mpc")
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
        its last bits; for ``none`` the hard indicator ``|x| <= half``."""
        if self.kind == "none":
            return (np.abs(x) <= half).astype(float)
        return np.clip(ndtr((x + half) / sigma) - ndtr((x - half) / sigma), 0.0, 1.0)


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
            if not (hi > lo and int(steps) >= 2):
                raise InvalidParams(f"{name} must satisfy max > min and steps >= 2")
        if self.tolerance <= 0:
            raise InvalidParams("tolerance must be positive")


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


def maximize_2d(objective, cfg: OptimizerConfig, extra_starts=()):
    """Maximize ``objective(d, eps)`` by coarse grid scan plus simplex refinement.

    The objective must accept numpy-broadcast arrays.  Refinement starts
    from the best ``multistart_count`` grid cells plus any ``extra_starts``
    (d, eps) pairs; the result never falls below the best grid value.  Ties
    break toward the lowest d, then the lowest eps.

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

    # argmax with (lowest d, lowest eps) tie-break: first flat index wins
    flat = np.where(np.isnan(vals), -np.inf, vals).ravel()
    order = np.argsort(flat)[::-1]
    starts = list(extra_starts)
    for idx in order[: max(1, int(cfg.multistart_count))]:
        if not np.isfinite(flat[idx]):
            break
        starts.append((d_grid[idx // len(e_grid)], e_grid[idx % len(e_grid)]))
    best_idx = int(np.argmax(flat))
    best = (float(d_grid[best_idx // len(e_grid)]), float(e_grid[best_idx % len(e_grid)]),
            float(flat[best_idx]))

    # refine on a conditioned scale: eps in units of the grid span
    e_span = max(e_hi - e_lo, 1e-12)

    def neg(z):
        v = objective(float(z[0]), float(z[1]) * e_span)
        return -float(v) if np.isfinite(v) else 1e300

    for d0, e0 in starts:
        res = minimize(
            neg, [d0, e0 / e_span], method="Nelder-Mead",
            options={
                "maxiter": int(cfg.refine_iters),
                "xatol": cfg.tolerance / 10.0,
                "fatol": 1e-12,
            },
        )
        cand = (float(res.x[0]), float(res.x[1]) * e_span, float(-res.fun))
        if cand[2] > best[2]:
            best = cand
    return best
