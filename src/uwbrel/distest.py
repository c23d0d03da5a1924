"""Distance estimators from delay differences.

Closed forms for the noiseless asynchronous/synchronized cases, a
soft-indicator maximum-likelihood estimator for Gaussian errors, and the
unknown-association variant whose per-observer permutation sum is a matrix
permanent of soft-indicator matrices.  One kernel, ``permanent``, computes
the permanents of a whole stack of matrices; the hard-indicator search
scores every candidate of an observer in one call to it.  The
unknown-association likelihood has one body, ``_noassoc_kernel``: it is
compiled once per estimate from the cross differences and evaluates its
(d, eps) points in fixed-size blocks; ``loglik_no_assoc`` validates the
delays and delegates to it.  The grid scan evaluates it batch-last; the
simplex refinement evaluates its points through the kernel's pointwise
form, which sums every point's permanents as if it were evaluated alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientMpcs, InvalidParams, PermutationCapExceeded
from .geom import SPEED_OF_LIGHT, group_by_observer
from .likelihood import ErrorModel, OptimizerConfig, maximize_2d

_C = SPEED_OF_LIGHT
_D_FLOOR = 1e-6     # m; keeps the 1/d^K envelope finite when all factors stay positive

PERMUTATION_CAP = 8  # exact permanents up to 8x8 (128 Gray-code Ryser steps)
_BLOCK = 1024        # likelihood points per block; bounds the (n_obs, n, n, points) temporaries


def _log0(values: np.ndarray) -> np.ndarray:
    """log with log(0) = -inf and no runtime warning."""
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(values, 0.0))


@dataclass(frozen=True)
class DelayDiffSet:
    """Measured delay differences grouped by observer."""

    diffs: tuple  # tuple of 1D arrays, one per observer

    def __post_init__(self):
        groups = tuple(np.atleast_1d(np.asarray(g, dtype=float)) for g in self.diffs)
        if not groups or any(g.size == 0 for g in groups):
            raise InvalidParams("every observer group needs at least one diff")
        if not all(np.isfinite(g).all() for g in groups):
            raise InvalidParams("delay differences must be finite")
        object.__setattr__(self, "diffs", groups)

    @classmethod
    def from_observations(cls, observations) -> "DelayDiffSet":
        delta = observations.tau_b - observations.tau_a
        return cls(diffs=tuple(delta[rows]
                               for rows in group_by_observer(observations.observer).values()))

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate(self.diffs)


@dataclass(frozen=True)
class DistanceEstimate:
    d_hat: float
    eps_hat: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def _async_range(diffs: DelayDiffSet):
    """K, the spread max - min and the midrange of the diffs (K >= 2)."""
    delta = diffs.stacked
    if delta.size < 2:
        raise InsufficientMpcs("asynchronous estimators need K >= 2")
    return delta.size, float(delta.max() - delta.min()), float(delta.max() + delta.min()) / 2.0


def _sync_range(diffs: DelayDiffSet):
    """K and the largest |delta| of the diffs."""
    delta = diffs.stacked
    return delta.size, float(np.abs(delta).max())


def mvue_async(diffs: DelayDiffSet) -> DistanceEstimate:
    """Bias-corrected range estimate: (K+1)/(K-1) * (c/2) * (max - min)."""
    k, spread, mid = _async_range(diffs)
    return DistanceEstimate(d_hat=(k + 1) / (k - 1) * (_C / 2.0) * spread, eps_hat=mid,
                            method="mvue_async")


def mle_async_noiseless(diffs: DelayDiffSet) -> DistanceEstimate:
    """Uncorrected ML range: (c/2) * (max - min); underestimates w.p. 1."""
    _, spread, mid = _async_range(diffs)
    return DistanceEstimate(d_hat=(_C / 2.0) * spread, eps_hat=mid,
                            method="mle_async_noiseless")


def mle_sync(diffs: DelayDiffSet) -> DistanceEstimate:
    """Synchronized-clock ML range: c * max|delta| (caller asserts eps = 0)."""
    _, peak = _sync_range(diffs)
    return DistanceEstimate(d_hat=_C * peak, eps_hat=0.0, method="mle_sync")


def mvue_sync(diffs: DelayDiffSet) -> DistanceEstimate:
    """Bias-corrected synchronized range: (K+1)/K * c * max|delta|."""
    k, peak = _sync_range(diffs)
    return DistanceEstimate(d_hat=(k + 1) / k * _C * peak, eps_hat=0.0, method="mvue_sync")


def loglik_known_assoc(diffs: DelayDiffSet, model: ErrorModel, d, eps):
    """Log of the known-association likelihood (1/d^K) * prod_k I_k(delta_k - eps, d).

    Broadcasts over numpy arrays ``d`` (meters) and ``eps`` (seconds).
    """
    delta = diffs.stacked
    d = np.asarray(d, dtype=float)
    eps = np.asarray(eps, dtype=float)
    shape = np.broadcast_shapes(d.shape, eps.shape)
    dd = np.broadcast_to(d, shape).ravel()
    ee = np.broadcast_to(eps, shape).ravel()
    half = np.maximum(dd, _D_FLOOR)[:, None] / _C
    x = delta[None, :] - ee[:, None]
    factors = model.factors(x, half, model.sigmas(delta.size) if model.kind == "gaussian" else None)
    ll = -delta.size * np.log(np.maximum(dd, _D_FLOOR))
    ll = ll + _log0(factors).sum(axis=1)
    out = ll.reshape(shape)
    return out if out.ndim else float(out)


def _default_config(delta_centered: np.ndarray) -> OptimizerConfig:
    d_max = max(4.0 * _C * float(np.abs(delta_centered).max()), 1e-3)
    e_pad = d_max / _C
    return OptimizerConfig(
        grid_d=(0.0, d_max, 200),
        grid_eps=(float(delta_centered.min()) - e_pad, float(delta_centered.max()) + e_pad, 200),
    )


def mle_async_gaussian(diffs: DelayDiffSet, model: ErrorModel,
                       cfg: OptimizerConfig = None) -> DistanceEstimate:
    """Joint ML estimate of (distance, clock offset) under Gaussian errors.

    The log objective is maximized by grid scan plus simplex refinement;
    the noiseless closed form is always included as a refinement start.
    Internally the diffs are midrange-centered so the estimate is exactly
    shift-equivariant.
    """
    _, _, mid = _async_range(diffs)
    if model.kind != "gaussian":
        raise InvalidParams("mle_async_gaussian needs a gaussian error model")
    centered = DelayDiffSet(diffs=tuple(g - mid for g in diffs.diffs))
    if cfg is None:
        cfg = _default_config(centered.stacked)

    def objective(d, eps):
        return loglik_known_assoc(centered, model, d, eps)

    apex = mle_async_noiseless(centered)
    d_hat, eps_hat, value = maximize_2d(
        objective, cfg, extra_starts=[(max(apex.d_hat, _D_FLOOR), apex.eps_hat)]
    )
    return DistanceEstimate(
        d_hat=max(d_hat, 0.0),
        eps_hat=eps_hat + mid,
        method="mle_async_gaussian",
        diagnostics={"loglik": value},
    )


# --- permanents ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _permutation_index(n: int) -> np.ndarray:
    """Flat positions ``i*n + p[i]`` of every permutation p of range(n), as a
    read-only (n!, n) index into a matrix's n*n entries."""
    perms = np.array(list(itertools.permutations(range(n))))
    flat = np.arange(n) * n + perms
    flat.flags.writeable = False
    return flat


def permanent(mats, pointwise=False):
    """Exact permanents over the last two axes of ``mats`` (..., n, n).

    Direct permutation enumeration up to 6x6 (no cancellation, exact for
    the tiny indicator products the likelihood produces).  The entries are
    gathered through a cached index into (..., n!, n, last batch axis), so
    numpy multiplies each permutation's n entries and adds the n! products
    in order, element by element along the last batch axis (a lone matrix
    sums its products pairwise).  With ``pointwise`` the gather is
    (..., n!, n) and every matrix sums its products pairwise, as a lone
    matrix does, whatever the batch.  Beyond 6x6, Ryser's formula in the
    Gray-code form of Nijenhuis & Wilf, where each step adds or subtracts
    one column from the running row sums; it gives every matrix the bits
    of the lone matrix either way.  Both are exact on 0/1 matrices.  A 2-D
    input returns a float.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim < 2 or mats.shape[-2] != mats.shape[-1]:
        raise InvalidParams("permanent needs square matrices over the last two axes")
    n = mats.shape[-1]
    if n <= 6 and pointwise:
        rows = np.ascontiguousarray(mats).reshape(mats.shape[:-2] + (n * n,))
        out = np.take(rows, _permutation_index(n), axis=-1).prod(axis=-1).sum(axis=-1)
    elif n <= 6:
        rows = mats.reshape((mats.shape[:-2] or (1,)) + (n * n,))
        entries = np.swapaxes(rows, -1, -2)                        # (..., n*n, last batch axis)
        out = np.take(entries, _permutation_index(n), axis=-2).prod(axis=-2).sum(axis=-2)
    else:
        mats = np.ascontiguousarray(mats)                          # strided rows of 8 sum in another order
        cols = np.ascontiguousarray(np.moveaxis(mats, -1, 0))      # (n, ..., n)
        rowsums = cols[n - 1] - mats.sum(axis=-1) / 2.0            # subsets of the first n-1 columns
        out = rowsums.prod(axis=-1)
        for k in range(1, 1 << (n - 1)):
            j = (k & -k).bit_length() - 1                          # the column that flips
            rowsums += cols[j] if (k ^ (k >> 1)) >> j & 1 else -cols[j]
            out += (-1) ** k * rowsums.prod(axis=-1)               # (-1)^(subset size)
        out = (-1) ** (n - 1) * 2.0 * out
    return float(out.reshape(())) if mats.ndim == 2 else out


def _cross_diffs(tau_a_groups, tau_b_groups):
    if len(tau_a_groups) != len(tau_b_groups):
        raise InvalidParams("A and B need the same number of observer groups")
    mats = []
    for ta, tb in zip(tau_a_groups, tau_b_groups):
        ta = np.atleast_1d(np.asarray(ta, dtype=float))
        tb = np.atleast_1d(np.asarray(tb, dtype=float))
        if ta.size != tb.size:
            raise InvalidParams("per-observer A and B counts must match")
        if ta.size == 0:
            raise InvalidParams("every observer needs at least one MPC")
        if not (np.isfinite(ta).all() and np.isfinite(tb).all()):
            raise InvalidParams("delays must be finite")
        if ta.size > PERMUTATION_CAP:
            raise PermutationCapExceeded(
                f"K_o = {ta.size} exceeds the exact permanent cap {PERMUTATION_CAP}"
            )
        mats.append(tb[None, :] - ta[:, None])  # [k, l] = tau_b[l] - tau_a[k]
    return mats


def _noassoc_kernel(cross, model: ErrorModel):
    """The association-free log-likelihood of fixed cross differences, as
    two functions of (d, eps): ``loglik``, which broadcasts over ``d`` and
    ``eps``, and ``each``, which takes 1-D points and gives every one the
    bits ``loglik`` gives it alone.

    Observers of equal size share one (n_obs, n, n) cross-difference stack
    and one (n_obs, n) sigma stack, both built here once.  Points are
    evaluated ``_BLOCK`` at a time in a batch-last (n_obs, n, n, points)
    layout, with one ``permanent`` call per size; the per-observer log
    terms are added in observer order.  The batch-last permanent adds the
    n! products of many points in another order than those of one point,
    so ``each`` asks it for pointwise sums.
    """
    sizes = [m.shape[0] for m in cross]
    k_total = sum(sizes)
    sig = model.sigmas(k_total) if model.kind == "gaussian" else None
    first_row = np.cumsum([0] + sizes)
    groups = []  # (observer indices, (n_obs, n, n, 1) cross, (n_obs, n, 1, 1) sigma or None)
    for n in sorted(set(sizes)):
        obs = [o for o, size in enumerate(sizes) if size == n]
        stack = np.stack([cross[o] for o in obs])[..., None]
        s = None if sig is None else np.stack(
            [sig[first_row[o]:first_row[o] + n] for o in obs])[:, :, None, None]
        groups.append((obs, stack, s))

    def block(dd, ee, pointwise):
        half = np.maximum(dd, _D_FLOOR) / _C
        permanents = np.empty((len(cross), dd.size))
        for obs, stack, s in groups:
            x = stack - ee  # [o, k, l, p] = tau_b[l] - tau_a[k] - eps_p
            factors = model.factors(x, half, s)  # s: one sigma per A-side MPC (row)
            permanents[obs] = permanent(factors.transpose(0, 3, 1, 2), pointwise=pointwise)
        ll = -k_total * np.log(np.maximum(dd, _D_FLOOR))
        for term in _log0(permanents):  # observer by observer, in order
            ll = ll + term
        return ll

    def loglik(d, eps, pointwise=False):
        d, eps = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(eps, dtype=float))
        dd, ee = d.ravel(), eps.ravel()
        out = np.empty(dd.size)
        for i in range(0, dd.size, _BLOCK):
            out[i:i + _BLOCK] = block(dd[i:i + _BLOCK], ee[i:i + _BLOCK], pointwise)
        return out.reshape(d.shape) if d.ndim else float(out[0])

    return loglik, functools.partial(loglik, pointwise=True)


def loglik_no_assoc(tau_a_groups, tau_b_groups, model: ErrorModel, d, eps):
    """Log of the association-free likelihood.

    Per observer the likelihood factor is the permanent of the matrix of
    soft indicators over all A-to-B pairings; the total carries the same
    1/d^K envelope as the known-association case.  Broadcasts over ``d``
    and ``eps``.  Bad delays or sigmas raise InvalidParams.
    """
    loglik, _ = _noassoc_kernel(_cross_diffs(tau_a_groups, tau_b_groups), model)
    return loglik(d, eps)


def _noassoc_candidates(cross):
    """Candidate (d, eps) values for the hard-indicator likelihood: wedge
    apexes at every cross difference and border intersections of pairs."""
    deltas = np.concatenate([m.ravel() for m in cross])
    iu = np.triu_indices(deltas.size, 1)
    d_cand = np.concatenate([
        np.full(deltas.size, _D_FLOOR),
        (_C / 2.0) * np.abs(deltas[iu[0]] - deltas[iu[1]]),
    ])
    e_cand = np.concatenate([deltas, (deltas[iu[0]] + deltas[iu[1]]) / 2.0])
    return d_cand, e_cand


def _noassoc_enumerate(cross):
    """Exact hard-indicator ML over the finite candidate set.

    Each observer's feasibility matrices at every candidate are stacked and
    scored in one ``permanent`` call.  Candidates are ranked by (number of
    observers with a feasible permutation, then likelihood, then smallest
    d), the first one winning a tie; when no candidate is feasible for
    every observer the least-infeasible one is returned.
    """
    k_total = sum(m.shape[0] for m in cross)
    d_cand, e_cand = _noassoc_candidates(cross)
    reach = d_cand + 1e-9 * np.maximum(d_cand, 1.0)  # border candidates sit exactly on wedge edges
    n_feas = np.zeros(d_cand.size, dtype=int)
    log_terms = np.zeros(d_cand.size)
    for mat in cross:  # observer by observer, so log_terms adds up in a fixed order
        feas = np.abs(_C * (mat[None, :, :] - e_cand[:, None, None])) <= reach[:, None, None]
        p = permanent(feas.astype(float))
        n_feas += p > 0
        log_terms += np.log(np.where(p > 0, p, 1.0))  # an infeasible observer adds log 1 = 0
    value = -k_total * np.log(np.maximum(d_cand, _D_FLOOR)) + log_terms
    best = n_feas == n_feas.max()
    best &= value == value[best].max()
    best &= d_cand == d_cand[best].min()
    i = int(np.argmax(best))  # the first candidate with the largest (n_feas, value, -d)
    return float(d_cand[i]), float(e_cand[i]), float(value[i]), bool(n_feas[i] == len(cross))


def mle_async_noassoc(tau_a_groups, tau_b_groups, model: ErrorModel,
                      cfg: OptimizerConfig = None) -> DistanceEstimate:
    """Joint ML estimate of (distance, clock offset) with unknown association.

    Gaussian errors: numerical maximization of the permanent-based
    likelihood, seeded from the coarse grid plus the best hard-indicator
    candidates.  Error model ``none``: exact enumeration over the finite
    candidate set of wedge apexes and border intersections.  Bad delays
    raise InvalidParams on entry.
    """
    deltas = np.concatenate([m.ravel() for m in _cross_diffs(tau_a_groups, tau_b_groups)])
    mid = (float(deltas.max()) + float(deltas.min())) / 2.0
    ta_c = [np.atleast_1d(np.asarray(t, dtype=float)) for t in tau_a_groups]
    tb_c = [np.atleast_1d(np.asarray(t, dtype=float)) - mid for t in tau_b_groups]
    cross = [tb[None, :] - ta[:, None] for ta, tb in zip(ta_c, tb_c)]  # midrange-centered

    if model.kind == "none":
        d_hat, eps_hat, value, feasible = _noassoc_enumerate(cross)
        return DistanceEstimate(
            d_hat=d_hat, eps_hat=eps_hat + mid, method="mle_async_noassoc",
            diagnostics={"loglik": value, "feasible": feasible},
        )

    if cfg is None:
        cfg = _default_config(np.concatenate([m.ravel() for m in cross]))

    objective, each = _noassoc_kernel(cross, model)

    # hard-indicator candidates pre-scored on the smooth objective make
    # good starts: the gaussian peaks sit near wedge apexes/intersections
    d_cand, e_cand = _noassoc_candidates(cross)
    scores = objective(d_cand, e_cand)
    top = np.argsort(scores)[::-1][: max(2, cfg.multistart_count // 2)]
    extra = [(max(float(d_cand[i]), _D_FLOOR), float(e_cand[i])) for i in top]

    d_hat, eps_hat, value = maximize_2d(objective, cfg, extra_starts=extra, each=each)
    return DistanceEstimate(
        d_hat=max(d_hat, 0.0), eps_hat=eps_hat + mid, method="mle_async_noassoc",
        diagnostics={"loglik": value},
    )
