"""Distance estimators from MPC delays.

Every public estimator and likelihood takes one ``geom.Observations`` set
as its first argument and reads only its delays and observer ids.  With
known association its inputs are the differences tau_b - tau_a row by row,
and MPC k's sigma is row k's.

- Closed forms: ``mvue_async``, ``mle_async_noiseless``, ``mle_sync`` and
  ``mvue_sync``; ``mvue_async`` is ``mvue_async_stack`` on a one-set ``geom.Stack``.
- Likelihoods: ``loglik_known_assoc`` and ``loglik_no_assoc``, both on one
  body, ``_noassoc_kernel`` (known association is one MPC per observer).
- ML estimators: ``mle_async_gaussian`` and ``mle_async_noassoc`` set up
  their cross differences and starts and end in one body, ``_ml_estimate``
  (grid and simplex, or the hard-indicator search ``_noassoc_enumerate``).
- ``permanent``, the one permanent kernel, and ``_zero_bound``, Hall's
  row/column test that spares the permanents known to be exactly 0.

How each works, and how it keeps its bits, is in its own docstring.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientMpcs, InvalidParams, PermutationCapExceeded
from .geom import SPEED_OF_LIGHT, Stack
from .likelihood import ErrorModel, OptimizerConfig, best_first, maximize_2d

_C = SPEED_OF_LIGHT
_D_FLOOR = 1e-6     # m; keeps the 1/d^K envelope finite when all factors stay positive

PERMUTATION_CAP = 8  # exact permanents up to 8x8 (1,024 products over 255 column sets)
_BLOCK = 1024        # likelihood points per block; bounds the (n, n, n_obs, points) temporaries
_FUSE = 1 << 14      # entries up to which a permanent row gathers all its terms at once


def _log0(values: np.ndarray) -> np.ndarray:
    """log with log(0) = -inf (NaN stays NaN) and no runtime warning."""
    return np.log(values, out=np.full(values.shape, -np.inf), where=~(values <= 0.0))


@dataclass(frozen=True)
class DistanceEstimate:
    d_hat: float
    eps_hat: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def _delays(obs) -> np.ndarray:
    """The known-association delay differences tau_b - tau_a, row by row."""
    if not obs:
        raise InvalidParams("no observations")
    return obs.tau_b - obs.tau_a


def _async_range(delta: np.ndarray):
    """K, the spread max - min and the midrange of the diffs (K >= 2) along the
    last axis: floats for one set's diffs, arrays for a stack's (T, K)."""
    if delta.shape[-1] < 2:
        raise InsufficientMpcs("asynchronous estimators need K >= 2")
    hi, lo = delta.max(axis=-1), delta.min(axis=-1)
    return delta.shape[-1], *(v if delta.ndim > 1 else float(v) for v in (hi - lo, (hi + lo) / 2))


def _sync_range(delta: np.ndarray):
    """K and the largest |delta| of the diffs."""
    return delta.size, float(np.abs(delta).max())


def mvue_async_stack(stack):
    """``mvue_async``'s distances and offsets (midranges), each (T,), of a ``geom.Stack``."""
    if not stack.tau_a.shape[1]:
        raise InvalidParams("no observations")
    k, spread, mid = _async_range(stack.tau_b - stack.tau_a)
    return (k + 1) / (k - 1) * (_C / 2.0) * spread, mid


def mvue_async(obs) -> DistanceEstimate:
    """Bias-corrected range estimate: (K+1)/(K-1) * (c/2) * (max - min)."""
    (d_hat,), (mid,) = mvue_async_stack(Stack.of([obs]))
    return DistanceEstimate(d_hat=float(d_hat), eps_hat=float(mid), method="mvue_async")


def mle_async_noiseless(obs) -> DistanceEstimate:
    """Uncorrected ML range: (c/2) * (max - min); underestimates w.p. 1."""
    _, spread, mid = _async_range(_delays(obs))
    return DistanceEstimate(d_hat=(_C / 2.0) * spread, eps_hat=mid,
                            method="mle_async_noiseless")


def mle_sync(obs) -> DistanceEstimate:
    """Synchronized-clock ML range: c * max|delta| (caller asserts eps = 0)."""
    _, peak = _sync_range(_delays(obs))
    return DistanceEstimate(d_hat=_C * peak, eps_hat=0.0, method="mle_sync")


def mvue_sync(obs) -> DistanceEstimate:
    """Bias-corrected synchronized range: (K+1)/K * c * max|delta|."""
    k, peak = _sync_range(_delays(obs))
    return DistanceEstimate(d_hat=(k + 1) / k * _C * peak, eps_hat=0.0, method="mvue_sync")


def loglik_known_assoc(obs, model: ErrorModel, d, eps):
    """Log of the known-association likelihood (1/d^K) * prod_k I_k(delta_k - eps, d)
    of the diffs delta_k = tau_b - tau_a of each row; MPC k's sigma is row k's.

    Broadcasts over numpy arrays ``d`` (meters) and ``eps`` (seconds).  It is
    ``_noassoc_kernel`` over one-MPC observers: a 1 x 1 permanent is its entry.
    """
    return _noassoc_kernel(*_one_mpc_groups(_delays(obs)), model)(d, eps)


def _default_config(delta_centered: np.ndarray) -> OptimizerConfig:
    d_max = max(4.0 * _C * float(np.abs(delta_centered).max()), 1e-3)
    e_pad = d_max / _C
    return OptimizerConfig(
        grid_d=(0.0, d_max, 200),
        grid_eps=(float(delta_centered.min()) - e_pad, float(delta_centered.max()) + e_pad, 200),
    )


def mle_async_gaussian(obs, model: ErrorModel,
                       cfg: OptimizerConfig = None) -> DistanceEstimate:
    """Joint ML estimate of (distance, clock offset) under Gaussian errors:
    ``_ml_estimate`` on ``loglik_known_assoc``'s kernel, with the noiseless
    closed form as an extra start.  The diffs are midrange-centered, so the
    estimate is exactly shift-equivariant.
    """
    delta = _delays(obs)
    _, _, mid = _async_range(delta)
    if model.kind != "gaussian":
        raise InvalidParams("mle_async_gaussian needs a gaussian error model")
    centered = delta - mid
    _, spread, apex_eps = _async_range(centered)  # the noiseless closed form's apex
    return _ml_estimate(*_one_mpc_groups(centered), mid, model, cfg, "mle_async_gaussian",
                        lambda objective, cfg: [(max((_C / 2.0) * spread, _D_FLOOR), apex_eps)])


# --- permanents ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _subsets(n: int) -> tuple:
    """The plan of ``permanent``'s recursion over n x n matrices: for each
    row s, a pair ``(sub, col)`` of read-only (s+1, C(n, s+1)) arrays over
    the (s+1)-column sets S in lexicographic order.  Entry [t, S] is the
    t-th column j = S[t] in ``col`` and, in ``sub``, the index of S - {j}
    among the s-column sets of the row before."""
    plan, index = [], {(): 0}
    for s in range(n):
        sets = list(itertools.combinations(range(n), s + 1))
        sub = np.array([[index[S[:t] + S[t + 1:]] for S in sets] for t in range(s + 1)])
        col = np.array(sets).T
        sub.flags.writeable = col.flags.writeable = False
        plan.append((sub, col))
        index = {S: i for i, S in enumerate(sets)}
    return tuple(plan)


def permanent(mats):
    """Exact permanents over the last two axes of ``mats`` (..., n, n).

    Expansion by rows over column sets: with f[{}] = 1 before row 0,
    row s makes f[S] = sum over j in S, ascending, of
    f[S - {j}] * a[s, j] for every (s+1)-column set S, and the permanent
    is f of all n columns (n 2^(n-1) products in all).  Every term is a
    product of entries, so on the likelihood's nonnegative matrices
    nothing cancels and a matrix with no nonzero permutation product gets
    exactly 0.  The rows run over the (n, n, ...) transpose, contiguous for
    a batch-last stack passed as a transposed view, as the likelihood and
    the hard search pass theirs.  Row 0 is a[0] itself (1.0 * a is a).  A
    later row whose (s+1, C(n, s+1), batch) terms number at most ``_FUSE``
    is gathered in one step and added in ascending j, a larger one term by
    term.  Each step is elementwise over the batch, in one order, so every
    matrix gets the bits it gets alone.  A 2-D input returns a float; a
    0 x 0 matrix has permanent 1.
    """
    mats = np.asarray(mats, dtype=float)
    if mats.ndim < 2 or mats.shape[-2] != mats.shape[-1]:
        raise InvalidParams("permanent needs square matrices over the last two axes")
    rows = mats.transpose(-2, -1, *range(mats.ndim - 2))  # (n, n, ...)
    f = rows[0].copy() if mats.shape[-1] else np.ones((1,) + mats.shape[:-2])  # row 0
    for s, (sub, col) in enumerate(_subsets(mats.shape[-1])[1:], 1):
        if sub.size * f[0].size <= _FUSE:  # the whole row in one gather
            acc = f.take(sub, axis=0)
            acc *= rows[s].take(col, axis=0)
            f = acc[0]
            for t in range(1, s + 1):
                f += acc[t]
        else:
            acc = f[sub[0]]  # term by term: temporaries stay (sets, ...)
            acc *= rows[s, col[0]]
            for t in range(1, s + 1):
                term = f[sub[t]]
                term *= rows[s, col[t]]
                acc += term
            f = acc
    return float(f[0]) if mats.ndim == 2 else f[0]


def _zero_bound(model: ErrorModel, x, sigma=None) -> np.ndarray:
    """Hall's row/column test on the factor matrices of residuals ``x``,
    batch last (n, n, ...): the d/c below which some row or column is all
    zeros (no perfect matching, so the permanent is exactly 0)."""
    t = model.zero_below(x, sigma)
    return np.maximum(t.min(axis=1).max(axis=0), t.min(axis=0).max(axis=0))


def _cross_diffs(obs, mid=0.0):
    """Each observer's row indices and its cross differences
    ``[k, l] = (tau_b[l] - mid) - tau_a[k]``, observers in order of first
    appearance, as two lists."""
    if not obs:
        raise InvalidParams("no observations")
    rows = list(obs.groups.values())
    cross = []
    for r in rows:
        if r.size > PERMUTATION_CAP:
            raise PermutationCapExceeded(
                f"K_o = {r.size} exceeds the exact permanent cap {PERMUTATION_CAP}"
            )
        cross.append((obs.tau_b[r] - mid)[None, :] - obs.tau_a[r][:, None])
    return rows, cross


def _one_mpc_groups(delta: np.ndarray):
    """``_cross_diffs`` of known association: every row its own observer,
    whose 1 x 1 cross difference is its diff (bit for bit)."""
    return [[k] for k in range(delta.size)], list(delta.reshape(-1, 1, 1))


def _noassoc_kernel(rows, cross, model: ErrorModel, top: int = 0):
    """The association-free log-likelihood of fixed cross differences (for
    known association, ``_one_mpc_groups``) as a function ``loglik(d, eps)``
    that broadcasts over ``d`` and ``eps``.

    Observers of equal size share one (n, n, n_obs) cross-difference stack
    and one (n, n_obs) sigma stack (observer o's sigmas are those of its
    rows ``rows[o]``), both built here once, batch last.  Points are
    evaluated ``_BLOCK`` at a time in a (n, n, n_obs, points) layout, with
    one ``permanent`` call per size on the (n_obs, points, n, n) transpose
    of the factors, a view whose own transpose is the contiguous stack;
    the per-observer log terms are added in observer order.  Every step
    is elementwise over the points, so each point gets the bits it gets
    alone, in any batch.

    A call of fewer than ``_BLOCK`` points, d and eps of one shape (each
    simplex step), is evaluated directly.  Any other call, such as a grid
    or the hard-indicator candidates, first takes two bounds on d/c, once
    per distinct eps over observers of every size (a third of an
    evaluation each), which spare evaluations.  Entry (k, l)
    is exactly 0 for d/c below ``ErrorModel.zero_below(x_kl - eps, s_k)``,
    so an observer's matrix has an all-zero row (column) below the largest
    row (column) minimum of these, and its permanent is exactly 0: points
    below the larger of the two (``_zero_bound``, less a 1e-9 relative
    margin) get the -inf an evaluation would give.  Entry (k, l) is exactly
    1 above ``ErrorModel.one_above(x_kl - eps, s_k)``: points above the
    largest of these (plus a 1e-9 relative margin) have permanents of
    exactly n_o! and get the envelope plus each log(n_o!) in observer
    order, the bits an evaluation would give.

    With ``top`` = k > 0 a grid is a branch and bound (Land & Doig 1960)
    for its k best cells: seeded by the saturated cells, it evaluates the
    cells between the bounds in ascending d, in blocks doubling from
    ``_BLOCK // 8``, and gives -inf unevaluated to each cell whose envelope
    ``total(d, log_all_ones)`` (its value if every factor were 1, an upper
    bound in floating point too: each permanent is at most n_o! and
    ``total`` adds in the same order) is below the k-th best value so far,
    less a 1e-9 relative margin.  The k best cells keep bits and order.
    """
    sizes = [m.shape[0] for m in cross]
    k_total = sum(sizes)
    sig = model.sigmas(k_total) if model.kind == "gaussian" else None
    groups = []  # (observer indices, (n, n, n_obs, 1) cross, (n, 1, n_obs, 1) sigma or None)
    for n in sorted(set(sizes)):
        ids = np.flatnonzero(np.array(sizes) == n)
        stack = np.stack([cross[o] for o in ids], axis=-1)[..., None]
        s = None if sig is None else np.stack([sig[rows[o]] for o in ids], -1)[:, None, :, None]
        groups.append((ids, stack, s))
    order = np.argsort(np.concatenate([g[0] for g in groups]))  # observer o's permanents row

    log_all_ones = _log0(np.array([math.factorial(n) for n in sizes], dtype=float))[:, None]

    def total(dm, log_terms):  # dm: d floored at _D_FLOOR
        ll = -k_total * np.log(dm)
        for term in log_terms:  # observer by observer, in order
            ll += term
        return ll

    def block(dm, ee):
        half = dm / _C  # x = stack - ee: [k, l, o, p] = tau_b[l] - tau_a[k] - eps_p; s: row sigmas
        permanents = [permanent(model.factors(stack - ee, half, s).transpose(2, 3, 0, 1))
                      for _, stack, s in groups]
        return total(dm, _log0(permanents[0] if len(groups) == 1
                               else np.concatenate(permanents)[order]))

    def support(eps):
        """The lower (largest ``_zero_bound``) and upper (largest
        saturation) bounds on d/c of the observers at each of the 1-D
        ``eps`` (a grid's distinct eps, or each point of a large call), the
        lower one floored at 0 (d/c is positive)."""
        lo, hi = np.zeros(eps.size), np.zeros(eps.size)
        for i in range(0, eps.size, _BLOCK):
            e = eps[i:i + _BLOCK]
            for _, stack, s in groups:
                x = stack - e  # the bits of block()'s x
                np.maximum(hi[i:i + _BLOCK], model.one_above(x, s).max(axis=(0, 1, 2)),
                           out=hi[i:i + _BLOCK])
                np.maximum(lo[i:i + _BLOCK], _zero_bound(model, x, s).max(axis=0),
                           out=lo[i:i + _BLOCK])
        return lo, hi

    def loglik(d, eps):
        d, eps = np.asarray(d, dtype=float), np.asarray(eps, dtype=float)
        if d.shape == eps.shape and d.size < _BLOCK:  # an eps per point: no bounds
            out = block(np.maximum(d.ravel(), _D_FLOOR), eps.ravel())
            return out.reshape(d.shape) if d.ndim else float(out[0])
        d, ee = np.broadcast_arrays(d, eps)
        dd, ee = d.ravel(), ee.ravel()
        out = np.full(dd.size, -np.inf)
        lo, hi = (b.reshape(eps.shape) for b in support(eps.ravel()))
        dm = np.maximum(d, _D_FLOOR)
        half, dm = dm / _C, dm.ravel()
        ones = (half > hi * (1 + 1e-9)).ravel()
        out[ones] = total(dm[ones], log_all_ones)
        keep = np.flatnonzero(~(half < lo * (1 - 1e-9)).ravel() & ~ones)
        found = out[ones] if top and eps.size < dd.size else None  # a grid's best values so far
        step = _BLOCK
        if found is not None:  # branch and bound, in ascending d: a falling envelope
            keep = keep[np.argsort(dd[keep], kind="stable")]
            step = _BLOCK // 8  # the best cells lie just above the lower bound
        while True:
            if found is not None and found.size >= top:
                found = np.partition(found, -top)[-top:]  # found[0]: the k-th best
                keep = keep[total(dm[keep], log_all_ones) >= found[0] - 1e-9 * (1 + abs(found[0]))]
            if not keep.size:
                break
            part, keep, step = keep[:step], keep[step:], min(2 * step, _BLOCK)
            out[part] = block(dm[part], ee[part])
            if found is not None:
                found = np.concatenate([found, np.fmax(out[part], -np.inf)])  # NaN as -inf
        return out.reshape(d.shape) if d.ndim else float(out[0])

    return loglik


def loglik_no_assoc(obs, model: ErrorModel, d, eps):
    """Log of the association-free likelihood of the delays of ``obs``.

    Per observer the likelihood factor is the permanent of the matrix of
    soft indicators over all pairings of its A-side and B-side delays;
    MPC k's sigma is row k's.  The total carries the same 1/d^K envelope as
    the known-association case.  Broadcasts over ``d`` and ``eps``.  A
    sigma array of the wrong size raises InvalidParams.
    """
    return _noassoc_kernel(*_cross_diffs(obs), model)(d, eps)


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


def _noassoc_enumerate(cross, model: ErrorModel):
    """Exact hard-indicator ML over the finite candidate set.

    Observer by observer, the feasibility matrices (``model.factors``) of
    the candidates that pass Hall's row/column test (``_zero_bound``, exact
    for ``none``) are scored in one ``permanent`` call, on a stack that may
    be empty; every other candidate has an all-zero row or column, so no
    perfect matching, and gets p = 0.0, what ``permanent`` returns for it.
    Candidates are ranked by (number of observers with a feasible
    permutation, then likelihood, then smallest d), the first one winning a
    tie; when no candidate is feasible for every observer the
    least-infeasible one is returned.
    """
    k_total = sum(m.shape[0] for m in cross)
    d_cand, e_cand = _noassoc_candidates(cross)
    half = (d_cand + 1e-9 * np.maximum(d_cand, 1.0)) / _C  # border candidates sit on wedge edges
    n_feas = np.zeros(d_cand.size, dtype=int)
    log_terms = np.zeros(d_cand.size)
    for mat in cross:  # observer by observer, so log_terms adds up in a fixed order
        x = mat[..., None] - e_cand  # (n, n, candidates)
        live = np.flatnonzero(half >= _zero_bound(model, x))
        p = np.zeros(d_cand.size)  # the rest have an all-zero row or column: permanent 0
        p[live] = permanent(model.factors(x[..., live], half[live]).transpose(2, 0, 1))
        n_feas += p > 0
        log_terms += np.log(np.where(p > 0, p, 1.0))  # an infeasible observer adds log 1 = 0
    value = -k_total * np.log(np.maximum(d_cand, _D_FLOOR)) + log_terms
    best = n_feas == n_feas.max()
    best &= value == value[best].max()
    best &= d_cand == d_cand[best].min()
    i = int(np.argmax(best))  # the first candidate with the largest (n_feas, value, -d)
    return float(d_cand[i]), float(e_cand[i]), float(value[i]), bool(n_feas[i] == len(cross))


def _ml_estimate(rows, cross, mid, model: ErrorModel, cfg, method, starts) -> DistanceEstimate:
    """The one body of the ML estimators, on midrange-centered cross
    differences (``_cross_diffs``): ``_noassoc_enumerate`` for error model
    ``none``, else ``maximize_2d`` of ``_noassoc_kernel`` on ``cfg``
    (``_default_config`` if None) from the extra starts ``starts(objective,
    cfg)``, the kernel with ``top = cfg.grid_starts``: ``maximize_2d`` reads
    only that many best grid cells.  d is clamped at 0 and eps shifted by ``mid``."""
    if model.kind == "none":
        d_hat, eps_hat, value, feasible = _noassoc_enumerate(cross, model)
        diagnostics = {"loglik": value, "feasible": feasible}
    else:
        if cfg is None:
            cfg = _default_config(np.concatenate([m.ravel() for m in cross]))
        objective = _noassoc_kernel(rows, cross, model, top=cfg.grid_starts)
        d_hat, eps_hat, value = maximize_2d(objective, cfg, extra_starts=starts(objective, cfg))
        diagnostics = {"loglik": value}
    return DistanceEstimate(d_hat=max(d_hat, 0.0), eps_hat=eps_hat + mid, method=method,
                            diagnostics=diagnostics)


def mle_async_noassoc(obs, model: ErrorModel,
                      cfg: OptimizerConfig = None) -> DistanceEstimate:
    """Joint ML estimate of (distance, clock offset) with unknown association:
    within each observer of ``obs``, any A-side delay may pair with any
    B-side delay.  ``_ml_estimate`` on ``loglik_no_assoc``'s kernel, from
    the best hard-indicator candidates as extra starts; for error model
    ``none``, the exact search over those candidates.  K < 2 raises
    InsufficientMpcs.
    """
    _, raw = _cross_diffs(obs)
    _, _, mid = _async_range(np.concatenate([m.ravel() for m in raw]))  # one MPC: raises
    rows, cross = _cross_diffs(obs, mid)  # midrange-centered

    def candidate_starts(objective, cfg):
        # hard-indicator candidates pre-scored on the smooth objective make
        # good starts: the gaussian peaks sit near wedge apexes/intersections
        d_cand, e_cand = _noassoc_candidates(cross)
        return [(max(float(d_cand[i]), _D_FLOOR), float(e_cand[i]))
                for i in best_first(objective(d_cand, e_cand), max(2, cfg.grid_starts // 2))]

    return _ml_estimate(rows, cross, mid, model, cfg, "mle_async_noassoc", candidate_starts)
