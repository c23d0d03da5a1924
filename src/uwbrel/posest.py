"""Relative-position estimators from delay differences or raw delays.

All solvers work in length units internally (clock unknowns scaled by c)
so the stacked systems stay well-conditioned, use orthogonal-factorization
least squares, and report the condition number of their normal matrix.
Two solvers, ``solve_by_delta`` (modes ``lse_by_delta``, ``lse_by_delta_pwa``,
``gls_by_delta``) and ``solve_by_tau`` (``lse_by_tau``), solve every set of a
stack (``Observations.stack``) with one batched SVD, each set with the bits and
the failure it has alone; each estimator is its solver on a stack of one set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AntiparallelDirections, InvalidParams, NotPositiveDefinite, RankDeficient
from .geom import SPEED_OF_LIGHT, Observations, vector_identity_terms

_C = SPEED_OF_LIGHT
_ANTIPARALLEL_EPS = 1e-6
COND_LIMIT = 1e12
_ANTIPARALLEL = "1 + dir_a.dir_b below threshold; MPC directions nearly antiparallel"


@dataclass(frozen=True)
class PositionEstimate:
    d_vec: np.ndarray
    eps_hat: float
    eps_a_hats: tuple = ()
    method: str = ""
    condition_number: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "d_vec", np.asarray(self.d_vec, dtype=float))
        if not np.isfinite(self.d_vec).all():
            raise RankDeficient("non-finite position estimate")


def _diff_columns(stack, pwa: bool):
    """Columns [s_k; 1] of every set's delay-difference system (T, K, 4), and which sets
    hold a nearly antiparallel pair (a row of theirs is divided by 1 instead)."""
    ma, mb = stack.dir_a, stack.dir_b
    low = np.zeros(ma.shape[:2], dtype=bool)
    if not pwa:
        denom = 1.0 + np.einsum("tij,tij->ti", ma, mb)
        low = denom <= _ANTIPARALLEL_EPS
        ma = (ma + mb) / np.where(low, 1.0, denom)[..., None]
    return np.concatenate([ma, np.ones(low.shape + (1,))], axis=2), low.any(axis=1)


def _lstsq(A: np.ndarray, b: np.ndarray, cond_limit: float, failures: list):
    """Least squares via SVD of each system of a stack, A (T, n, p) against b (T, n), with
    a conditioning gate on A^T A: ``(x, cond, failures)``, the solutions (T, p), normal
    matrix conditions (T,) and UwbrelErrors (None for a success).  A system not failed
    yet fails here, in order, if singular, above ``cond_limit`` or non-finite."""
    x, cond = np.full((len(A), A.shape[2]), np.nan), np.full(len(A), np.nan)
    todo = np.flatnonzero([f is None for f in failures])
    u, sv, vt = np.linalg.svd(A[todo], full_matrices=False)
    ok = sv[:, -1] > 0
    cond[todo[ok]] = [float(r ** 2) for r in sv[ok, 0] / sv[ok, -1]]
    for i, singular, c in zip(todo.tolist(), (~ok).tolist(), cond[todo].tolist()):
        if singular:
            failures[i] = RankDeficient("stacked system is singular")
        elif c > cond_limit:
            failures[i] = RankDeficient(f"condition number {c:.3g} exceeds {cond_limit:.3g}")
    ok &= cond[todo] <= cond_limit
    good = todo[ok]
    y = (u[ok].transpose(0, 2, 1) @ b[good][..., None])[..., 0] / sv[ok]
    x[good] = (vt[ok].transpose(0, 2, 1) @ y[..., None])[..., 0]
    for i in good[~np.isfinite(x[good, :3]).all(axis=1)].tolist():
        failures[i] = RankDeficient("non-finite position estimate")
    return x, cond, failures


def _one(method: str, observations, *args) -> PositionEstimate:
    """``method`` on a stack of ``observations`` alone: the position, A-B offset and any
    per-observer offsets of its solution [d; c*eps; c*eps_a...], or its error."""
    stack = Observations.stack([observations])
    x, cond, (failure,) = (solve_by_tau(stack, *args) if method == "lse_by_tau"
                           else solve_by_delta(stack, method, *args))
    if failure is not None:
        raise failure
    offsets = [v / _C for v in x[0, 3:].tolist()]
    return PositionEstimate(d_vec=x[0, :3], eps_hat=offsets[0], eps_a_hats=tuple(offsets[1:]),
                            method=method, condition_number=float(cond[0]))


def solve_by_delta(stack, method: str = "lse_by_delta", cond_limit: float = COND_LIMIT,
                   error_mean=None, error_cov=None):
    """``method``'s solution [d; c*eps] of every set of the stack ``stack``, as
    ``_lstsq`` returns it: ``lse_by_delta``, ``lse_by_delta_pwa`` (s_k = dir_a) or
    ``gls_by_delta`` (diffs less ``error_mean``, both sides whitened by the Cholesky factor
    of ``error_cov``, one of each for the stack).  Antiparallel sets are not solved."""
    if method not in ("lse_by_delta", "lse_by_delta_pwa", "gls_by_delta"):
        raise InvalidParams(f"{method!r} is not lse_by_delta, lse_by_delta_pwa or gls_by_delta")
    gls = method == "gls_by_delta"
    k = stack.tau_a.shape[1]
    if k < 4:
        raise RankDeficient(f"delay-difference {'GLS' if gls else 'LSE'} needs K >= 4")
    A, antiparallel = _diff_columns(stack, pwa=method == "lse_by_delta_pwa")
    delta = stack.tau_b - stack.tau_a
    b = _C * delta
    if gls and not antiparallel.all():  # a set of one fails on its directions first
        try:
            mu = np.broadcast_to(np.asarray(error_mean, dtype=float), (k,))
        except ValueError as exc:
            raise InvalidParams("error_mean must be a scalar or have length K") from exc
        cov = np.asarray(error_cov, dtype=float)
        if cov.shape != (k, k):
            raise InvalidParams("error_cov must be K x K")
        if not (np.isfinite(mu).all() and np.isfinite(cov).all()):
            raise InvalidParams("error_mean and error_cov must be finite")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("error covariance is not positive definite") from exc
        # whiten: solve L^-1 applied to both sides
        A = np.linalg.solve(chol, A)
        b = np.linalg.solve(chol, (_C * (delta - mu))[..., None])[..., 0]
    failures = [AntiparallelDirections(_ANTIPARALLEL) if a else None
                for a in antiparallel.tolist()]
    return _lstsq(A, b, cond_limit, failures)


def lse_by_delta(observations, cond_limit: float = COND_LIMIT) -> PositionEstimate:
    """Least-squares relative position from delay differences.

    Solves [d; c*eps] against c*delta over columns [s_k; 1].  Needs K >= 4;
    exact on noise-free consistent data.
    """
    return _one("lse_by_delta", observations, cond_limit)


def lse_by_delta_pwa(observations, cond_limit: float = COND_LIMIT) -> PositionEstimate:
    """Delay-difference LSE under the plane-wave assumption (s_k = dir_a)."""
    return _one("lse_by_delta_pwa", observations, cond_limit)


def gls_by_delta(observations, error_mean, error_cov,
                 cond_limit: float = COND_LIMIT) -> PositionEstimate:
    """Generalized (whitened) least squares for correlated delay errors.

    ``error_mean`` (seconds, length K) is subtracted from the diffs and
    ``error_cov`` (seconds^2, K x K, positive definite) whitens them; with
    isotropic covariance and zero mean this reduces exactly to lse_by_delta.
    """
    return _one("gls_by_delta", observations, cond_limit, error_mean, error_cov)


def _tau_system(stack):
    """Every set's raw-delay system: G (T, 3K, 4 + M) and t (T, 3K) in meters."""
    n, k = stack.tau_a.shape
    if not k:
        raise InvalidParams("no observations")
    G = np.zeros((n, k, 3, 4 + len(stack.groups)))
    G[..., 0:3] = np.eye(3)
    G[..., 3] = stack.dir_b
    for j, rows in enumerate(stack.groups.values()):  # one offset column per observer
        G[..., 4 + j][:, rows] = stack.dir_b[:, rows] - stack.dir_a[:, rows]
    return G.reshape(n, 3 * k, -1), vector_identity_terms(stack).reshape(n, -1)


def solve_by_tau(stack, cond_limit: float = COND_LIMIT):
    """``lse_by_tau``'s ``_lstsq`` solutions [d; c*eps; c*eps_a...] of a stack of sets."""
    G, t = _tau_system(stack)
    if G.shape[1] < G.shape[2]:
        raise RankDeficient("raw-delay LSE needs 3K >= 4 + M")
    return _lstsq(G, t, cond_limit, [None] * len(G))


def lse_by_tau(observations, cond_limit: float = COND_LIMIT) -> PositionEstimate:
    """Joint LSE of position, A-B clock offset, and per-observer offsets
    directly from raw delays and both-side directions.

    Exact (all unknowns) on noise-free consistent data; fragile under
    direction errors through the (dir_b - dir_a) columns.
    """
    return _one("lse_by_tau", observations, cond_limit)


def lse_by_tau_sync(observations) -> PositionEstimate:
    """Componentwise mean of the per-MPC vector identity; caller asserts
    that every clock offset is zero."""
    if not observations:
        raise InvalidParams("no observations")
    return PositionEstimate(
        d_vec=vector_identity_terms(observations).mean(axis=0), eps_hat=0.0,
        method="lse_by_tau_sync", condition_number=1.0,
    )
