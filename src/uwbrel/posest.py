"""Relative-position estimators from delay differences or raw delays.

All solvers work in length units internally (clock unknowns scaled by c)
so the stacked systems stay well-conditioned, use orthogonal-factorization
least squares, and report the condition number of their normal matrix.
The three delay-difference estimators (``lse_by_delta``, ``lse_by_delta_pwa``,
``gls_by_delta``) are fixed modes of one solver, ``_solve_by_delta``; it and
``lse_by_tau`` turn their solution into a ``PositionEstimate`` through one
builder, ``_estimate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AntiparallelDirections, InvalidParams, NotPositiveDefinite, RankDeficient
from .geom import SPEED_OF_LIGHT, vector_identity_terms

_C = SPEED_OF_LIGHT
_ANTIPARALLEL_EPS = 1e-6
COND_LIMIT = 1e12


@dataclass(frozen=True)
class StackedDiffSystem:
    """Delay-difference system: columns [s_k; 1] against c*delta."""

    E: np.ndarray          # (4, K)
    delta: np.ndarray      # (K,) seconds
    s_vectors: np.ndarray  # (K, 3)


@dataclass(frozen=True)
class StackedTauSystem:
    """Raw-delay system with per-observer clock-offset columns."""

    G: np.ndarray  # (3K, 4 + M)
    t: np.ndarray  # (3K,) meters


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


def build_diff_system(observations, pwa: bool = False) -> StackedDiffSystem:
    """Stack the delay-difference system from observations.

    With ``pwa`` the combined direction is replaced by the A-side direction
    (plane-wave assumption); otherwise s_k = (a + b) / (1 + a.b), whose
    denominator is guarded against antiparallel direction pairs.
    """
    if not observations:
        raise InvalidParams("no observations")
    ma, mb = observations.dir_a, observations.dir_b
    delta = observations.tau_b - observations.tau_a
    if pwa:
        s = ma
    else:
        denom = 1.0 + np.einsum("ij,ij->i", ma, mb)
        if (denom <= _ANTIPARALLEL_EPS).any():
            raise AntiparallelDirections(
                "1 + dir_a.dir_b below threshold; MPC directions nearly antiparallel"
            )
        s = (ma + mb) / denom[:, None]
    E = np.concatenate([s.T, np.ones((1, len(observations)))])
    return StackedDiffSystem(E=E, delta=delta, s_vectors=s)


def _lstsq_checked(A: np.ndarray, b: np.ndarray, cond_limit: float):
    """Least squares via SVD with a conditioning gate on A^T A."""
    u, sv, vt = np.linalg.svd(A, full_matrices=False)
    if sv[-1] <= 0:
        raise RankDeficient("stacked system is singular")
    cond = float((sv[0] / sv[-1]) ** 2)  # condition of the normal matrix
    if cond > cond_limit:
        raise RankDeficient(f"condition number {cond:.3g} exceeds {cond_limit:.3g}")
    x = vt.T @ ((u.T @ b) / sv)
    return x, cond


def _estimate(x: np.ndarray, cond: float, method: str) -> PositionEstimate:
    """Position, A-B offset and any per-observer offsets from a solution in
    length units, [d; c*eps; c*eps_a...]."""
    offsets = [v / _C for v in x[3:].tolist()]
    return PositionEstimate(d_vec=x[:3], eps_hat=offsets[0], eps_a_hats=tuple(offsets[1:]),
                            method=method, condition_number=cond)


def _solve_by_delta(observations, method: str, cond_limit: float,
                    error_mean=None, error_cov=None) -> PositionEstimate:
    """The delay-difference solver behind ``method``: ``lse_by_delta``,
    ``lse_by_delta_pwa`` (s_k = dir_a) or ``gls_by_delta`` (diffs less
    ``error_mean``, both sides whitened by the Cholesky factor of
    ``error_cov``)."""
    gls = method == "gls_by_delta"
    if len(observations) < 4:
        raise RankDeficient(f"delay-difference {'GLS' if gls else 'LSE'} needs K >= 4")
    sys_ = build_diff_system(observations, pwa=method == "lse_by_delta_pwa")
    A, b = sys_.E.T, _C * sys_.delta
    if gls:
        k = sys_.delta.size
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
        b = np.linalg.solve(chol, _C * (sys_.delta - mu))
    x, cond = _lstsq_checked(A, b, cond_limit)
    return _estimate(x, cond, method)


def lse_by_delta(observations, cond_limit: float = COND_LIMIT) -> PositionEstimate:
    """Least-squares relative position from delay differences.

    Solves [d; c*eps] against c*delta over columns [s_k; 1].  Needs K >= 4;
    exact on noise-free consistent data.
    """
    return _solve_by_delta(observations, "lse_by_delta", cond_limit)


def lse_by_delta_pwa(observations, cond_limit: float = COND_LIMIT) -> PositionEstimate:
    """Delay-difference LSE under the plane-wave assumption (s_k = dir_a)."""
    return _solve_by_delta(observations, "lse_by_delta_pwa", cond_limit)


def gls_by_delta(observations, error_mean, error_cov,
                 cond_limit: float = COND_LIMIT) -> PositionEstimate:
    """Generalized (whitened) least squares for correlated delay errors.

    ``error_mean`` (seconds, length K) is subtracted from the diffs and
    ``error_cov`` (seconds^2, K x K, positive definite) whitens them; with
    isotropic covariance and zero mean this reduces exactly to lse_by_delta.
    """
    return _solve_by_delta(observations, "gls_by_delta", cond_limit, error_mean, error_cov)


def build_tau_system(observations) -> StackedTauSystem:
    """Stack the raw-delay system with shared and per-observer offset columns."""
    if not observations:
        raise InvalidParams("no observations")
    groups = observations.groups
    k = len(observations)
    G = np.zeros((k, 3, 4 + len(groups)))
    G[:, :, 0:3] = np.eye(3)
    G[:, :, 3] = observations.dir_b
    for j, rows in enumerate(groups.values()):  # one offset column per observer
        G[rows, :, 4 + j] = observations.dir_b[rows] - observations.dir_a[rows]
    return StackedTauSystem(G=G.reshape(3 * k, -1),
                            t=vector_identity_terms(observations, _C).ravel())


def lse_by_tau(observations, cond_limit: float = COND_LIMIT) -> PositionEstimate:
    """Joint LSE of position, A-B clock offset, and per-observer offsets
    directly from raw delays and both-side directions.

    Exact (all unknowns) on noise-free consistent data; fragile under
    direction errors through the (dir_b - dir_a) columns.
    """
    sys_ = build_tau_system(observations)
    if sys_.G.shape[0] < sys_.G.shape[1]:
        raise RankDeficient("raw-delay LSE needs 3K >= 4 + M")
    x, cond = _lstsq_checked(sys_.G, sys_.t, cond_limit)
    return _estimate(x, cond, "lse_by_tau")


def lse_by_tau_sync(observations) -> PositionEstimate:
    """Componentwise mean of the per-MPC vector identity; caller asserts
    that every clock offset is zero."""
    if not observations:
        raise InvalidParams("no observations")
    return PositionEstimate(
        d_vec=vector_identity_terms(observations, _C).mean(axis=0), eps_hat=0.0,
        method="lse_by_tau_sync", condition_number=1.0,
    )
