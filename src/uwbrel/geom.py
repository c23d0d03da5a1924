"""Exact propagation geometry for multipath components shared by two nodes.

Every multipath component (MPC) observed from both node A and node B is
modelled through its virtual source: the mirror/scatter point the path
appears to emanate from.  Direction vectors point from the virtual source
toward the receiving node, which is the sign convention under which

    d = c*tau_b*dir_b - c*tau_a*dir_a

holds exactly for the relative position d = pos_b - pos_a.

MPCs and their observations are grouped by observer in one place,
``group_by_observer``: it takes the observer id of every row and returns
each observer's row indices, observers in order of first appearance.  Every
per-observer loop in the library (association, delay differences, the
raw-delay system's offset columns, scrambling, observation noise) walks
them in that order and reads its columns through those index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry

SPEED_OF_LIGHT = 299792458.0  # m/s

UNIT_TOL = 1e-12  # tolerance on the norm of a unit direction
_COINCIDENCE_EPS = 1e-12  # m; below float-noise scale for meter-range scenarios


def norms(v) -> np.ndarray:
    """Euclidean norms along the last axis of ``v``, each with the bits
    ``np.linalg.norm`` gives that vector alone."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def is_unit(v, tol: float = UNIT_TOL) -> bool:
    """Whether ``v`` has Euclidean norm 1 within ``tol``."""
    return abs(np.linalg.norm(np.asarray(v, dtype=float)) - 1.0) <= tol


def group_by_observer(observer) -> dict:
    """Row indices grouped by observer id: ``{id: index array}``, observers
    in order of first appearance, indices ascending."""
    ids = np.asarray(observer, dtype=int)
    return {o: np.flatnonzero(ids == o) for o in dict.fromkeys(ids.tolist())}


@dataclass(frozen=True)
class MpcTrue:
    """Ground-truth parameters of one MPC seen from both nodes.

    tau_a/tau_b are propagation delays in seconds, dir_a/dir_b unit
    direction vectors at the respective node.
    """

    tau_a: float
    tau_b: float
    dir_a: np.ndarray
    dir_b: np.ndarray
    observer_id: int = 0
    mpc_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dir_a", np.asarray(self.dir_a, dtype=float))
        object.__setattr__(self, "dir_b", np.asarray(self.dir_b, dtype=float))
        if self.tau_a <= 0 or self.tau_b <= 0:
            raise DegenerateGeometry("MPC delays must be positive")
        if not (is_unit(self.dir_a) and is_unit(self.dir_b)):
            raise DegenerateGeometry("MPC directions must be unit vectors")


@dataclass(frozen=True)
class Scenario:
    """Ground-truth geometry: node positions plus a consistent MPC set.

    ``mpcs`` is ordered by observer; ``k_per_observer`` recovers the
    per-observer group sizes K_1..K_M.
    """

    pos_a: np.ndarray
    pos_b: np.ndarray
    mpcs: tuple = field(default_factory=tuple)
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        object.__setattr__(self, "pos_a", np.asarray(self.pos_a, dtype=float))
        object.__setattr__(self, "pos_b", np.asarray(self.pos_b, dtype=float))
        object.__setattr__(self, "mpcs", tuple(self.mpcs))

    @property
    def d_vec(self) -> np.ndarray:
        return self.pos_b - self.pos_a

    @property
    def d(self) -> float:
        return float(np.linalg.norm(self.d_vec))

    @property
    def k_total(self) -> int:
        return len(self.mpcs)

    def k_per_observer(self) -> dict:
        groups = group_by_observer([m.observer_id for m in self.mpcs])
        return {o: rows.size for o, rows in groups.items()}

    def validate(self, tol: float = 1e-9) -> None:
        """Check every MPC against the vector identity and the delay bound."""
        d = self.d_vec
        for m in self.mpcs:
            recon = self.c * m.tau_b * m.dir_b - self.c * m.tau_a * m.dir_a
            if np.linalg.norm(recon - d) > tol:
                raise DegenerateGeometry(
                    f"MPC ({m.observer_id},{m.mpc_id}) violates the vector identity"
                )
            if abs(self.c * delay_diff_true(m)) > self.d + tol:
                raise DegenerateGeometry(
                    f"MPC ({m.observer_id},{m.mpc_id}) violates the delay-difference bound"
                )


def complete_mpc(pos_a, pos_b, tau_a: float, dir_a, c: float = SPEED_OF_LIGHT,
                 observer_id: int = 0, mpc_id: int = 0) -> MpcTrue:
    """Fill in the B-side delay and direction from the A-side parameters.

    The virtual source sits at ``pos_a - c*tau_a*dir_a``; the B-side leg is
    the vector from there to ``pos_b``, i.e. ``d + c*tau_a*dir_a``.

    Raises DegenerateGeometry when the virtual source coincides with node B.
    """
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    dir_a = np.asarray(dir_a, dtype=float)
    if tau_a <= 0:
        raise DegenerateGeometry("tau_a must be positive")
    if not is_unit(dir_a):
        raise DegenerateGeometry("dir_a must be a unit vector")
    leg_b = (pos_b - pos_a) + c * tau_a * dir_a
    norm_b = np.linalg.norm(leg_b)
    if norm_b < _COINCIDENCE_EPS:
        raise DegenerateGeometry("virtual source coincides with node B")
    return MpcTrue(
        tau_a=float(tau_a),
        tau_b=float(norm_b / c),
        dir_a=dir_a,
        dir_b=leg_b / norm_b,
        observer_id=observer_id,
        mpc_id=mpc_id,
    )


def delay_diff_true(m: MpcTrue) -> float:
    """True delay difference tau_b - tau_a in seconds."""
    return m.tau_b - m.tau_a


def projection_residual(m: MpcTrue, d, c: float = SPEED_OF_LIGHT) -> float:
    """Residual of the projection identity, in meters.

    Returns ``(dir_a + dir_b)^T d - c*(tau_b - tau_a)*(1 + dir_a^T dir_b)``,
    which is zero (to float precision) for any geometrically consistent MPC.
    """
    d = np.asarray(d, dtype=float)
    lhs = float((m.dir_a + m.dir_b) @ d)
    rhs = c * delay_diff_true(m) * (1.0 + float(m.dir_a @ m.dir_b))
    return lhs - rhs


def pwa_residual(m: MpcTrue, d, c: float = SPEED_OF_LIGHT) -> float:
    """Plane-wave-assumption residual ``dir_a^T d - c*(tau_b - tau_a)`` in meters.

    Diagnostic only: small when the node separation is much shorter than the
    path length, not zero in general.
    """
    d = np.asarray(d, dtype=float)
    return float(m.dir_a @ d) - c * delay_diff_true(m)
