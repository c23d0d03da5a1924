"""Exact propagation geometry for multipath components shared by two nodes.

Every multipath component (MPC) observed from both node A and node B is
modelled through its virtual source: the mirror/scatter point the path
appears to emanate from.  Direction vectors point from the virtual source
toward the receiving node, which is the sign convention under which

    d = c*tau_b*dir_b - c*tau_a*dir_a

holds exactly for the relative position d = pos_b - pos_a.

A set of MPCs is one ``Observations``: five columns, one row per MPC,
checked where the set enters; rows taken from a checked set are not checked
again.  The same type holds the ground truth of a ``Scenario``, what the
nodes measure (so the noise-free measurement is the truth) and a stack of
sets of one observer layout, checked once for all its sets.  Every geometric
function here works on such columns, row by row: ``complete_mpc`` fills in
the B side, ``vector_identity_terms`` and the residuals return one value per row.

MPCs are grouped by observer in one place, ``group_by_observer``: it takes
the observer id of every row and returns each observer's row indices,
observers in order of first appearance.  Each set caches its own as the
read-only ``Observations.groups`` (a slice or ``dataclasses.replace`` is a
new set).  Every per-observer loop in the library (association, delay
differences, the raw-delay system's offset columns, scrambling, observation
noise) reads it, walks them in that order and reads its columns through
those index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import DegenerateGeometry, InvalidParams

SPEED_OF_LIGHT = 299792458.0  # m/s
_C = SPEED_OF_LIGHT

UNIT_TOL = 1e-12  # tolerance on the norm of a unit direction
_COINCIDENCE_EPS = 1e-12  # m; below float-noise scale for meter-range scenarios
_VALIDATE_TOL = 1e-9  # m; Scenario.validate's tolerance on the identity and the delay bound


def norms(v) -> np.ndarray:
    """Euclidean norms along the last axis of ``v``, each with the bits
    ``np.linalg.norm`` gives that vector alone."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def group_by_observer(observer) -> dict:
    """Row indices grouped by observer id: ``{id: index array}``, observers
    in order of first appearance, indices ascending."""
    ids = np.asarray(observer, dtype=int)
    return {o: np.flatnonzero(ids == o) for o in dict.fromkeys(ids.tolist())}


def positions_in_group(observer) -> np.ndarray:
    """Each row's position within its observer group (0, 1, ... in row order)."""
    positions = np.empty(np.size(observer), dtype=int)
    for rows in group_by_observer(observer).values():
        positions[rows] = np.arange(rows.size)
    return positions


@dataclass(frozen=True)
class Observations:
    """Delays and directions of K MPCs at both nodes, as columns.

    ``tau_a``, ``tau_b`` (K,): the delays in seconds at A and B;
    ``dir_a``, ``dir_b`` (K, 3): the unit directions; ``observer`` (K,): the
    integer id of each MPC's observer.  Construction and ``replace`` check the
    columns and keep read-only copies: delays must be finite (zero and negative
    values are accepted, since a measured delay carries an arbitrary clock offset)
    and directions unit vectors.  A slice, index array or mask selects rows.
    A stack of T sets (``stack``, or stacked columns) has (T, K) delays and
    (T, K, 3) directions and shares one ``observer`` column and its ``groups``.
    """

    tau_a: np.ndarray
    tau_b: np.ndarray
    dir_a: np.ndarray
    dir_b: np.ndarray
    observer: np.ndarray
    _COLUMNS = ("tau_a", "tau_b", "dir_a", "dir_b", "observer")  # not a field: no annotation

    def __post_init__(self):
        if np.size(self.observer) and np.asarray(self.observer).dtype.kind not in "iu":
            raise InvalidParams("observer ids must be integers")
        for name in self._COLUMNS:
            column = np.array(getattr(self, name), int if name == "observer" else float, order="C")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        k = self.tau_a.shape[:-1] + self.observer.shape  # (K,) or a stack's (T, K)
        shapes = (self.tau_a.shape, self.tau_b.shape, self.dir_a.shape, self.dir_b.shape)
        if self.observer.ndim != 1 or len(k) > 2 or shapes != (k, k, k + (3,), k + (3,)):
            raise InvalidParams("delays and observer ids need shape (K,), directions (K, 3); "
                                "a stack's delays (T, K), directions (T, K, 3)")
        if not (np.isfinite(self.tau_a).all() and np.isfinite(self.tau_b).all()):
            raise InvalidParams("MPC delays must be finite")
        if not (np.abs(norms(np.concatenate([self.dir_a, self.dir_b])) - 1.0) <= UNIT_TOL).all():
            raise InvalidParams("MPC directions must be unit vectors")

    def __len__(self) -> int:
        return self.observer.size

    @cached_property
    def groups(self):
        """``group_by_observer(self.observer)``, computed once per set, as a
        read-only mapping of read-only index arrays."""
        groups = group_by_observer(self.observer)
        for rows in groups.values():
            rows.flags.writeable = False
        return MappingProxyType(groups)

    @classmethod
    def _of_rows(cls, *columns, groups=None) -> "Observations":
        """The set or stack of five ``columns`` taken from checked sets, kept read-only and
        C-contiguous but not checked again; ``groups``, if given, groups its observers."""
        new = object.__new__(cls)
        for name, column in zip(cls._COLUMNS, map(np.ascontiguousarray, columns)):
            column.flags.writeable = False
            new.__dict__[name] = column
        if groups is not None:
            new.__dict__["groups"] = groups
        return new

    def __getitem__(self, rows) -> "Observations":
        if self.tau_a.ndim != 1 or self.observer[rows].ndim != 1:
            raise InvalidParams("one set's rows are selected by a slice, an index array or a mask")
        return Observations._of_rows(*(getattr(self, name)[rows] for name in self._COLUMNS))

    @classmethod
    def stack(cls, sets) -> "Observations":
        """The stack of a nonempty sequence of sets (not stacks) of one observer layout."""
        if not sets or {s.tau_a.shape for s in sets} != {sets[0].observer.shape} or (
                np.stack([s.observer for s in sets]) != sets[0].observer).any():
            raise InvalidParams("a stack needs one or more sets of one observer layout")
        return cls._of_rows(*(np.stack([getattr(s, name) for s in sets]) for name in
                              cls._COLUMNS[:4]), sets[0].observer, groups=sets[0].groups)

    def paired(self, sources) -> "Observations":
        """This set or stack with A row k paired to B row ``sources[..., k]``; the integer
        ``sources``, shaped as ``tau_b``, must permute each observer's rows, else InvalidParams."""
        sources = np.asarray(sources)  # a permutation of all rows that keeps each row's observer
        if (sources.dtype.kind not in "iu" or sources.shape != self.tau_b.shape
                or (np.sort(sources, -1) != np.arange(len(self))).any()
                or (self.observer[sources] != self.observer).any()):
            raise InvalidParams("each row of sources must permute every observer's rows")
        rows = (np.arange(len(sources))[:, None], sources) if sources.ndim == 2 else sources
        return Observations._of_rows(self.tau_a, self.tau_b[rows], self.dir_a, self.dir_b[rows],
                                     self.observer, groups=self.groups)

    def _set(self, t) -> "Observations":
        """Set ``t`` (an int) or the stack of sets ``t`` (a slice or an index array), unchecked."""
        return Observations._of_rows(self.tau_a[t], self.tau_b[t], self.dir_a[t], self.dir_b[t],
                                     self.observer, groups=self.groups)


@dataclass(frozen=True)
class Scenario:
    """Ground-truth geometry: node positions plus a consistent MPC set.

    ``mpcs`` is one ``Observations`` set or stack whose delays must be positive;
    ``k_per_observer`` recovers the per-observer group sizes K_1..K_M.
    """

    pos_a: np.ndarray
    pos_b: np.ndarray
    mpcs: Observations

    def __post_init__(self):
        object.__setattr__(self, "pos_a", np.asarray(self.pos_a, dtype=float))
        object.__setattr__(self, "pos_b", np.asarray(self.pos_b, dtype=float))
        if not ((self.mpcs.tau_a > 0).all() and (self.mpcs.tau_b > 0).all()):
            raise DegenerateGeometry("MPC delays must be positive")

    @property
    def d_vec(self) -> np.ndarray:
        return self.pos_b - self.pos_a

    @property
    def d(self) -> float:
        return float(np.sqrt(self.d_vec.dot(self.d_vec)))  # np.linalg.norm's bits

    @property
    def k_total(self) -> int:
        return len(self.mpcs)

    def k_per_observer(self) -> dict:
        return {o: rows.size for o, rows in self.mpcs.groups.items()}

    def validate(self) -> None:
        """Check every MPC of the set or stack against the vector identity and the delay bound,
        each to 1e-9 m; the first bad row is named as (observer, position in its group)."""
        m = self.mpcs
        off_identity = norms(vector_identity_terms(m) - self.d_vec) > _VALIDATE_TOL
        off_bound = np.abs(_C * (m.tau_b - m.tau_a)) > self.d + _VALIDATE_TOL
        bad = np.flatnonzero(off_identity | off_bound)
        if bad.size:
            row = bad[0] % len(m)  # its row within its set
            name = f"MPC ({m.observer[row]},{positions_in_group(m.observer)[row]})"
            if off_identity.flat[bad[0]]:
                raise DegenerateGeometry(f"{name} violates the vector identity")
            raise DegenerateGeometry(f"{name} violates the delay-difference bound")


def complete_mpc(pos_a, pos_b, tau_a, dir_a):
    """Fill in the B-side delays and directions from the A-side ones, row by row.

    ``tau_a`` (K,) or (T, K) and ``dir_a`` (K, 3) or (T, K, 3) in; ``(tau_b,
    dir_b, degenerate)`` out, with ``degenerate`` flagging the rows whose virtual source
    coincides with node B (their B side is meaningless).  The virtual source
    sits at ``pos_a - c*tau_a*dir_a``; the B-side leg is the vector from
    there to ``pos_b``, i.e. ``d + c*tau_a*dir_a``.
    """
    d = np.asarray(pos_b, dtype=float) - np.asarray(pos_a, dtype=float)
    leg_b = d + _C * np.asarray(tau_a, dtype=float)[..., None] * np.asarray(dir_a, dtype=float)
    norm_b = norms(leg_b)
    degenerate = norm_b < _COINCIDENCE_EPS
    return norm_b / _C, leg_b / np.maximum(norm_b, _COINCIDENCE_EPS)[..., None], degenerate


def vector_identity_terms(observations) -> np.ndarray:
    """The (K, 3) terms c*tau_b*dir_b - c*tau_a*dir_a of the per-MPC vector identity,
    each equal to d plus the MPC's clock-offset terms ((T, K, 3) for a stack)."""
    return (_C * observations.tau_b[..., None] * observations.dir_b
            - _C * observations.tau_a[..., None] * observations.dir_a)


def projection_residual(mpcs, d) -> np.ndarray:
    """Per-row residual of the projection identity, in meters.

    Returns ``(dir_a + dir_b)^T d - c*(tau_b - tau_a)*(1 + dir_a^T dir_b)``,
    which is zero (to float precision) for any geometrically consistent MPC.
    """
    cos_ab = np.einsum("ij,ij->i", mpcs.dir_a, mpcs.dir_b)
    lhs = (mpcs.dir_a + mpcs.dir_b) @ np.asarray(d, dtype=float)
    return lhs - _C * (mpcs.tau_b - mpcs.tau_a) * (1.0 + cos_ab)


def pwa_residual(mpcs, d) -> np.ndarray:
    """Per-row plane-wave-assumption residual ``dir_a^T d - c*(tau_b - tau_a)``
    in meters.

    Diagnostic only: small when the node separation is much shorter than the
    path length, not zero in general.
    """
    return mpcs.dir_a @ np.asarray(d, dtype=float) - _C * (mpcs.tau_b - mpcs.tau_a)
