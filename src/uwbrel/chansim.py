"""Stochastic scenario generation: clustered indoor excess delays, uniform
3D directions, delay/direction measurement noise, clock offsets, and
association scrambling.

Excess delays follow a clustered profile in the Saleh-Valenzuela family:
per channel a dominant-cluster onset is drawn, most extracted rays sit
tightly inside that cluster (power-weighted ray offsets), and roughly a
quarter of them spill into a follow-up cluster one inter-cluster gap
later.  The fractions below are calibrated so the sampled profile
reproduces the standard dense-indoor statistics of roughly 40 ns mean
excess delay and 26 ns RMS delay spread for the default parameters
(20 ns cluster scale, 10 ns ray scale, 60 ns / 20 ns power decays).

A scenario's ground truth and what the nodes measure are the same
columnar type, ``geom.Observations`` (re-exported here): five columns, one
row per MPC, checked where the set enters (scrambling takes rows of a checked
set).  ``observe`` adds drawn noise and clock offsets to the truth columns.
Per-observer work (sampling, clock offsets, scrambling) reads them via the set's
``groups`` (``geom.group_by_observer``'s index arrays), observers in order
of first appearance.
"""

from __future__ import annotations

import io
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, InvalidParams
from .geom import Observations, Scenario, complete_mpc, norms, positions_in_group

# Calibrated shape fractions (in units of cluster_mean / ray_mean):
# dominant-cluster onset = floor + exponential tail; the follow-up cluster
# trails by an exponential gap; ray offsets are a tempered fraction of the
# decay-tilted ray scale.
_ONSET_FLOOR_FRAC = 0.635
_ONSET_TAIL_FRAC = 0.905
_SECOND_CLUSTER_GAP_FRAC = 1.25
_RAY_TEMPER_FRAC = 0.6
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # np.cross's component order


@dataclass(frozen=True)
class SvParams:
    """Clustered-channel parameters (seconds / 1-per-second)."""

    cluster_mean: float = 20e-9
    ray_mean: float = 10e-9
    cluster_decay: float = 1.0 / 60e-9
    ray_decay: float = 1.0 / 20e-9
    tau_min: float = 16.7e-9

    def __post_init__(self):
        for name in ("cluster_mean", "ray_mean", "cluster_decay", "ray_decay", "tau_min"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise InvalidParams(f"{name} must be finite and positive")

    @property
    def ray_scale(self) -> float:
        """Intra-cluster ray delay scale: the decay-tilted arrival scale
        (arrival density times exponential power decay), tempered by the
        calibrated fraction."""
        return _RAY_TEMPER_FRAC / (1.0 / self.ray_mean + self.ray_decay)

    @property
    def onset_floor(self) -> float:
        return _ONSET_FLOOR_FRAC * self.cluster_mean

    @property
    def onset_tail(self) -> float:
        return _ONSET_TAIL_FRAC * self.cluster_mean

    @property
    def second_cluster_gap(self) -> float:
        return _SECOND_CLUSTER_GAP_FRAC * self.cluster_mean


@dataclass(frozen=True)
class NoiseParams:
    """Measurement-noise and clock-offset parameters.

    sigma is the std dev of the per-MPC delay-difference error (each side
    contributes N(0, sigma^2/2)); sigma_dir the angular error std dev in
    radians.  eps is the A-to-B clock offset; the B-side offset of observer
    o is ``eps_a_per_observer[o] + eps`` so that measured delay differences
    come out as true difference + noise + eps.
    """

    sigma: float = 0.0
    sigma_dir: float = 0.0
    eps: float = 0.0
    eps_a_per_observer: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not (0.0 <= self.sigma < np.inf and 0.0 <= self.sigma_dir < np.inf):
            raise InvalidParams("noise std devs must be finite and nonnegative")
        object.__setattr__(self, "eps_a_per_observer", tuple(self.eps_a_per_observer))
        if not np.isfinite([self.eps, *self.eps_a_per_observer]).all():
            raise InvalidParams("clock offsets eps and eps_a_per_observer must be finite")


def sample_excess_delays(params: SvParams, count: int, rng_seed) -> np.ndarray:
    """Draw ``count`` excess delays (seconds, before adding tau_min) for one channel.

    One dominant-cluster onset is drawn per call and most rays sit tightly
    inside that cluster; the trailing quarter of the rays (none for fewer
    than four) belong to a follow-up cluster one exponential gap later.
    Delays within a call are therefore clustered while the marginal over
    calls reproduces the calibrated profile statistics.  Deterministic for
    a given seed.
    """
    if count < 1:
        raise InvalidParams("count must be >= 1")
    rng = _as_rng(rng_seed)
    onset = params.onset_floor + rng.exponential(params.onset_tail)
    gap = rng.exponential(params.second_cluster_gap)
    rays = rng.exponential(params.ray_scale, size=count)
    return rays + np.where(np.arange(count) < count - count // 4, onset, onset + gap)


def sample_unit_directions(rng, n: int) -> np.ndarray:
    """n unit vectors uniform on the 3D sphere, shape (n, 3)."""
    v = rng.normal(size=(n, 3))
    return v / np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))  # np.linalg.norm's bits


def sample_scenario(d: float, params: SvParams, m_observers: int,
                    k_per_observer, rng_seed) -> Scenario:
    """Draw a full scenario: node A at the origin, node B at (d, 0, 0).

    Per observer, K_o excess delays come from one channel draw and the
    A-side directions are uniform on the sphere; the B-side parameters
    follow from the virtual-source geometry, all rows at once.  A row whose
    virtual source lands on node B is redrawn on its own (one excess delay,
    one direction), rows in order, up to 100 attempts per MPC.  Counts must
    be Python or numpy integers.
    """
    if not 0.0 <= d < np.inf:
        raise InvalidParams("d must be finite and nonnegative")
    m_observers = _count(m_observers, "m_observers")
    if m_observers < 1:
        raise InvalidParams("m_observers must be >= 1")
    if np.isscalar(k_per_observer):
        k_per_observer = [k_per_observer] * m_observers
    k_per_observer = [_count(k, "k_per_observer") for k in k_per_observer]
    if len(k_per_observer) != m_observers or any(k < 1 for k in k_per_observer):
        raise InvalidParams("k_per_observer must give a positive count per observer")

    rng = _as_rng(rng_seed)
    pos_a = np.zeros(3)
    pos_b = np.array([d, 0.0, 0.0])
    columns = []  # (tau_a, tau_b, dir_a, dir_b) per observer
    for k_o in k_per_observer:
        tau_a = params.tau_min + sample_excess_delays(params, k_o, rng)
        dir_a = sample_unit_directions(rng, k_o)
        tau_b, dir_b, degenerate = complete_mpc(pos_a, pos_b, tau_a, dir_a)
        # redraw the flagged rows in row order; the batch draw was attempt 1 of 100
        for k in np.flatnonzero(degenerate) if degenerate.any() else ():
            for _ in range(99):
                tau_a[k] = params.tau_min + sample_excess_delays(params, 1, rng)[0]
                dir_a[k] = sample_unit_directions(rng, 1)[0]
                tau_b[k], dir_b[k], flagged = complete_mpc(pos_a, pos_b, tau_a[k], dir_a[k])
                if not flagged:
                    break
            else:
                raise DegenerateGeometry("could not draw a non-degenerate MPC")
        columns.append((tau_a, tau_b, dir_a, dir_b))
    tau_a, tau_b, dir_a, dir_b = (np.concatenate(side) for side in zip(*columns))
    observer = np.repeat(np.arange(m_observers), k_per_observer)
    return Scenario(pos_a=pos_a, pos_b=pos_b, mpcs=Observations(
        tau_a=tau_a, tau_b=tau_b, dir_a=dir_a, dir_b=dir_b, observer=observer))


def _cross(a, b) -> np.ndarray:
    """``np.cross`` of the rows of ``a`` and ``b`` (K, 3): its bits, not its overhead."""
    return a.take(_NEXT, 1) * b.take(_PREV, 1) - a.take(_PREV, 1) * b.take(_NEXT, 1)


def perturb_direction(directions, alpha, phi) -> np.ndarray:
    """Rotate every row of ``directions`` (K, 3) by the angle ``alpha[k]``
    about the in-plane axis at azimuth ``phi[k]``; with alpha ~ N(0,
    sigma_dir^2) and phi ~ U(0, 2 pi) the result is uniform on the error cone."""
    u = np.asarray(directions, dtype=float)
    helper = np.where(np.abs(u[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    e1 = _cross(u, helper)
    e1 /= norms(e1)[:, None]
    e2 = _cross(u, e1)
    axis = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    out = np.cos(alpha)[:, None] * u + np.sin(alpha)[:, None] * axis
    return out / norms(out)[:, None]


def observe(scenario: Scenario, noise: NoiseParams, rng_seed) -> Observations:
    """Apply the measurement model to a scenario.

    Per side, delays get N(0, sigma^2/2) noise plus the relevant clock
    offset (A side: eps_a of its observer; B side: eps_a + eps).  Directions
    are cone-perturbed by sigma_dir.  Association order is preserved.
    """
    rng = _as_rng(rng_seed)
    truth = scenario.mpcs
    groups = truth.groups
    eps_a = noise.eps_a_per_observer or (0.0,) * len(groups)
    if len(eps_a) != len(groups):
        raise InvalidParams("eps_a_per_observer length must equal the observer count")
    e_a = np.empty(len(truth))
    for e, rows in zip(eps_a, groups.values()):
        e_a[rows] = e

    # the scalars are drawn MPC by MPC in the stream's fixed order: tau_a
    # noise, tau_b noise, then (alpha, phi) for dir_a and for dir_b; with
    # direction noise the normal and uniform draws interleave, so a loop draws them
    side_sigma = noise.sigma / np.sqrt(2.0)
    draws = np.zeros((len(truth), 6))
    if noise.sigma_dir > 0:
        for row in draws:
            if side_sigma > 0:
                row[:2] = rng.normal(0.0, side_sigma), rng.normal(0.0, side_sigma)
            for j in (2, 4):
                row[j:j + 2] = rng.normal(0.0, noise.sigma_dir), rng.uniform(0.0, 2.0 * np.pi)
    elif side_sigma > 0:  # normals only: one batch draw is the same stream
        draws[:, :2] = rng.normal(0.0, side_sigma, size=(len(truth), 2))

    dir_a, dir_b = truth.dir_a, truth.dir_b
    if noise.sigma_dir > 0:
        dir_a = perturb_direction(dir_a, draws[:, 2], draws[:, 3])
        dir_b = perturb_direction(dir_b, draws[:, 4], draws[:, 5])
    return Observations(tau_a=truth.tau_a + draws[:, 0] + e_a,
                        tau_b=truth.tau_b + draws[:, 1] + (e_a + noise.eps),
                        dir_a=dir_a, dir_b=dir_b, observer=truth.observer)


def scramble_sources(groups, rng_seed):
    """The draw of ``scramble_association`` for a set of observer ``groups``:
    ``(source, perms)``, scrambled row i taking its B side from row ``source[i]``."""
    rng = _as_rng(rng_seed)
    source = np.arange(sum(rows.size for rows in groups.values()))
    perms = {}
    for o, rows in groups.items():
        perms[o] = rng.permutation(rows.size)
        source[rows] = rows[perms[o]]
    return source, perms


def scramble_association(observations: Observations, rng_seed):
    """Permute the B-side columns uniformly at random within each observer.

    Returns ``(scrambled, perms)`` where ``perms[o]`` maps scrambled index i
    to the original index ``perms[o][i]`` within observer o's group, for
    scoring reconstructed associations against the truth.
    """
    source, perms = scramble_sources(observations.groups, rng_seed)
    return observations._with_b(source, observations.groups), perms


_CSV_COLUMNS = [
    "observer", "mpc", "tau_a_true", "tau_b_true",
    "sax", "say", "saz", "sbx", "sby", "sbz",
    "tau_a_meas", "tau_b_meas",
    "max", "may", "maz", "mbx", "mby", "mbz",
]


def scenario_csv(scenario: Scenario, observations: Observations) -> str:
    """Render a scenario and its observations as CSV (one row per MPC; ``mpc``
    is the row's position within its observer group)."""
    truth = scenario.mpcs
    if len(observations) != len(truth):
        raise InvalidParams("observation count must match the scenario MPC count")
    table = np.column_stack([truth.observer, positions_in_group(truth.observer),
                             truth.tau_a, truth.tau_b, truth.dir_a, truth.dir_b,
                             observations.tau_a, observations.tau_b,
                             observations.dir_a, observations.dir_b])
    buf = io.StringIO()
    np.savetxt(buf, table, fmt=["%d", "%d"] + ["%.12e"] * 16, delimiter=",",
               header=",".join(_CSV_COLUMNS), comments="")
    return buf.getvalue()


def _count(value, name: str) -> int:
    """``value`` as an int when it is a Python or numpy integer; any other
    type, a float such as 4.5 or 4.0 included, raises InvalidParams instead
    of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParams(f"{name}: {value!r} is not an integer count") from None


def _as_rng(rng_seed) -> np.random.Generator:
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)
