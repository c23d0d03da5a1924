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
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, InvalidParams
from .geom import SPEED_OF_LIGHT, MpcTrue, Scenario, complete_mpc, group_by_observer, is_unit

# Calibrated shape fractions (in units of cluster_mean / ray_mean):
# dominant-cluster onset = floor + exponential tail; the follow-up cluster
# trails by an exponential gap; ray offsets are a tempered fraction of the
# decay-tilted ray scale.
_ONSET_FLOOR_FRAC = 0.635
_ONSET_TAIL_FRAC = 0.905
_SECOND_CLUSTER_GAP_FRAC = 1.25
_RAY_TEMPER_FRAC = 0.6


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
            if getattr(self, name) <= 0:
                raise InvalidParams(f"{name} must be positive")

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
        if self.sigma < 0 or self.sigma_dir < 0:
            raise InvalidParams("noise std devs must be nonnegative")
        object.__setattr__(self, "eps_a_per_observer", tuple(self.eps_a_per_observer))


@dataclass(frozen=True)
class MpcObservation:
    """Measured delays and directions of one MPC at both nodes.

    Delays must be finite; zero and negative values are accepted, since a
    measured delay carries an arbitrary clock offset.
    """

    tau_a_meas: float
    tau_b_meas: float
    dir_a_meas: np.ndarray
    dir_b_meas: np.ndarray
    observer_id: int = 0
    mpc_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dir_a_meas", np.asarray(self.dir_a_meas, dtype=float))
        object.__setattr__(self, "dir_b_meas", np.asarray(self.dir_b_meas, dtype=float))
        if not (math.isfinite(self.tau_a_meas) and math.isfinite(self.tau_b_meas)):
            raise InvalidParams("measured delays must be finite")
        if not (is_unit(self.dir_a_meas) and is_unit(self.dir_b_meas)):
            raise InvalidParams("measured directions must be unit vectors")


def join_sides(a_side: MpcObservation, b_side: MpcObservation) -> MpcObservation:
    """The A-side delay and direction of ``a_side`` paired with the B-side
    delay and direction of ``b_side``, under ``a_side``'s observer and MPC ids."""
    return MpcObservation(
        tau_a_meas=a_side.tau_a_meas,
        tau_b_meas=b_side.tau_b_meas,
        dir_a_meas=a_side.dir_a_meas,
        dir_b_meas=b_side.dir_b_meas,
        observer_id=a_side.observer_id,
        mpc_id=a_side.mpc_id,
    )


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
    follow_up = np.arange(count) >= (count - count // 4)
    gap = rng.exponential(params.second_cluster_gap)
    rays = rng.exponential(params.ray_scale, size=count)
    return onset + follow_up * gap + rays


def sample_unit_directions(rng, n: int) -> np.ndarray:
    """n unit vectors uniform on the 3D sphere, shape (n, 3)."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_scenario(d: float, params: SvParams, m_observers: int,
                    k_per_observer, rng_seed, c: float = SPEED_OF_LIGHT) -> Scenario:
    """Draw a full scenario: node A at the origin, node B at (d, 0, 0).

    Per observer, K_o excess delays come from one channel draw and the
    A-side directions are uniform on the sphere; the B-side parameters
    follow from the virtual-source geometry.  Degenerate draws (virtual
    source on node B) are resampled up to 100 times.
    """
    if d < 0:
        raise InvalidParams("d must be nonnegative")
    if m_observers < 1:
        raise InvalidParams("m_observers must be >= 1")
    if np.isscalar(k_per_observer):
        k_per_observer = [int(k_per_observer)] * m_observers
    k_per_observer = [int(k) for k in k_per_observer]
    if len(k_per_observer) != m_observers or any(k < 1 for k in k_per_observer):
        raise InvalidParams("k_per_observer must give a positive count per observer")

    rng = _as_rng(rng_seed)
    pos_a = np.zeros(3)
    pos_b = np.array([d, 0.0, 0.0])
    mpcs = []
    for o, k_o in enumerate(k_per_observer):
        excess = sample_excess_delays(params, k_o, rng)
        dirs = sample_unit_directions(rng, k_o)
        for k in range(k_o):
            tau_a = params.tau_min + excess[k]
            dir_a = dirs[k]
            for attempt in range(100):
                try:
                    mpc = complete_mpc(pos_a, pos_b, tau_a, dir_a, c,
                                       observer_id=o, mpc_id=k)
                    break
                except DegenerateGeometry:
                    tau_a = params.tau_min + sample_excess_delays(params, 1, rng)[0]
                    dir_a = sample_unit_directions(rng, 1)[0]
            else:
                raise DegenerateGeometry("could not draw a non-degenerate MPC")
            mpcs.append(mpc)
    return Scenario(pos_a=pos_a, pos_b=pos_b, mpcs=tuple(mpcs), c=c)


def perturb_direction(rng, direction: np.ndarray, sigma_dir: float) -> np.ndarray:
    """Rotate ``direction`` by an angle ~ N(0, sigma_dir^2) about a uniformly
    random in-plane axis (uniform on the error cone)."""
    if sigma_dir == 0.0:
        return np.array(direction, dtype=float)
    u = np.asarray(direction, dtype=float)
    alpha = rng.normal(0.0, sigma_dir)
    helper = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    axis = np.cos(phi) * e1 + np.sin(phi) * e2
    out = np.cos(alpha) * u + np.sin(alpha) * axis
    return out / np.linalg.norm(out)


def observe(scenario: Scenario, noise: NoiseParams, rng_seed) -> list:
    """Apply the measurement model to a scenario.

    Per side, delays get N(0, sigma^2/2) noise plus the relevant clock
    offset (A side: eps_a of its observer; B side: eps_a + eps).  Directions
    are cone-perturbed by sigma_dir.  Association order is preserved.
    """
    rng = _as_rng(rng_seed)
    m = len(scenario.observer_ids)
    eps_a = noise.eps_a_per_observer
    if len(eps_a) == 0:
        eps_a = (0.0,) * m
    if len(eps_a) != m:
        raise InvalidParams("eps_a_per_observer length must equal the observer count")
    eps_a_by_id = dict(zip(scenario.observer_ids, eps_a))

    side_sigma = noise.sigma / np.sqrt(2.0)
    out = []
    for mpc in scenario.mpcs:
        e_a = eps_a_by_id[mpc.observer_id]
        e_b = e_a + noise.eps
        tau_a = mpc.tau_a + (rng.normal(0.0, side_sigma) if side_sigma > 0 else 0.0) + e_a
        tau_b = mpc.tau_b + (rng.normal(0.0, side_sigma) if side_sigma > 0 else 0.0) + e_b
        out.append(MpcObservation(
            tau_a_meas=tau_a,
            tau_b_meas=tau_b,
            dir_a_meas=perturb_direction(rng, mpc.dir_a, noise.sigma_dir),
            dir_b_meas=perturb_direction(rng, mpc.dir_b, noise.sigma_dir),
            observer_id=mpc.observer_id,
            mpc_id=mpc.mpc_id,
        ))
    return out


def scramble_association(observations, rng_seed):
    """Permute the B-side fields uniformly at random within each observer.

    Returns ``(scrambled, perms)`` where ``perms[o]`` maps scrambled index i
    to the original index ``perms[o][i]`` within observer o's group, for
    scoring reconstructed associations against the truth.
    """
    rng = _as_rng(rng_seed)
    joined, perms = {}, {}
    for o, group in group_by_observer(observations).items():
        perm = rng.permutation(len(group))
        perms[o] = perm
        joined[o] = iter([join_sides(a_side, group[src]) for a_side, src in zip(group, perm)])
    # the i-th joined row of an observer goes where its i-th input row was
    scrambled = [next(joined[ob.observer_id]) for ob in observations]
    return scrambled, perms


_CSV_COLUMNS = [
    "observer", "mpc", "tau_a_true", "tau_b_true",
    "sax", "say", "saz", "sbx", "sby", "sbz",
    "tau_a_meas", "tau_b_meas",
    "max", "may", "maz", "mbx", "mby", "mbz",
]


def scenario_csv(scenario: Scenario, observations) -> str:
    """Render a scenario and its observations as CSV (one row per MPC)."""
    if len(observations) != len(scenario.mpcs):
        raise InvalidParams("observation count must match the scenario MPC count")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    for mpc, ob in zip(scenario.mpcs, observations):
        w.writerow([
            mpc.observer_id, mpc.mpc_id,
            f"{mpc.tau_a:.12e}", f"{mpc.tau_b:.12e}",
            *(f"{x:.12e}" for x in mpc.dir_a),
            *(f"{x:.12e}" for x in mpc.dir_b),
            f"{ob.tau_a_meas:.12e}", f"{ob.tau_b_meas:.12e}",
            *(f"{x:.12e}" for x in ob.dir_a_meas),
            *(f"{x:.12e}" for x in ob.dir_b_meas),
        ])
    return buf.getvalue()


def _as_rng(rng_seed) -> np.random.Generator:
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)
