"""Monte-Carlo evaluation harness and command-line interface.

Subcommands: ``sweep`` (RMSE vs distance / direction error / MPC count), ``surface``
(likelihood grid dump), ``calibrate`` (channel-statistics check), ``scenario-dump`` (one
sampled scenario as CSV).  All output is CSV with SI units; a run is fully determined by its
configuration and seed, with per-trial RNG streams derived from (seed, sweep point, trial).
The channel profile (``chansim.SvParams()``) and the per-observer clock offsets' range,
U(0, ``EPS_A_MAX``), are fixed values, not settings.
Each sweep tag is one row of ``_ESTIMATORS``.  A sweep point runs in two passes.  Pass 1
draws per trial; each pairing is then a gather of the point's stack of observations.  Pass 2
runs each tag once on its pairing's sets of the trials below its cap (NA set by set, the
others on a ``Stack``, with ``cfg.cond_gate`` as their condition limit): each trial keeps
its own failures and the bits it has alone.  A reducer adds the outcomes up per tag in
trial order.  Config-file keys are the long flags' names.
"""

from __future__ import annotations

import argparse
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import assoc, chansim, distest, posest
from .errors import ConfigError, DegenerateGeometry, InvalidParams, UwbrelError
from .geom import SPEED_OF_LIGHT, Observations, Scenario, Stack, complete_mpc, norms
from .likelihood import ErrorModel

SURFACE_KINDS = ("known", "noassoc")
SURFACE_SCENARIOS = ("canonical", "random")

CAL_TARGET_MEAN = 40.5e-9
CAL_TARGET_RMS = 26.3e-9
CAL_REL_BAND = 0.10

DEFAULT_COND_GATE = 1e5  # trial-validity gate on the reported condition number
EPS_A_MAX = 100e-9  # s; a trial's per-observer clock offsets are drawn from U(0, EPS_A_MAX)
_CHANNEL = chansim.SvParams()  # the channel profile of every sweep, dump and calibration


@dataclass(frozen=True)
class ExperimentConfig:
    sweep: str = "distance"                  # distance | direction_error | mpc_count
    d: tuple = (2.0,)                        # meters (sweep values when sweep=distance)
    sigma: float = 0.2e-9                    # seconds
    sigma_dir: tuple = (0.0,)                # radians (sweep values when sweep=direction_error)
    m_observers: int = 3
    k_per_observer: tuple = (4,)             # sweep values when sweep=mpc_count
    trials: int = 1000
    trials_na: int = 200
    seed: int = 0
    estimators: tuple = ("MV", "SO", "DD", "PWA", "TAU")
    eps: float = 5e-9                        # seconds
    cond_gate: float = DEFAULT_COND_GATE
    surface_kind: str = "known"              # known | noassoc
    surface_scenario: str = "canonical"      # canonical | random
    grid_steps: int = 200
    calib_samples: int = 1_000_000
    output_path: str = "-"

    def validate(self) -> None:
        if self.sweep not in (*_SWEEP_FIELDS, "surface", "calibrate"):
            raise ConfigError(f"unknown sweep {self.sweep!r}")
        ranges = (*_SWEEP_FIELDS.values(), "estimators")  # a scalar or a string is not one
        for name in (*ranges, "sigma", "eps", "cond_gate"):
            value, want = getattr(self, name), "a tuple or list" if name in ranges else "a number"
            if not isinstance(value, (tuple, list) if name in ranges else numbers.Real):
                raise ConfigError(f"{name} takes {want}, not {value!r}")
        for name in ("d", "sigma_dir"):
            if not all(isinstance(v, numbers.Real) for v in getattr(self, name)):
                raise ConfigError(f"{name} takes numbers, not {getattr(self, name)!r}")
        try:  # counts are integers as chansim takes them: 2.5 and 4.0 are not
            for name in ("trials", "trials_na", "seed", "m_observers", "grid_steps",
                         "calib_samples"):
                chansim._count(getattr(self, name), name)
            for k in self.k_per_observer:
                chansim._count(k, "k_per_observer")
        except InvalidParams as exc:
            raise ConfigError(str(exc)) from None
        if self.trials < 1 or self.trials_na < 1:
            raise ConfigError("trials must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, not {self.seed}")
        if not self.d or not self.sigma_dir or not self.k_per_observer:
            raise ConfigError("sweep ranges must be nonempty")
        if not all(0.0 <= v < np.inf for v in (*self.d, self.sigma, *self.sigma_dir)):
            raise ConfigError("distances and noise levels must be finite and nonnegative")
        if not (np.isfinite(self.eps) and self.cond_gate > 0):
            raise ConfigError("eps must be finite and cond_gate positive")
        if self.m_observers < 1 or any(k < 1 for k in self.k_per_observer):
            raise ConfigError("observer and MPC counts must be positive")
        bad = [t for t in self.estimators if t not in ESTIMATOR_TAGS]
        if bad:
            raise ConfigError(f"unknown estimator tags {bad}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ConfigError(f"estimator tags repeat in {list(self.estimators)}")
        if self.surface_kind not in SURFACE_KINDS:
            raise ConfigError(f"surface kind must be {' or '.join(SURFACE_KINDS)}")
        if self.surface_scenario not in SURFACE_SCENARIOS:
            raise ConfigError(f"surface scenario must be {' or '.join(SURFACE_SCENARIOS)}")
        if self.grid_steps < 2 or self.calib_samples < 1:
            raise ConfigError("grid_steps must be >= 2 and calib_samples >= 1")


@dataclass(frozen=True)
class SweepResult:
    sweep_param: str
    rows: tuple  # dicts: value, estimator, trials, failures, rmse_m, mean_err_m

    def to_csv(self) -> str:
        return "sweep_param,value,estimator,trials,failures,rmse_m,mean_err_m\n" + "".join(
            f"{self.sweep_param},{r['value']:.9g},{r['estimator']},"
            f"{r['trials']},{r['failures']},{r['rmse_m']:.9g},{r['mean_err_m']:.9g}\n"
            for r in self.rows)

    def lookup(self, value: float, estimator: str) -> dict:
        for r in self.rows:
            if r["estimator"] == estimator and np.isclose(r["value"], value):
                return r
        raise KeyError((value, estimator))


def _trial_rng(seed: int, point: int, trial: int, stream: int) -> np.random.Generator:
    """``np.random.default_rng([seed, point, trial, stream])``, given as the uint32 words
    (low first, at least one per int) that SeedSequence would coerce that list to."""
    ints = (seed, point, trial, stream)
    words = ints if max(ints) >> 32 == 0 else [
        n >> shift & 0xFFFFFFFF for n in ints for shift in range(0, max(n.bit_length(), 1), 32)]
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def _error_model(sigma: float) -> ErrorModel:
    """Gaussian delay-difference errors of std ``sigma``, or none when it is 0."""
    return (ErrorModel(kind="gaussian", sigma_per_mpc=sigma)
            if sigma > 0 else ErrorModel(kind="none"))


def _solve(method: str, sets, cfg: ExperimentConfig) -> tuple:
    """One-set estimator ``method`` on every set: (values, ..., failures), the distances (T,)
    or solutions (T, p) and each set's UwbrelError or None.  NA runs on each of a list of
    sets alone, the others once on a ``Stack``, with ``cfg.cond_gate`` as the condition limit."""
    if method == "mle_async_noassoc":
        d, failures = np.full(len(sets), np.nan), [None] * len(sets)
        for i, obs in enumerate(sets):
            try:
                d[i] = distest.mle_async_noassoc(obs, _error_model(cfg.sigma)).d_hat
            except UwbrelError as exc:
                failures[i] = exc
        return d, failures
    if method == "mvue_async":
        return distest.mvue_async_stack(sets)[0], [None] * len(sets.tau_a)
    limit = min(cfg.cond_gate, posest.COND_LIMIT)
    return (posest.solve_by_tau(sets, limit) if method == "lse_by_tau"
            else posest.solve_by_delta(sets, method, limit))


# One row per sweep tag (the estimator's name in the CSV): the pairing it reads (a complete
# assignment keeps its gated pairs: their errors are part of the association-quality
# measurement, not excluded trials), the one-set estimator that ``_solve`` runs on it, and
# the ExperimentConfig field that caps its trials.  NA reads each scrambled set alone.
# Solvers and ``assoc.associate_stack`` are looked up on their modules at every call, so a
# patched module attribute (as a tracer installs) is what runs.
_ESTIMATORS = {
    "MV": ("observed", "mvue_async", "trials"),
    "NA": ("scrambled", "mle_async_noassoc", "trials_na"),
    "SO": ("sorted", "mvue_async", "trials"),
    "DD": ("observed", "lse_by_delta", "trials"),
    "PWA": ("observed", "lse_by_delta_pwa", "trials"),
    "DDN": ("assigned", "lse_by_delta", "trials"),
    "TAU": ("observed", "lse_by_tau", "trials"),
    "TNA": ("assigned", "lse_by_tau", "trials"),
}
ESTIMATOR_TAGS = tuple(_ESTIMATORS)
# the ExperimentConfig field each sweep steps through
_SWEEP_FIELDS = {"distance": "d", "direction_error": "sigma_dir", "mpc_count": "k_per_observer"}


def _run_point(cfg: ExperimentConfig, point: int, trials) -> list:
    """``run_trial`` of each of ``trials`` (ascending) at the sweep's ``point``-th value, in
    the two passes the module docstring describes; the trials share K and the observer layout."""
    swept = _SWEEP_FIELDS[cfg.sweep]
    d, sigma_dir, k_per = (getattr(cfg, name)[point] if name == swept else _single(cfg, name)
                           for name in ("d", "sigma_dir", "k_per_observer"))
    drawn = []  # (scenario, observations) of each trial
    for trial in trials:
        scenario = chansim.sample_scenario(d, _CHANNEL, cfg.m_observers, [k_per] * cfg.m_observers,
                                           _trial_rng(cfg.seed, point, trial, 0))
        noise_rng = _trial_rng(cfg.seed, point, trial, 1)
        offsets = tuple(noise_rng.uniform(0.0, EPS_A_MAX, cfg.m_observers))
        drawn.append((scenario, chansim.observe(scenario, chansim.NoiseParams(
            sigma=cfg.sigma, sigma_dir=sigma_dir, eps=cfg.eps, eps_a_per_observer=offsets),
            noise_rng)))
    scenarios, observed = zip(*drawn)
    groups = observed[0].groups  # the observer layout every trial shares
    scrambled = any(_ESTIMATORS[tag][0] != "observed" for tag in cfg.estimators)
    sources, perms = zip(*(chansim.scramble_sources(groups, _trial_rng(cfg.seed, point, trial, 2))
                           if scrambled else (None, None) for trial in trials))
    sources = np.array(sources)  # (T, K) when scrambled
    stacks = {}  # each pairing's stack of the first n trials, by (pairing, n)

    def paired(pairing, n):
        """The pairing's stack of the first n trials, a gather of their observed stack."""
        if (pairing, n) not in stacks and pairing == "observed":
            stacks[pairing, n] = Stack.of(observed[:n])
        elif (pairing, n) not in stacks:
            stack, scrambles = paired("observed", n), sources[:n]
            if pairing != "scrambled":  # re-paired on the scrambled stack
                found = assoc.associate_stack(paired("scrambled", n), pairing == "sorted")
                scrambles = np.take_along_axis(scrambles, found, 1)
            stacks[pairing, n] = stack.paired(scrambles)
        return stacks[pairing, n]

    outcomes = [{} for _ in trials]
    for tag in cfg.estimators:
        pairing, method, cap = _ESTIMATORS[tag]
        n = sum(trial < getattr(cfg, cap) for trial in trials)  # the trials below the cap
        sets = ([obs._with_b(source, groups) for obs, source in zip(observed, sources[:n])]
                if method == "mle_async_noassoc" else paired(pairing, n))
        try:
            values, *_, failures = _solve(method, sets, cfg)
        except UwbrelError as exc:
            values, failures = np.full(n, np.nan), [exc] * n
        truth = [s.d if values.ndim == 1 else s.d_vec for s in scenarios[:n]]
        errors = values - truth if values.ndim == 1 else norms(values[:, :3] - truth)
        for out, failure, error in zip(outcomes, failures, errors.tolist()):
            out[tag] = error if failure is None else type(failure)
    return list(zip(outcomes, perms))


def _sweep_values(cfg: ExperimentConfig) -> tuple:
    """The values the sweep steps through; ``surface`` or ``calibrate`` raises ConfigError."""
    if cfg.sweep not in _SWEEP_FIELDS:
        raise ConfigError(f"{cfg.sweep!r} is not a sweep")
    return getattr(cfg, _SWEEP_FIELDS[cfg.sweep])


def run_trial(cfg: ExperimentConfig, point: int, trial: int):
    """Trial ``trial`` of a validated sweep at its ``point``-th value:
    ``(outcomes, perms)``, with each tag's error or the class of the
    UwbrelError it raised (tags past their trial cap are absent), and the
    true association ``chansim.scramble_association`` returns (or None),
    with the bits the trial has in a sweep."""
    if not (0 <= point < len(_sweep_values(cfg)) and 0 <= trial < cfg.trials):
        raise ConfigError(f"sweep point {point}, trial {trial} is outside the sweep")
    return _run_point(cfg, point, [trial])[0]


def _reduce(cfg: ExperimentConfig, value, outcomes) -> list:
    """One CSV row per tag from a sweep point's trial outcomes, added up in
    trial order."""
    rows = []
    for tag in cfg.estimators:
        got = [out[tag] for out in outcomes if tag in out]
        errs = np.asarray([e for e in got if not isinstance(e, type)], dtype=float)
        rows.append({
            "value": float(value), "estimator": tag, "trials": len(got),
            "failures": len(got) - errs.size,
            "rmse_m": float(np.sqrt(np.mean(errs ** 2))) if errs.size else float("nan"),
            "mean_err_m": float(np.mean(errs)) if errs.size else float("nan"),
        })
    return rows


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Monte-Carlo RMSE sweep over the configured parameter."""
    cfg.validate()
    rows = []
    for point, value in enumerate(_sweep_values(cfg)):
        rows += _reduce(cfg, value, [out for out, _ in _run_point(cfg, point, range(cfg.trials))])
    return SweepResult(sweep_param=cfg.sweep, rows=tuple(rows))


# --- surface dump --------------------------------------------------------

def canonical_scenario(d: float) -> Scenario:
    """Archetypal one-observer, three-path geometry (direct path, a mirror
    beyond node B, and a side reflection) whose hard-indicator likelihood
    peaks exactly at the true (d, eps)."""
    pos_a = np.zeros(3)
    pos_b = np.array([d, 0.0, 0.0])
    # the direct path from an observer placed behind A on the B-axis, a
    # reflection off a wall beyond B (virtual source past B on the axis) and
    # a generic side reflection
    tau_a = np.array([5.0, 9.0, 7.0]) / SPEED_OF_LIGHT
    dir_a = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    tau_b, dir_b, degenerate = complete_mpc(pos_a, pos_b, tau_a, dir_a)
    if degenerate.any():
        raise DegenerateGeometry("virtual source coincides with node B")
    return Scenario(pos_a=pos_a, pos_b=pos_b, mpcs=Observations(
        tau_a=tau_a, tau_b=tau_b, dir_a=dir_a, dir_b=dir_b, observer=np.zeros(3, dtype=int)))


def _single(cfg: ExperimentConfig, name: str):
    """The one value of a setting that is not swept; more raise ConfigError."""
    values = getattr(cfg, name)
    if len(values) != 1:
        raise ConfigError(f"{name} takes one value unless swept, not {len(values)}")
    return values[0]


def _one_scenario(cfg: ExperimentConfig) -> Scenario:
    """The scenario of a surface or scenario dump, drawn at the seed: one
    distance, and one MPC count for every observer or one per observer."""
    counts = list(cfg.k_per_observer)
    if len(counts) not in (1, cfg.m_observers):
        raise ConfigError(f"{len(counts)} MPC counts for {cfg.m_observers} observers")
    return chansim.sample_scenario(
        _single(cfg, "d"), _CHANNEL, cfg.m_observers,
        counts * cfg.m_observers if len(counts) == 1 else counts,
        np.random.default_rng([cfg.seed, 0]))


def _observe_dump(cfg: ExperimentConfig, scenario: Scenario, sigma_dir=0.0) -> Observations:
    """A surface's or scenario dump's observations of ``scenario``, drawn at the seed."""
    noise = chansim.NoiseParams(sigma=cfg.sigma, sigma_dir=sigma_dir, eps=cfg.eps)
    return chansim.observe(scenario, noise, np.random.default_rng([cfg.seed, 1]))


def dump_surface(cfg: ExperimentConfig) -> str:
    """Evaluate the (d, eps) log-likelihood on a grid; CSV ``d,eps,loglik``."""
    cfg.validate()
    if cfg.surface_scenario == "canonical":
        scenario = canonical_scenario(_single(cfg, "d"))
    else:
        scenario = _one_scenario(cfg)
    observations = _observe_dump(cfg, scenario)
    model = _error_model(cfg.sigma)
    delta = observations.tau_b - observations.tau_a
    d_max = max(4.0 * SPEED_OF_LIGHT * float(np.abs(delta).max()), 1e-3)
    d_grid = np.linspace(0.0, d_max, cfg.grid_steps)
    # keep the eps axis tight around the observed diffs: its resolution must
    # be fine enough (relative to the d step) to land inside the feasibility
    # wedge just above its apex
    spread = float(delta.max() - delta.min())
    e_pad = 0.05 * spread + 0.2e-9
    e_grid = np.linspace(delta.min() - e_pad, delta.max() + e_pad, cfg.grid_steps)
    loglik = (distest.loglik_known_assoc if cfg.surface_kind == "known"
              else distest.loglik_no_assoc)
    vals = loglik(observations, model, d_grid[:, None], e_grid[None, :])

    lines = (f"{dv:.9g},{ev:.9g},{v:.9g}\n"
             for dv, row in zip(d_grid, vals) for ev, v in zip(e_grid, row))
    return "d,eps,loglik\n" + "".join(lines)


# --- calibration ---------------------------------------------------------

def calibrate(cfg: ExperimentConfig) -> dict:
    """Empirical mean excess delay and RMS spread of the channel sampler,
    checked against the target indoor statistics with 10% bands."""
    cfg.validate()
    rng = np.random.default_rng([cfg.seed, 99])
    per_call = 4
    n_calls = int(np.ceil(cfg.calib_samples / per_call))
    chunks = [chansim.sample_excess_delays(_CHANNEL, per_call, rng)
              for _ in range(n_calls)]
    delays = np.concatenate(chunks)[: cfg.calib_samples]
    mean = float(delays.mean())
    rms = float(delays.std())
    report = {
        "samples": int(delays.size),
        "mean_excess_s": mean,
        "rms_spread_s": rms,
        "mean_target_s": CAL_TARGET_MEAN,
        "rms_target_s": CAL_TARGET_RMS,
        "mean_ok": abs(mean - CAL_TARGET_MEAN) <= CAL_REL_BAND * CAL_TARGET_MEAN,
        "rms_ok": abs(rms - CAL_TARGET_RMS) <= CAL_REL_BAND * CAL_TARGET_RMS,
    }
    report["passed"] = report["mean_ok"] and report["rms_ok"]
    return report


def _calibrate_csv(report: dict) -> str:
    """The report's keys as the header, in the order ``calibrate`` builds them."""
    return ",".join(report) + "\n" + ",".join(map(str, report.values())) + "\n"


# --- CLI -----------------------------------------------------------------

def _parse_values(text: str) -> tuple:
    """Parse '1,2,3' or 'start:stop:count' into a tuple of floats."""
    text = text.strip()
    if ":" in text:
        lo, hi, n = text.split(":")
        return tuple(np.linspace(float(lo), float(hi), int(n)))
    return tuple(float(v) for v in text.split(","))


def _count(value: float) -> int:
    """A whole-number value as an int; a fraction raises ValueError."""
    if not float(value).is_integer():
        raise ValueError(f"{value} is not a whole count")
    return int(value)


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


# (flag or config-file key, ExperimentConfig field, parser of its text, help, choices,
# readers).  A reader is a subcommand or a surface by its scenario (the canonical geometry
# fixes its observers and MPCs), and its last word is its subcommand.
_SURFACES = ("a canonical surface", "a random surface")
_GEOMETRY = ("sweep", *_SURFACES, "scenario-dump")
_DRAWN = ("sweep", "a random surface", "scenario-dump")
_FLAGS = (
    ("d", "d", _parse_values, "distance(s) in m: 'a,b,c' or 'lo:hi:n'", None, _GEOMETRY),
    ("sigma_ns", "sigma", lambda text: float(text) * 1e-9,
     "delay-difference error std dev [ns]", None, _GEOMETRY),
    ("sigma_dir_deg", "sigma_dir", lambda text: tuple(np.radians(v) for v in _parse_values(text)),
     "direction error std dev(s) [deg]", None, ("sweep", "scenario-dump")),
    ("observers", "m_observers", int, "number of observers M", None, _DRAWN),
    ("mpcs_per_observer", "k_per_observer", lambda text: tuple(map(_count, _parse_values(text))),
     "MPC count(s) per observer", None, _DRAWN),
    ("eps_ns", "eps", lambda text: float(text) * 1e-9, "A-B clock offset [ns]", None, _GEOMETRY),
    ("seed", "seed", int, "base RNG seed", None, (*_GEOMETRY, "calibrate")),
    ("out", "output_path", str, "output path ('-' for stdout)", None, (*_GEOMETRY, "calibrate")),
    ("sweep", "sweep", str, None, tuple(_SWEEP_FIELDS), ("sweep",)),
    ("trials", "trials", int, None, None, ("sweep",)),
    ("trials_na", "trials_na", int, "trial cap for the permutation-sum estimator", None,
     ("sweep",)),
    ("estimators", "estimators", lambda text: tuple(t.strip().upper() for t in text.split(",")),
     f"comma list of {','.join(ESTIMATOR_TAGS)}", None, ("sweep",)),
    ("cond_gate", "cond_gate", float, "condition-number validity gate for position trials",
     None, ("sweep",)),
    ("kind", "surface_kind", str, None, SURFACE_KINDS, _SURFACES),
    ("scenario", "surface_scenario", str, None, SURFACE_SCENARIOS, _SURFACES),
    ("grid_steps", "grid_steps", int, None, None, _SURFACES),
    ("samples", "calib_samples", lambda text: _count(float(text)), None, None, ("calibrate",)),
)

_COMMANDS = {"sweep": "RMSE sweep", "surface": "likelihood surface dump",
             "calibrate": "channel sampler statistics check",
             "scenario-dump": "sample one scenario as CSV"}


def _build_parser() -> argparse.ArgumentParser:
    """--config, then the table's keys in order: a key one subcommand reads is its flag
    alone, any other is on all four, so that main (not argparse) rejects it unread."""
    parser = argparse.ArgumentParser(
        prog="uwbrel",
        description="Monte-Carlo evaluation of MPC-based distance/position estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in _COMMANDS.items()}
    for p in commands.values():
        p.add_argument("--config", help="key=value config file; flags override it")
    for key, _, _, text, choices, readers in _FLAGS:
        own = {reader.split()[-1] for reader in readers}
        for name in own if len(own) == 1 else commands:
            commands[name].add_argument("--" + key.replace("_", "-"), help=text, choices=choices)
    return parser


def _config_from_args(args):
    """The configuration of the flags, else the config file's keys, and the
    set of keys given either way; a config key that names no flag, or a
    value its parser rejects, raises ConfigError."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = set(file_cfg) - {key for key, *_ in _FLAGS}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    flags = {key: text for key, text in vars(args).items() if text is not None}
    updates: dict = {}
    given = set()
    for key, name, parse, *_ in _FLAGS:
        text = flags.get(key, file_cfg.get(key))
        if text is None:
            continue
        try:
            updates[name] = parse(str(text))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value {text!r} for {key}: {exc}") from exc
        given.add(key)
    return replace(ExperimentConfig(), **updates), given


def _emit(text: str, path: str) -> None:
    if path in ("-", "", None):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, given = _config_from_args(args)
        if args.command in ("surface", "calibrate"):
            cfg = replace(cfg, sweep=args.command)
        cfg.validate()
        reader = (f"a {cfg.surface_scenario} surface" if args.command == "surface"
                  else args.command)
        unused = [key for key, *_, readers in _FLAGS if key in given and reader not in readers]
        if unused:
            raise ConfigError(f"{reader} does not use {', '.join(unused)}")
        if args.command == "sweep":
            result = run_sweep(cfg)
            _emit(result.to_csv(), cfg.output_path)
        elif args.command == "surface":
            _emit(dump_surface(cfg), cfg.output_path)
        elif args.command == "calibrate":
            report = calibrate(cfg)
            _emit(_calibrate_csv(report), cfg.output_path)
            if not report["passed"]:
                return 3
        elif args.command == "scenario-dump":
            scenario = _one_scenario(cfg)
            observations = _observe_dump(cfg, scenario, _single(cfg, "sigma_dir"))
            _emit(chansim.scenario_csv(scenario, observations), cfg.output_path)
    except (UwbrelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
