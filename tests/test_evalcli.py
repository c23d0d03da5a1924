import argparse
import dataclasses
import itertools

import numpy as np
import pytest

from uwbrel import assoc, distest, posest
from uwbrel.errors import ConfigError
from uwbrel.evalcli import (
    _FLAGS,
    SURFACE_SCENARIOS,
    ExperimentConfig,
    _build_parser,
    _trial_rng,
    calibrate,
    canonical_scenario,
    dump_surface,
    main,
    run_sweep,
    run_trial,
)
from uwbrel.geom import SPEED_OF_LIGHT as C


def tiny_cfg(**kw):
    base = dict(d=(2.0,), trials=5, estimators=("MV", "DD"), seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunSweep:
    def test_exact_when_noise_free(self):
        cfg = tiny_cfg(sigma=0.0, trials=1, estimators=("DD",), d=(2.0,))
        row = run_sweep(cfg).lookup(2.0, "DD")
        assert row["rmse_m"] < 1e-9
        assert row["failures"] == 0

    def test_deterministic_output_bytes(self):
        cfg = tiny_cfg()
        a = run_sweep(cfg).to_csv()
        b = run_sweep(cfg).to_csv()
        assert a == b

    def test_seed_changes_output(self):
        a = run_sweep(tiny_cfg(seed=1)).to_csv()
        b = run_sweep(tiny_cfg(seed=2)).to_csv()
        assert a != b

    def test_csv_schema(self):
        text = run_sweep(tiny_cfg()).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "sweep_param,value,estimator,trials,failures,rmse_m,mean_err_m"
        assert len(lines) == 1 + 2  # two estimators, one sweep value

    def test_all_pipelines_run(self):
        cfg = tiny_cfg(trials=3, trials_na=1, m_observers=2,
                       estimators=("MV", "NA", "SO", "DD", "PWA", "DDN", "TAU", "TNA"))
        result = run_sweep(cfg)
        for tag in cfg.estimators:
            row = result.lookup(2.0, tag)
            assert row["trials"] >= 1
            assert np.isfinite(row["rmse_m"]) or row["failures"] == row["trials"]

    def test_mpc_count_sweep(self):
        cfg = tiny_cfg(sweep="mpc_count", m_observers=1, k_per_observer=(4, 6),
                       estimators=("MV",), trials=10)
        result = run_sweep(cfg)
        assert {r["value"] for r in result.rows} == {4.0, 6.0}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(tiny_cfg(trials=0))
        with pytest.raises(ConfigError):
            run_sweep(tiny_cfg(estimators=("XX",)))
        with pytest.raises(ConfigError):
            run_sweep(tiny_cfg(sweep="surface"))
        with pytest.raises(ConfigError, match="repeat"):
            run_sweep(tiny_cfg(estimators=("DD", "MV", "DD")))
        for bad in (dict(sigma=np.nan), dict(sigma=np.inf), dict(sigma_dir=(0.1, np.nan)),
                    dict(d=(2.0, np.nan)), dict(d=(-1.0,)), dict(eps=np.nan),
                    dict(cond_gate=np.nan), dict(cond_gate=0.0),
                    dict(calib_samples=0), dict(grid_steps=1)):
            with pytest.raises(ConfigError):
                tiny_cfg(**bad).validate()

    def test_noise_hurts_mvue(self):
        quiet = run_sweep(tiny_cfg(sigma=0.0, trials=300, estimators=("MV",)))
        loud = run_sweep(tiny_cfg(sigma=1e-9, trials=300, estimators=("MV",)))
        assert quiet.lookup(2.0, "MV")["rmse_m"] < loud.lookup(2.0, "MV")["rmse_m"]


    def test_trial_streams_are_the_list_seeded_generators(self):
        # the seed goes in as uint32 words; a seed of 2**32 or more takes two
        for seed in (0, 2**32 - 1, 2**32, 2**40 + 3, 2**70 + 5):
            for point, trial, stream in ((0, 0, 0), (3, 17, 2), (1, 2**33, 1)):
                got = _trial_rng(seed, point, trial, stream)
                want = np.random.default_rng([seed, point, trial, stream])
                assert got.bit_generator.state == want.bit_generator.state
                np.testing.assert_array_equal(got.random(8), want.random(8))

    def test_estimators_looked_up_at_each_call(self, monkeypatch):
        # a tracer patches module attributes: the sweep must call whatever
        # the attribute holds when the trial runs, not a function bound at import
        calls = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(posest, "solve_by_delta")
        counting(posest, "solve_by_tau")
        counting(distest, "mvue_async_stack")
        counting(distest, "mle_async_noassoc")
        counting(assoc, "associate_stack")
        run_sweep(tiny_cfg(trials=3, estimators=("MV", "SO", "DD", "DDN", "TAU", "TNA")))
        # each closed-form tag runs its stacked solver once at the one sweep point, and
        # the sorted and assigned pairings are each found once, DDN and TNA sharing one
        assert calls == {"mvue_async_stack": 2, "solve_by_delta": 2, "solve_by_tau": 2,
                         "associate_stack": 2}
        calls.clear()
        run_sweep(tiny_cfg(trials=3, trials_na=2, estimators=("NA", "MV")))
        # NA runs on each set alone, and only on the trials below its cap
        assert calls == {"mle_async_noassoc": 2, "mvue_async_stack": 1}

    @pytest.mark.parametrize("point, trial", [(1, 0), (-1, 0), (0, -1), (0, 7)])
    def test_run_trial_outside_the_sweep(self, point, trial):
        cfg = tiny_cfg(trials=3)
        with pytest.raises(ConfigError, match=f"point {point}, trial {trial} "):
            run_trial(cfg, point, trial)

    @pytest.mark.parametrize("sweep", ["surface", "calibrate"])
    def test_run_trial_and_run_sweep_reject_a_config_that_is_no_sweep(self, sweep):
        cfg = tiny_cfg(sweep=sweep)
        cfg.validate()  # a valid configuration, of a subcommand that is not a sweep
        for run in (lambda: run_trial(cfg, 0, 0), lambda: run_sweep(cfg)):
            with pytest.raises(ConfigError, match=f"'{sweep}' is not a sweep"):
                run()


class TestSurface:
    def test_known_association_peak_at_truth(self):
        # flat-top wedge: assert over the tie set of maximizing cells
        cfg = ExperimentConfig(sweep="surface", d=(2.5,), sigma=0.0, eps=5e-9,
                               surface_kind="known", surface_scenario="canonical",
                               grid_steps=120)
        text = dump_surface(cfg)
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in text.strip().split("\n")[1:]])
        top = rows[:, 2].max()
        ties = rows[rows[:, 2] >= top - 1e-9 * abs(top)]
        d_step = np.diff(np.unique(rows[:, 0]))[0]
        e_step = np.diff(np.unique(rows[:, 1]))[0]
        steps = np.maximum(np.abs(ties[:, 0] - 2.5) / d_step,
                           np.abs(ties[:, 1] - 5e-9) / e_step)
        assert steps.min() <= 1.0 + 1e-9

    def test_noassoc_positive_cells_are_feasible(self):
        cfg = ExperimentConfig(sweep="surface", d=(2.5,), sigma=0.0, eps=5e-9,
                               surface_kind="noassoc", surface_scenario="canonical",
                               grid_steps=60)
        text = dump_surface(cfg)
        scen = canonical_scenario(2.5)
        taus_a = scen.mpcs.tau_a
        taus_b = scen.mpcs.tau_b + 5e-9
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in text.strip().split("\n")[1:]])
        positive = rows[np.isfinite(rows[:, 2])]
        assert positive.size > 0
        for d, e, _ in positive[:: max(1, len(positive) // 50)]:
            ok = any(
                all(abs(C * (taus_b[list(p)[k]] - taus_a[k] - e)) <= d + 1e-6
                    for k in range(3))
                for p in itertools.permutations(range(3)))
            assert ok

    def test_gaussian_surface_smooth_peak_near_truth(self):
        # single-instance regression with a pinned draw: with only three
        # MPCs and sigma = 1 ns the peak wanders by a few grid steps from
        # seed to seed, so this pins one representative realization
        cfg = ExperimentConfig(sweep="surface", d=(2.5,), sigma=1e-9, eps=5e-9,
                               surface_kind="known", surface_scenario="canonical",
                               grid_steps=120, seed=5)
        text = dump_surface(cfg)
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in text.strip().split("\n")[1:]])
        best = rows[np.argmax(rows[:, 2])]
        d_step = np.diff(np.unique(rows[:, 0]))[0]
        e_step = np.diff(np.unique(rows[:, 1]))[0]
        assert abs(best[0] - 2.5) <= 2 * d_step
        assert abs(best[1] - 5e-9) <= 2 * e_step


class TestCalibrate:
    def test_quick_pass(self):
        report = calibrate(ExperimentConfig(sweep="calibrate", calib_samples=200000))
        assert report["passed"]
        assert report["samples"] == 200000


class TestCli:
    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["sweep", "--sweep", "distance", "--d", "2", "--trials", "3",
                   "--estimators", "MV", "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("sweep_param,value,estimator")

    def test_stdout_default(self, capsys):
        rc = main(["sweep", "--sweep", "distance", "--d", "2", "--trials", "2",
                   "--estimators", "MV"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("sweep_param")

    def test_identical_bytes_for_same_seed(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--sweep", "distance", "--d", "1,2", "--trials", "4",
                "--estimators", "MV,SO", "--seed", "7"]
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("trials = 2\nestimators = MV\nd = 5\nseed = 3\n")
        rc = main(["sweep", "--config", str(cfgfile), "--d", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert ",1," in out.splitlines()[1]  # flag wins over file

    @pytest.mark.parametrize("argv", [
        pytest.param(["sweep", "--estimators", "BOGUS", "--trials", "1"], id="estimator"),
        pytest.param(["sweep", "--d", "abc"], id="d"),
        pytest.param(["sweep", "--estimators", "DD,dd", "--trials", "3"], id="repeated-tag"),
        pytest.param(["sweep", "--trials", "x"], id="trials"),
        pytest.param(["sweep", "--sigma-ns", "nan", "--trials", "1"], id="sigma-nan"),
        pytest.param(["calibrate", "--samples", "0"], id="samples"),
        pytest.param(["scenario-dump", "--d", "nan"], id="scenario-dump-d"),
        pytest.param(["surface", "--grid-steps", "1"], id="grid-steps"),
        pytest.param(["surface", "--kind", "noassoc", "--observers", "1",
                      "--mpcs-per-observer", "9", "--scenario", "random"],
                     id="permutation-cap"),
        pytest.param(["sweep", "--mpcs-per-observer", "2.5"], id="fractional-mpcs"),
        pytest.param(["sweep", "--sweep", "mpc_count", "--mpcs-per-observer", "2:3:3"],
                     id="fractional-mpc-range"),
        pytest.param(["calibrate", "--samples", "2.7"], id="fractional-samples"),
        *(pytest.param([command, "--seed", "-1"], id=f"{command}-negative-seed")
          for command in ("sweep", "surface", "calibrate", "scenario-dump")),
    ])
    def test_bad_estimator_exits_2(self, argv, capsys):
        rc = main(argv)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a key value line\n")
        rc = main(["sweep", "--config", str(bad)])
        assert rc == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "typo.cfg"
        cfgfile.write_text("trials = 1\nestimators = MV\nsigma = 5\n")  # meant: sigma_ns
        rc = main(["sweep", "--config", str(cfgfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'sigma'" in err

    def test_scenario_dump_schema(self, capsys):
        rc = main(["scenario-dump", "--d", "2", "--observers", "2",
                   "--mpcs-per-observer", "3", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header == ("observer,mpc,tau_a_true,tau_b_true,sax,say,saz,"
                          "sbx,sby,sbz,tau_a_meas,tau_b_meas,max,may,maz,mbx,mby,mbz")
        assert len(out.strip().splitlines()) == 1 + 6

    def test_scenario_dump_one_count_per_observer(self, capsys):
        rc = main(["scenario-dump", "--observers", "2", "--mpcs-per-observer", "3,5"])
        assert rc == 0
        observers = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert observers == ["0"] * 3 + ["1"] * 5

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["scenario-dump", "--mpcs-per-observer", "3,4"],
                     "2 MPC counts for 3 observers", id="scenario-dump-counts"),
        pytest.param(["scenario-dump", "--sigma-dir-deg", "1,2"], "sigma_dir takes one value",
                     id="scenario-dump-sigma-dir"),
        pytest.param(["scenario-dump", "--d", "1,2"], "d takes one value", id="scenario-dump-d"),
        pytest.param(["surface", "--d", "1,2"], "d takes one value", id="surface-canonical-d"),
        pytest.param(["surface", "--scenario", "random", "--d", "1:2:3"], "d takes one value",
                     id="surface-random-d"),
        pytest.param(["surface", "--scenario", "random", "--mpcs-per-observer", "2,3"],
                     "2 MPC counts for 3 observers", id="surface-random-counts"),
        pytest.param(["sweep", "--sweep", "mpc_count", "--d", "1,2", "--trials", "1"],
                     "d takes one value", id="sweep-d"),
        pytest.param(["sweep", "--sigma-dir-deg", "1,30", "--trials", "1"],
                     "sigma_dir takes one value", id="sweep-sigma-dir"),
        pytest.param(["sweep", "--mpcs-per-observer", "3,4", "--trials", "1"],
                     "k_per_observer takes one value", id="sweep-mpcs-per-observer"),
    ])
    def test_single_scenario_settings_take_one_value(self, argv, message, capsys):
        """A second value of a setting a single scenario has one of, or of a
        setting a sweep does not step through, is an error, not dropped."""
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["surface", "--kind", "noassoc", "--observers", "1",
                      "--mpcs-per-observer", "9"], "observers, mpcs_per_observer",
                     id="canonical-counts"),
        pytest.param(["surface", "--observers", "3"], "does not use observers",
                     id="canonical-observers"),
        pytest.param(["surface", "--scenario", "canonical", "--mpcs-per-observer", "3"],
                     "does not use mpcs_per_observer", id="canonical-mpcs"),
        pytest.param(["surface", "--sigma-dir-deg", "2"], "does not use sigma_dir_deg",
                     id="canonical-sigma-dir"),
        pytest.param(["surface", "--scenario", "random", "--sigma-dir-deg", "0"],
                     "a random surface does not use sigma_dir_deg", id="random-sigma-dir"),
    ])
    def test_surface_rejects_settings_it_does_not_use(self, argv, message, capsys):
        """A setting the surface's scenario ignores is an error, not dropped."""
        assert main(argv + ["--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_surface_config_file_settings_it_does_not_use(self, tmp_path, capsys):
        cfgfile = tmp_path / "surface.cfg"
        cfgfile.write_text("observers = 2\nmpcs-per-observer = 3\n")
        assert main(["surface", "--config", str(cfgfile), "--grid-steps", "4"]) == 2
        assert "a canonical surface does not use observers, mpcs_per_observer" in (
            capsys.readouterr().err)
        out = tmp_path / "s.csv"
        assert main(["surface", "--config", str(cfgfile), "--scenario", "random",
                     "--grid-steps", "4", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 16

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["calibrate", "--samples", "1000", "--observers", "2", "--d", "3",
                      "--sigma-dir-deg", "5", "--mpcs-per-observer", "7"],
                     "calibrate does not use d, sigma_dir_deg, observers, mpcs_per_observer",
                     id="calibrate-geometry"),
        pytest.param(["calibrate", "--sigma-ns", "1", "--eps-ns", "2"],
                     "calibrate does not use sigma_ns, eps_ns", id="calibrate-noise"),
    ])
    def test_calibrate_rejects_settings_it_does_not_use(self, argv, message, capsys):
        assert main(argv + ["--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command, text, message", [
        pytest.param(["surface", "--grid-steps", "3"], "trials = 7\nestimators = NA\n",
                     "a canonical surface does not use trials, estimators", id="surface"),
        pytest.param(["surface", "--scenario", "random"], "cond_gate = 10\n",
                     "a random surface does not use cond_gate", id="random-surface"),
        pytest.param(["calibrate"], "samples = 1000\ntrials_na = 3\n",
                     "calibrate does not use trials_na", id="calibrate"),
        pytest.param(["sweep", "--trials", "1"], "grid_steps = 4\nkind = noassoc\n",
                     "sweep does not use kind, grid_steps", id="sweep"),
        pytest.param(["scenario-dump"], "sweep = distance\nsamples = 10\n",
                     "scenario-dump does not use sweep, samples", id="scenario-dump"),
    ])
    def test_config_file_keys_a_subcommand_does_not_use(self, tmp_path, command, text,
                                                         message, capsys):
        """A key a subcommand never reads is an error, whether from a flag or
        from the config file, and the error names it."""
        cfgfile = tmp_path / "extra.cfg"
        cfgfile.write_text(text)
        assert main(command + ["--config", str(cfgfile), "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_calibrate_config_file_of_the_keys_it_reads(self, tmp_path, capsys):
        cfgfile = tmp_path / "cal.cfg"
        cfgfile.write_text("samples = 1e5\nseed = 2\nout = -\n")
        assert main(["calibrate", "--config", str(cfgfile)]) == 0
        assert "passed" in capsys.readouterr().out

    def test_calibrate_cli(self, capsys):
        rc = main(["calibrate", "--samples", "1e5", "--seed", "2"])  # exponent form: a whole count
        assert rc == 0
        assert "passed" in capsys.readouterr().out

    def test_surface_cli(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["surface", "--d", "2.5", "--sigma-ns", "0", "--kind", "known",
                   "--scenario", "canonical", "--grid-steps", "40", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("d,eps,loglik")


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("trials_na", 2.5), ("seed", 1.5), ("m_observers", 2.5),
    ("k_per_observer", (4, 4.5)), ("grid_steps", 3.5), ("calib_samples", 10.5),
])
def test_validate_rejects_fractional_counts(field, value):
    """A count that is not an integer is a config error before any draw, not
    a TypeError (or InvalidParams) from deep inside a run."""
    with pytest.raises(ConfigError, match=f"{field}: .* is not an integer count"):
        ExperimentConfig(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("k_per_observer", 4), ("d", 2.0), ("sigma_dir", 0.1), ("sigma", "0.2"), ("estimators", "MV"),
])
def test_validate_rejects_bad_range_types(field, value):
    """A scalar where a range belongs, a number given as a string and a tag
    list given as one string are config errors naming the field, not a
    TypeError from a comparison or a string split into one-letter tags."""
    with pytest.raises(ConfigError, match=f"^{field} takes"):
        ExperimentConfig(**{field: value}).validate()


def test_validate_takes_lists_and_numpy_scalars():
    ExperimentConfig(d=[1.0, np.float64(2.0)], sigma=np.float32(1e-10), sigma_dir=[0.0],
                     k_per_observer=[4], estimators=["MV", "DD"]).validate()


def test_validate_takes_numpy_integer_counts():
    ExperimentConfig(trials=np.int64(2), seed=np.uint32(3), m_observers=np.int32(2),
                     k_per_observer=(np.int64(4),), grid_steps=np.int16(4)).validate()


_COMMON = ["-h", "--help", "--config", "--d", "--sigma-ns", "--sigma-dir-deg", "--observers",
           "--mpcs-per-observer", "--eps-ns", "--seed", "--out"]


class TestFlagTable:
    """The flags each subcommand registers, pinned as the CLI offers them."""

    @staticmethod
    def _subcommands():
        action = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_options_of_each_subcommand_in_order(self):
        options = {name: [s for a in p._actions for s in a.option_strings]
                   for name, p in self._subcommands().items()}
        assert options == {
            "sweep": _COMMON + ["--sweep", "--trials", "--trials-na", "--estimators",
                                "--cond-gate"],
            "surface": _COMMON + ["--kind", "--scenario", "--grid-steps"],
            "calibrate": _COMMON + ["--samples"],
            "scenario-dump": _COMMON,
        }
        assert list(self._subcommands()) == ["sweep", "surface", "calibrate", "scenario-dump"]

    def test_choices_of_each_flag(self):
        choices = {name: {a.option_strings[0]: list(a.choices) for a in p._actions if a.choices}
                   for name, p in self._subcommands().items()}
        assert choices == {
            "sweep": {"--sweep": ["distance", "direction_error", "mpc_count"]},
            "surface": {"--kind": ["known", "noassoc"], "--scenario": ["canonical", "random"]},
            "calibrate": {},
            "scenario-dump": {},
        }

    def test_fields_and_readers(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert [name for _, name, *_ in _FLAGS if name not in fields] == []
        assert len({key for key, *_ in _FLAGS}) == len(_FLAGS) == 17
        # main names a subcommand, or a surface by its scenario; each reads some key
        nameable = {"sweep", "calibrate", "scenario-dump",
                    *(f"a {scenario} surface" for scenario in SURFACE_SCENARIOS)}
        assert {reader for *_, readers in _FLAGS for reader in readers} == nameable

    def test_every_field_is_a_flag(self):
        # no harness setting is out of reach of the flags and the config file
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(fields) == sorted(name for _, name, *_ in _FLAGS)

    @pytest.mark.parametrize("flag", ["--d", "--sigma-dir-deg", "--observers"])
    def test_a_shared_key_reaches_main_where_unread(self, flag, capsys):
        """A key another subcommand reads is registered on all four, so an
        unread one is main's exit 2 with its error line, not argparse's."""
        assert main(["calibrate", flag, "2"]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: calibrate does not use {key}\n"


@pytest.mark.parametrize("field", ["d", "sigma_dir"])
@pytest.mark.parametrize("value", [("2.0",), (None,), (1.0, "2.0")])
def test_validate_rejects_non_number_range_elements(field, value):
    """A string or None inside a numeric range is a config error naming the
    field, not a TypeError from the range comparison."""
    with pytest.raises(ConfigError, match=f"^{field} takes numbers"):
        ExperimentConfig(**{field: value}).validate()
