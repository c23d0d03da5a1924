"""One benchmark workload, measured in this fresh single-threaded process.

``run.py`` starts it; it can also be run by hand:

    python3 perfbench/worker.py --workload closed_form --seed 1 --seconds 22 --trace 0

Steps: build and validate the workload's configuration (set-up); run one
warm-up sweep at the reference seed and check it against the committed
reference CSV; then time the sweep at the input seeds derived from
``--seed``, cycling through them until ``--seconds`` are used.  With
``--trace 1`` the first half of the time is untraced and the second half
traced, and the per-layer metrics come from the traced half.
Human-readable lines go first; the last stdout line is one JSON object.

``--setup-only`` stops after set-up; ``--write-reference`` rewrites the
workload's reference CSV and its accuracy spread from the current program
(minutes to a quarter of an hour: it runs the sweep at REPLICATES seeds).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from uwbrel import evalcli  # noqa: E402

# Accuracy tolerance, in standard errors of the difference between the
# run's estimate and the reference (a changed RNG stream gives a fresh one)
RESULT_Z = 5.0
# independent sweeps, at seeds from REPLICATE_SEED0 on, whose spread is the
# accuracy reference; far from the seeds that benchmark runs derive
REPLICATES = 120
REPLICATE_SEED0 = 1_000_000
# rows with fewer trials per sweep pool every sweep of the run in the check
POOL_BELOW_TRIALS = 10
# A typical time of calibration_s() on the 2-core virtual machine the
# benchmark was written on; sweep times are scaled to it (README.md).
CALIBRATION_REF_S = 0.010
OUT_DIR = HERE / "out"


def _rows(csv_text: str) -> list:
    return list(csv.DictReader(io.StringIO(csv_text)))


def replicate_sweeps(cfg) -> list:
    """The rows of the workload's sweep at REPLICATES independent seeds."""
    return [_rows(evalcli.run_sweep(replace(cfg, seed=REPLICATE_SEED0 + i)).to_csv())
            for i in range(REPLICATES)]


def _stats(row) -> tuple:
    """A sweep row's mean squared error and mean error, NaN if every trial failed."""
    return float(row["rmse_m"]) ** 2, float(row["mean_err_m"])


def spread_csv(runs: list) -> str:
    """Mean and standard deviation over replicate sweeps of each row's mean
    squared error (``rmse_m`` squared) and mean error.  Taken from
    replicates because rows whose errors are heavy-tailed (association
    breakdowns) spread more than a normal approximation from one sweep's
    columns predicts.  Replicates whose every trial failed are left out;
    NaN when fewer than two are left."""
    lines = ["sweep_param,value,estimator,replicates,ms_mean,ms_sd,err_mean,err_sd"]
    for i, row in enumerate(runs[0]):
        got = [g for g in (_stats(run[i]) for run in runs) if not math.isnan(g[0])]
        cols = [math.nan] * 4
        if len(got) > 1:
            ms, err = zip(*got)
            cols = [statistics.fmean(ms), statistics.stdev(ms),
                    statistics.fmean(err), statistics.stdev(err)]
        lines.append(f"{row['sweep_param']},{row['value']},{row['estimator']},{len(got)},"
                     + ",".join(f"{c:.6g}" for c in cols))
    return "\n".join(lines) + "\n"


def reference_problems(run_csv: str, ref_csv: str) -> list:
    """Differences of the warm-up sweep from the reference sweep at the same
    seed that fail the run: any change of the row keys or of the ``trials``
    and ``failures`` columns."""
    run, ref = _rows(run_csv), _rows(ref_csv)
    if len(run) != len(ref):
        return [f"{len(run)} rows, the reference has {len(ref)}"]
    problems = []
    for got, want in zip(run, ref):
        key = f"{want['sweep_param']}={want['value']} {want['estimator']}"
        for col in ("sweep_param", "value", "estimator", "trials", "failures"):
            if got[col] != want[col]:
                problems.append(f"{key}: {col} {got[col]}, reference {want[col]}")
    return problems


def accuracy_problems(warm_csv: str, other_csvs: list, spread: str) -> list:
    """Each row's mean squared error and mean error against the replicate
    means in ``spread``: they fail the run when farther apart than RESULT_Z
    standard errors of the difference.  Rows of POOL_BELOW_TRIALS or more
    trials are checked on the warm-up sweep at the reference seed alone,
    which is deterministic.  Rows of fewer trials (NA's) average the
    warm-up with ``other_csvs``, the run's sweeps at other seeds, so that
    the check tightens as 1/sqrt(sweeps) and a wrong estimate shows even
    where a sweep holds one trial.  The many-trial rows are not pooled
    because their association breakdowns are rare and heavy-tailed (README,
    Correctness) and would fail runs at random seeds."""
    warm, others, refs = _rows(warm_csv), [_rows(c) for c in other_csvs], _rows(spread)
    if any(len(run) != len(refs) for run in [warm] + others):
        return [f"a sweep has a row count other than the reference's {len(refs)}"]
    problems = []
    for i, ref in enumerate(refs):
        key = f"{ref['sweep_param']}={ref['value']} {ref['estimator']}"
        runs = [warm] + (others if int(warm[i]["trials"]) < POOL_BELOW_TRIALS else [])
        if any([run[i][c] for c in ("sweep_param", "value", "estimator")]
               != [ref[c] for c in ("sweep_param", "value", "estimator")] for run in runs):
            problems.append(f"{key}: row out of order")
            continue
        # a sweep whose every trial failed has no error; failures are checked
        # at the reference seed and reported in failed_frac
        got = [g for g in (_stats(run[i]) for run in runs) if not math.isnan(g[0])]
        n, r = len(got), int(ref["replicates"])
        for j, label in enumerate(("mean squared error", "mean error")):
            mean, sd = float(ref[("ms_mean", "err_mean")[j]]), float(ref[("ms_sd", "err_sd")[j]])
            if math.isnan(mean) or not got:
                if math.isnan(mean) != (not got):
                    problems.append(f"{key}: {label} over {n} sweeps with errors, "
                                    f"reference {mean:.6g}")
                continue
            value = statistics.fmean(g[j] for g in got)
            tol = RESULT_Z * sd * math.sqrt(1.0 / n + 1.0 / r) + 1e-9 * abs(mean)
            if abs(value - mean) > tol:
                problems.append(f"{key}: {label} {value:.6g} over {n} sweeps, reference "
                                f"{mean:.6g}, tolerance {tol:.3g}")
    return problems


def count_problems(csv_text: str, cfg) -> list:
    """Every row must report the configured number of trials."""
    problems = []
    for row in _rows(csv_text):
        want = min(cfg.trials, cfg.trials_na) if row["estimator"] == "NA" else cfg.trials
        if int(row["trials"]) != want:
            problems.append(f"{row['value']} {row['estimator']}: trials {row['trials']}, "
                            f"configured {want}")
    return problems


def _kernel(data: dict) -> None:
    """Fixed work in three parts of about equal time, because the machine's
    slow spells slow each kind of work by a different factor (README.md,
    Calibration): interpreter objects beyond the caches, memory-bound array
    work, and the small library calls a trial makes."""
    rows = [(i * 7919 % 10007, str(i), [i]) for i in range(4000)]
    rows.sort(key=lambda row: row[0])
    for _ in range(2):
        np.sort(data["big"][::2]).sum() + np.cumsum(data["big"]).max()
    for _ in range(3):
        for m in data["squares"]:
            data["lsa"](m)
            np.linalg.lstsq(data["a"], data["b"], rcond=None)


_KERNEL_DATA = {}


def calibration_s() -> float:
    """Median time of three runs of a fixed kernel: the machine's current
    speed."""
    if not _KERNEL_DATA:
        # imported here, after set-up, so that the benchmark never imports
        # for the program what the program itself may stop importing
        from scipy.optimize import linear_sum_assignment
        rng = np.random.default_rng(0)
        _KERNEL_DATA.update(big=rng.random(200_000), lsa=linear_sum_assignment,
                            squares=[rng.random((4, 4)) for _ in range(40)],
                            a=rng.random((6, 3)), b=rng.random(6))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel(_KERNEL_DATA)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_sweeps(cfgs: list, budget_s: float) -> list:
    """Sweep ``cfgs`` in turn, cycling, until each ran once and the next
    sweep would end past ``budget_s``.  Returns ``[(seconds, index into
    cfgs, csv or None if the sweep raised, calibration seconds)]``, the
    last being the mean of the calibrations just before and after."""
    runs = []
    start = time.perf_counter()
    before = calibration_s()
    while True:
        i = len(runs) % len(cfgs)
        t0 = time.perf_counter()
        try:
            out = evalcli.run_sweep(cfgs[i]).to_csv()
        except Exception:  # a sweep that raises is a failed operation
            traceback.print_exc()
            out = None
        seconds = time.perf_counter() - t0
        after = calibration_s()
        runs.append((seconds, i, out, (before + after) / 2.0))
        before = after
        typical = statistics.median(r[0] for r in runs)
        if out is None or (len(runs) >= len(cfgs)
                           and time.perf_counter() - start + typical > budget_s):
            return runs


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _throughput(runs: list, trials: int, label: str) -> float:
    """Median calibrated rate over the sweeps: trials per second with each
    sweep's time scaled by CALIBRATION_REF_S over the calibration measured
    around it."""
    ok = [r for r in runs if r[2] is not None]
    if not ok:
        return float("nan")
    rates = [trials / seconds * cal / CALIBRATION_REF_S for seconds, _, _, cal in ok]
    q1, med, q3 = _quartiles(rates)
    print(f"{label}: median {med:.4g} trials/s calibrated (quartiles {q1:.4g}, {q3:.4g}) "
          f"over {len(ok)} sweeps of {trials} trials; wall clock median "
          f"{statistics.median(trials / r[0] for r in ok):.4g} trials/s; calibration "
          f"{1e3 * statistics.median(r[3] for r in ok):.3f} ms, reference "
          f"{1e3 * CALIBRATION_REF_S:.3f} ms")
    return statistics.median(rates)


def layer_metrics(tracer, trials: int) -> dict:
    """Per-layer metrics of a traced run; counts and times are per trial."""
    metrics = {}
    units = {"calls": "count/trial", "busy_s": "s/trial", "self_s": "s/trial",
             "raised": "count/trial"}
    for name, values in tracer.layer_totals().items():
        for field, value in zip(("calls", "busy_s", "self_s", "raised"), values):
            metrics[f"{name}.{field}"] = (value / trials, units[field])
    n_max = max(tracer.maximizations, 1)
    metrics["distest.loglik_no_assoc.points"] = (tracer.points / trials, "count/trial")
    metrics["likelihood.maximize_2d.nfev"] = (tracer.nfev / n_max, "count/call")
    metrics["likelihood.maximize_2d.grid_s"] = (tracer.grid_s / n_max, "s/call")
    metrics["likelihood.maximize_2d.refine_s"] = (tracer.refine_s / n_max, "s/call")
    metrics["likelihood.maximize_2d.refine_gain"] = (tracer.refine_gain / n_max, "loglik/call")
    metrics["assoc.pairs_correct_frac"] = (
        tracer.pairs_correct / tracer.pairs if tracer.pairs else 0.0, "ratio")
    return metrics


def measure(name: str, cfg, seconds: float, trace: bool, check_reference: bool) -> dict:
    """Warm up, check, time; returns the result object without set-up time."""
    problems = []
    print(f"versions: python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}; cpus {os.cpu_count()}, "
          f"usable {len(os.sched_getaffinity(0))}; threads "
          + ", ".join(f"{v}={os.environ.get(v, 'unset')}"
                      for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")))

    warm_csv = evalcli.run_sweep(replace(cfg, seed=workloads.REFERENCE_SEED)).to_csv()
    csv_identical = False
    if check_reference:
        ref_csv = (HERE / "reference" / f"{name}.csv").read_text(encoding="utf-8")
        ref_problems = reference_problems(warm_csv, ref_csv)
        csv_identical = warm_csv == ref_csv
        print(f"reference check of the warm-up sweep at seed {workloads.REFERENCE_SEED}: "
              f"{'FAILED' if ref_problems else 'passed'}; "
              f"byte-identical to the reference: {'yes' if csv_identical else 'no'}")
        problems += ref_problems
    else:
        print("reference check skipped: the trial count is overridden")

    cfgs = [replace(cfg, seed=seed) for seed in workloads.input_seeds(name, cfg.seed)]
    trials = workloads.trials_per_sweep(cfg)
    budget = seconds / 2.0 if trace else seconds
    runs = timed_sweeps(cfgs, budget)
    if trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_runs = timed_sweeps(cfgs, budget)
        if not tracer.restored():
            problems.append("a traced function was not restored")
        if tracer.missing:
            print("not traced, absent from uwbrel: " + ", ".join(tracer.missing))
    else:
        traced_runs = []

    # every sweep of one input seed, traced or not, must give the same CSV
    outputs = {}
    failed = 0
    for _, i, out, _ in runs + traced_runs:
        failed += out is None
        if outputs.setdefault(i, out) != out:
            problems.append(f"two sweeps at seed {cfgs[i].seed} gave different CSVs")
    if failed:
        problems.append(f"{failed} sweeps raised")
    else:
        for out in outputs.values():
            problems += count_problems(out, cfg)
        if check_reference:
            others = {cfgs[i].seed: out for i, out in outputs.items()
                      if cfgs[i].seed != workloads.REFERENCE_SEED}
            spread = (HERE / "reference" / f"{name}.spread.csv").read_text(encoding="utf-8")
            acc_problems = accuracy_problems(warm_csv, list(others.values()), spread)
            print(f"accuracy check against reference/{name}.spread.csv of the warm-up "
                  f"sweep, pooled with the sweeps at seeds {sorted(others)} in rows of "
                  f"fewer than {POOL_BELOW_TRIALS} trials: "
                  f"{'FAILED' if acc_problems else 'passed'}")
            problems += acc_problems
    for p in problems:
        print("check failed: " + p)

    rate = _throughput(runs, trials, "untraced throughput")
    metrics = {}
    if trace:
        traced_rate = _throughput(traced_runs, trials, "traced throughput")
        metrics = layer_metrics(tracer, trials * len(traced_runs))
        metrics["evalcli.csv_identical"] = (int(csv_identical), "bool")
        metrics["trace.overhead_frac"] = (1.0 - traced_rate / rate, "ratio")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{cfg.seed}.csv"
        tracer.write_spans(spans_path)
        top = sorted(((v, k) for k, (v, _) in metrics.items() if k.endswith(".self_s")),
                     reverse=True)[:5]
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}; "
              "largest self times (s/trial): "
              + ", ".join(f"{k[:-len('.self_s')]} {v:.3g}" for v, k in top))
    elif not failed:
        rows = [row for out in outputs.values() for row in _rows(out)]
        fails = sum(int(r["failures"]) for r in rows)
        evals = sum(int(r["trials"]) for r in rows)
        print(f"estimator evaluations at seeds {cfgs[0].seed}..{cfgs[-1].seed}: "
              f"{fails} of {evals} raised a UwbrelError; "
              "failed_frac = (failures + 1/2) / (evaluations + 1), never 0")
        metrics["trials_per_s"] = (rate, "trials/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        metrics["failed_frac"] = ((fails + 0.5) / (evals + 1), "ratio")

    return {
        "correct": not problems,
        "attempted": len(runs) + len(traced_runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="override trials per sweep point; skips the reference check")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    cfg = workloads.config(args.workload, args.seed, args.trials)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0
    if args.write_reference:
        ref_dir = HERE / "reference"
        (ref_dir / f"{args.workload}.csv").write_text(evalcli.run_sweep(
            replace(cfg, seed=workloads.REFERENCE_SEED)).to_csv(), encoding="utf-8")
        (ref_dir / f"{args.workload}.spread.csv").write_text(
            spread_csv(replicate_sweeps(cfg)), encoding="utf-8")
        print(f"wrote the reference of {args.workload} to {ref_dir.relative_to(HERE.parent)}")
        return 0
    result = measure(args.workload, cfg, args.seconds, bool(args.trace),
                     check_reference=args.trials is None)
    result["setup_done"] = setup_done
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
