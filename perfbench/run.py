"""uwbrel benchmark: Monte-Carlo sweep throughput of one workload.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 22 --trace 0

Run from the repository root (any directory works; paths are taken from
this file).  Set-up time is measured in fresh interpreters before and after
the workload, each calibrated by an import kernel run just before it; the
workload runs in its own fresh process (``worker.py``) with BLAS and OpenMP
pinned to one thread.  Prints the environment, the checks and every
metric by name and unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 when
every check passed, 1 when a check failed, 2 when the program could not be
found or run.  README.md beside this file describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4       # set-up-only interpreters, half before and half after
                       # the workload, besides the workload's own
# The set-up calibration kernel: a fresh interpreter importing the libraries
# that uwbrel imported when the benchmark was written, and nothing of uwbrel.
# Its typical time on the 2-core virtual machine the benchmark was written
# on is SETUP_CALIBRATION_REF_S; set-up times are scaled to it (README.md).
SETUP_KERNEL = ("import os, time, numpy, scipy.optimize, scipy.special; "
                "print(time.monotonic(), flush=True); os._exit(0)")
SETUP_CALIBRATION_REF_S = 0.5
TIME_LIMIT_S = 170.0   # for the whole run, subprocesses included


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _run(cmd: list, env: dict, deadline: float):
    """Run a worker to completion; returns (start time, completed process)."""
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(deadline - start, 1.0))
    return start, proc


def _last_json(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="uwbrel sweep-throughput benchmark")
    parser.add_argument("--workload", required=True, help="a name from workloads.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="override trials per sweep point (tiny self-test runs); "
                             "skips the reference check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "uwbrel" / "__init__.py").is_file():
        print(f"error: the uwbrel sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.trials is not None:
        cmd += ["--trials", str(args.trials)]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; commit {_commit()}; one closed-loop caller in a "
          f"single-threaded process; {', '.join(v + '=1' for v in THREAD_VARS)}")

    setup = []  # (set-up seconds, kernel seconds just before) per interpreter

    def probe(extra):
        start, kernel = _run([sys.executable, "-c", SETUP_KERNEL], env, deadline)
        kernel_s = float(kernel.stdout) - start
        start, proc = _run(cmd + extra, env, deadline)
        out = _last_json(proc)
        setup.append((out.pop("setup_done") - start, kernel_s))
        return proc, out

    try:
        for _ in range(SETUP_PROBES // 2):
            probe(["--setup-only"])
        proc, result = probe(["--seconds", str(args.seconds), "--trace", str(args.trace)])
        sys.stderr.write(proc.stderr)
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            probe(["--setup-only"])
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(proc.stdout.strip().splitlines()[:-1]))

    calibrated = [s / k * SETUP_CALIBRATION_REF_S for s, k in setup]
    print(f"setup_s: median of {len(setup)} fresh interpreters, each scaled by "
          f"{SETUP_CALIBRATION_REF_S:g} s over the import kernel run just before it: "
          + ", ".join(f"{c:.3f}" for c in calibrated) + "; wall clock "
          + ", ".join(f"{s:.3f}" for s, _ in setup) + "; kernel "
          + ", ".join(f"{k:.3f}" for _, k in setup))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(calibrated), "unit": "s"}
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
