"""Self-test of the benchmark at a tiny size (one trial per sweep point).

    python3 perfbench/selftest.py

Checks three things on every workload:
1. run.py prints every metric named in BENCHMARK.json, with its unit, both
   untraced and traced, and its run passes its own checks;
2. a traced sweep's CSV is byte-identical to the untraced one;
3. after the traced run every attribute of every uwbrel module is the same
   object as before, so each patched function is the original again.
Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from uwbrel import evalcli  # noqa: E402


def check_metrics(name: str, trace: int, spec: dict) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--trials", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    where = f"{name} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: run.py exited {proc.returncode}\n{proc.stdout}{proc.stderr}"]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    problems = [f"{where}: {m['name']} missing or not in {m['unit']}"
                for m in wanted if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_traced_identity(name: str) -> list:
    cfg = workloads.config(name, 1, trials=1)
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "uwbrel"]
    before = [(m, attr, value) for m in modules for attr, value in vars(m).items()]
    plain = evalcli.run_sweep(cfg).to_csv()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = evalcli.run_sweep(cfg).to_csv()
    problems = []
    if not any(span[0] == "evalcli.run_sweep" for span in tracer.spans):
        problems.append(f"{name}: the traced run recorded no run_sweep span")
    if traced != plain:
        problems.append(f"{name}: traced CSV differs from the untraced CSV")
    changed = [f"{m.__name__}.{attr}" for m, attr, value in before
               if getattr(m, attr) is not value]
    if changed:
        problems.append(f"{name}: not restored after tracing: {changed}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for w in spec["workloads"]:
        problems += check_traced_identity(w["name"])
        for trace in (0, 1):
            problems += check_metrics(w["name"], trace, spec)
        print(f"{w['name']}: checked")
    for p in problems:
        print("FAILED: " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
