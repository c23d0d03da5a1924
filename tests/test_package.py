import ast
import os
import subprocess
import sys
from pathlib import Path

import uwbrel
from uwbrel import chansim, geom


def test_every_public_name_resolves():
    missing = [name for name in uwbrel.__all__ if not hasattr(uwbrel, name)]
    assert missing == []


def test_one_mpc_set_type_for_truth_and_measurement():
    assert chansim.Observations is geom.Observations is uwbrel.Observations


# Each step prints which of the two scipy modules are loaded after it.
_STARTUP_SCRIPT = """
import sys

def loaded():
    print(sorted(m for m in ("scipy.optimize", "scipy.special") if m in sys.modules))

import uwbrel
from uwbrel.evalcli import ExperimentConfig, run_sweep

loaded()
shape = dict(sweep="mpc_count", d=(2.0,), m_observers=1, k_per_observer=(7,),
             trials=1, trials_na=1)
run_sweep(ExperimentConfig(sigma=0.0, estimators=("NA",), **shape))
loaded()
run_sweep(ExperimentConfig(sigma=0.2e-9, estimators=("NA",), **shape))
loaded()
run_sweep(ExperimentConfig(sigma=0.2e-9, estimators=("DDN",), **shape))
loaded()
"""


def test_scipy_modules_load_at_the_first_call_that_needs_them():
    # a fresh interpreter, so that no other test has imported scipy already
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT], env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    steps = [ast.literal_eval(line) for line in out.splitlines()]
    assert steps[:3] == [[], [], ["scipy.special"]]  # import, hard NA, Gaussian NA
    assert "scipy.optimize" in steps[3]               # DDN's assignment
