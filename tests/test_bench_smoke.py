"""Smoke test of the benchmark's traced path.

A traced run of perfbench/run.py wraps every public chaoskit function,
notes the arguments of some calls and reads back every budget charge, so a
change to a signature or to a charge can break the run outside the
operations it times.  Each case runs one short traced pass of a workload on
a copy of src/ and perfbench/, so nothing is written into the checkout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["report-all", "survey", "tracing"])
def test_traced_run_exits_clean(tmp_path, workload):
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "CHAOS_BUDGET_OVERRIDE"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
    assert result["attempted"] > 0
