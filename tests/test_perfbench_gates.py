"""The benchmark's correctness gates, run from the test suite.

perfbench checks every workload's results against its own oracles and
mutates chaoskit functions to show that each check bites.  A refactor of
src/ that leaves a mutation undetected fails here, not at the next
benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_checks_pass_and_catch_every_mutation():
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench", "-k", "checks_pass or checks_catch"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
