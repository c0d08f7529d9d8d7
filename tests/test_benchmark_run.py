"""The benchmark's traced run, as a test: one traced pass per workload.

``perfbench/run.py --seconds 0 --trace 1`` runs one plain and one traced
pass. It exits 0 with ``"correct": true`` only when the outputs match
``perfbench/reference.json`` (the Q-table digest on qlearn), every oracle
route replays and is no longer than the expert script, and every traced
layer mapped to the workload recorded calls. About 6 s per workload.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


@pytest.mark.parametrize("workload", ["qlearn", "oracle"])
def test_traced_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
