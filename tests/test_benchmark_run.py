"""The benchmark's traced run, as a test: one traced pass per workload.

``perfbench/run.py --seconds 0 --trace 1`` runs one plain and one traced
pass. It exits 0 with ``"correct": true`` only when the outputs match
``perfbench/reference.json`` (the policy checkpoint digest on policy, the
Q-table digest on qlearn, the corpus file digest on corpus), every oracle
route replays and is no longer than the expert script, and every traced
layer mapped to the workload recorded calls. About 2-7 s per workload.

The per-pass call counts of the search and the rewriting layers are pinned
at seed 0: a change that alters how much work the search does has to change
them here, in the open.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# Seed-0 calls per pass of each traced layer named.
CALLS_PER_PASS = {
    "policy": {
        "rl.policy_train": 1,
        "rl.top1_accuracy": 2,
    },
    "oracle": {
        "derivation.bfs_oracle": 220,
        "pattern.find_all": 29_394,
        "rewrite.substitute": 29_394,
        "expr.replace_at": 29_394,
    },
    "qlearn": {
        "pattern.find_first": 14_372,
        "rewrite.apply_rule_first": 14_372,
        "rewrite.substitute": 14_372,
    },
    "corpus": {
        "dataset.save_corpus": 1,
        "dataset.load_corpus": 1,
    },
}


@pytest.mark.parametrize("workload", ["policy", "qlearn", "oracle", "corpus"])
def test_traced_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    calls = {layer: result["metrics"][f"{layer}.calls"]["value"] for layer in CALLS_PER_PASS[workload]}
    assert calls == CALLS_PER_PASS[workload]
