"""The work the benchmark's traced replay counts, pinned per workload.

`perfbench/run.py --trace 1` replays the first pass of a workload with every
layer wrapped and reports how many searches, decisions, consistency and
entailment questions it made.  These counts follow from the algorithms
alone, not from the host, so a change that moves one shows here.  A change
that moves one on purpose updates the table and says why.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "islands": {
        "sat.solve_calls": 162,
        "sat.decisions": 0,
        "engine.consistent_calls": 87,
        "engine.entails_calls": 45,
    },
    "grounded": {
        "sat.solve_calls": 138,
        "sat.decisions": 176,
        "engine.consistent_calls": 19,
        "engine.entails_calls": 18,
    },
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_a_traced_seed_1_pass_does_the_pinned_work(workload):
    run = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout.splitlines()[-1])
    assert doc["correct"] is True
    counts = {name: doc["metrics"][name]["value"] for name in PINNED[workload]}
    assert counts == PINNED[workload]
