"""The traced run's counts repeat exactly across runs and hash seeds.

    python3 -m pytest -q perfbench/test_trace_counts.py

For each workload the traced run is made twice on one seed, under two
different PYTHONHASHSEED values, and every count and count ratio must
agree; times (and the timing-based trace.overhead_ratio) are left out.
The towers workload always traces one full pass, so the file takes about
two minutes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_counts(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    return {name: m["value"] for name, m in res["metrics"].items()
            if m["unit"] in ("count", "ratio")
            and name != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", ["corpus", "membership", "towers"])
def test_counts_repeat_across_hash_seeds(workload):
    first = traced_counts(workload, 0)
    second = traced_counts(workload, 4242)
    assert first == second
    assert first["subfields.to_vector.calls"] > 0
