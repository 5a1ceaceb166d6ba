import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# bench/tracer.py patches these callables by name, and a callable that has
# moved reads 0, so each workload's counters must see calls
@pytest.mark.parametrize("workload,counters", [
    ("descent-ext", ["germs.act_calls", "jets.mul_calls", "jets.rref_calls"]),
    ("ff-solve", ["polysys.evaluate_calls"]),
    # the workload that spends the most time in tangent._candidates
    ("depth-bounds-q", ["jets.rref_calls", "jets.membership_calls",
                        "tangent.comparison_bound_s"]),
], ids=["descent-ext", "ff-solve", "depth-bounds-q"])
def test_the_benchmark_runs_on_the_public_api(tmp_path, workload, counters):
    # bench/ builds its group elements through the public constructors, so a
    # renamed or removed class shows here as a failed run
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
            "--workload", workload, "--seed", "3", "--questions", "6",
            "--trace", "1", "--out", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    for name in counters:
        assert result["metrics"][name]["value"] > 0, name
