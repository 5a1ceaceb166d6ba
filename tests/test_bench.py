import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_benchmark_runs_on_the_public_api(tmp_path):
    # bench/ builds its group elements through the public constructors, so a
    # renamed or removed class shows here as a failed run
    argv = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
            "--workload", "descent-ext", "--seed", "3", "--questions", "6",
            "--trace", "1", "--out", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert result["metrics"]["germs.act_calls"]["value"] > 0
