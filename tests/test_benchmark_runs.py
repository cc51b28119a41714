"""The benchmark runs end to end on the smallest workload, traced: every name
it wraps exists, and every check it makes passes."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_traced_benchmark_run_is_correct(tmp_path):
    args = ["--workload", "mlp_lamb8_tiny", "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=tmp_path, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
