"""The benchmark runs end to end on every workload, traced: every name it
wraps exists, and every check it makes passes. Between them the workloads
take the Q8 and F16 wires, 8-bit and fp32 state, LAMB and Adam, and the
checkpoint round trip."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["q8_lamb8_4m", "logreg_adam32_f16", "mlp_lamb8_tiny"])
def test_traced_benchmark_run_is_correct(tmp_path, workload):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=tmp_path, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
