"""One traced pass of each benchmark workload, so that a change to a public
name or keyword the benchmark calls fails here first.

Each pass runs perfbench/worker.py in a fresh interpreter, as the benchmark
does, against this checkout's src/.  Nothing under perfbench/ is written:
no Chrome trace is asked for and no bytecode is cached.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# the per-layer metrics that run.py adds around the worker's own
ADDED_BY_RUNNER = {"setup.import_s", "setup.inputs_s", "trace.overhead_s"}


@pytest.mark.parametrize("workload", ["search_verify", "batch_estimate"])
def test_one_traced_pass_of_each_workload(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["checks"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["layers"]) == {m["name"] for m in declared} - ADDED_BY_RUNNER
    if workload == "search_verify":
        # transversal S and H build their rounds from the wrapped half builders,
        # so the traced pass counts those builds under patches.*
        calls = {name: row["calls"] for name, row in result["span_table"].items()}
        protocols = calls["protocols.transversal_s_circuit"] + \
            calls["protocols.transversal_h_circuit"]
        assert calls["patches.first_half_circuit"] >= protocols
        assert calls["patches.second_half_circuit"] >= protocols
