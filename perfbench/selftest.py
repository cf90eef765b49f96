"""Self-test of the benchmark itself; exits 0 when every test holds.

    python3 perfbench/selftest.py

1. BENCHMARK.json names the workloads and metrics that run.py reports.
2. A deliberately wrong expected value makes the run fail: checks_failed is
   nonzero, correct is false and the exit status is nonzero.
3. Two seeds give the same configuration, branch and instance counts on
   every workload (traced runs, so the counts come from the spans).
4. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from catalog import END_TO_END, PER_LAYER
from run import OUT, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent

# traced counts that must not depend on the seed
SEED_FREE_COUNTS = ("loopsim.rearrange_configs", "factory.branches", "logical.action_calls",
                    "logical.tableau_qubits", "verify.dense_amplitudes", "cli.calls")
# spans whose call count is the number of instances a workload runs
INSTANCE_SPANS = ("loopsim.worst_case_search.rearrange", "loopsim.worst_case_search.swap",
                  "loopsim.worst_case_search.cnot_stack", "loopsim.pipeline_model",
                  "loopsim.rearrange", "loopsim.swap_protocol", "layout.plan_with_swaps",
                  "logical.logical_action", "verify.dense_protocol_fidelity", "cli.main")


def run(cwd: Path, *args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def test_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(table):
            errors.append(f"BENCHMARK.json {key} differs from catalog")
    return errors


def test_wrong_expected() -> list[str]:
    code, result = run(ROOT, "--workload", "batch_estimate", "--seed", "1", "--seconds", "1",
                       "--trace", "0", "--wrong-expected")
    if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
        return [f"wrong expected value not caught: exit {code}, result {result}"]
    return []


def test_seed_free_counts() -> list[str]:
    errors = []
    for workload in WORKLOADS:
        seen = []
        for seed in (1, 2):
            code, result = run(ROOT, "--workload", workload, "--seed", str(seed),
                               "--seconds", "1", "--trace", "1")
            if code != 0:
                errors.append(f"{workload} seed {seed}: exit {code}")
                break
            record = json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())
            spans = record["passes"][-1]["span_table"]
            seen.append(({k: result["metrics"][k]["value"] for k in SEED_FREE_COUNTS},
                         {k: spans.get(k, {}).get("calls", 0) for k in INSTANCE_SPANS}))
        if len(seen) == 2 and seen[0] != seen[1]:
            errors.append(f"{workload}: counts differ between seeds: {seen}")
    return errors


def test_bare_directory() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result = run(bare, "--workload", "batch_estimate", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    if code == 0 or result is not None:
        return [f"bare directory: exit {code}, result {result}"]
    return []


def main() -> int:
    errors = []
    for test in (test_benchmark_json, test_wrong_expected, test_seed_free_counts,
                 test_bare_directory):
        found = test()
        print(f"{'FAIL' if found else 'ok'} {test.__name__}")
        errors += found
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
