"""Run one loopfold benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; loopfold is imported from its src/.  Every
pass starts a fresh interpreter (worker.py), as every loopfold invocation
does, and passes run one after another until --seconds is used up (at
least MIN_PASSES of them).  Between passes only the seed's inputs are
shared, so the reported numbers are medians over independent cold runs.

--trace 0 prints the end-to-end metrics: wall_s (setup end to verdict),
setup_s (import of loopfold plus building the inputs, sampled in every
pass and in one setup-only interpreter before each pass) and peak_rss_mib.  --trace 1 alternates untraced and traced
passes and prints the per-layer metrics of the traced ones, plus
trace.overhead_s, the traced minus the untraced median wall time.

The last stdout line is one JSON object with the keys correct, attempted
(checks evaluated), failed (checks failed) and metrics.  The exit status is
0 only if every check passed; a pass that crashes ends the run with status
2 and no result line.  Full records and the Chrome trace of the last
traced pass go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from catalog import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("search_verify", "batch_estimate")
MIN_PASSES = 3           # untraced passes; a traced run makes two of each kind
PASS_TIMEOUT_S = 120
BLAS_THREADS = 1         # one numpy thread, so passes do not compete for the cores


class PassFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(args, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(proc.stderr.strip()[-2000:] or f"exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_id() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--wrong-expected", action="store_true",
                    help="self-test: make the first expected value wrong")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "loopfold" / "__init__.py").is_file():
        print(f"no loopfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    chrome = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    wrong = ["--wrong-expected"] if args.wrong_expected else []

    try:
        run_pass(args, "--setup-only")       # warm-up: byte-code caches, page cache
        start = time.monotonic()
        setups: list[dict] = []
        plain: list[dict] = []
        traced: list[dict] = []
        longest = 0.0
        while True:
            want_traced = bool(args.trace) and len(traced) < len(plain)
            done = (len(traced) >= 2 and len(plain) >= 2) if args.trace \
                else len(plain) >= MIN_PASSES
            if done and time.monotonic() + longest > start + args.seconds:
                break
            t = time.monotonic()
            # setup-only probes spread over the run add samples to setup_s
            setups.append(run_pass(args, "--setup-only"))
            if want_traced:
                traced.append(run_pass(args, "--trace", "1",
                                       "--chrome-trace", str(chrome), *wrong))
            else:
                plain.append(run_pass(args, *wrong))
            longest = max(longest, time.monotonic() - t)
    except PassFailed as exc:
        print(f"pass failed: {exc}", file=sys.stderr)
        return 2

    passes = plain + traced
    samples = setups + passes                # every interpreter measured its setup
    attempted = sum(p["checks"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]

    if args.trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["setup.import_s"] = statistics.median(s["import_s"] for s in samples)
        layers["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in samples)
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        values = {k: [layers[k]] for k in layers}
        units = PER_LAYER
    else:
        values = {"wall_s": [p["wall_s"] for p in plain],
                  "setup_s": [s["import_s"] + s["inputs_s"] for s in samples],
                  "peak_rss_mib": [p["peak_rss_mib"] for p in plain]}
        units = END_TO_END
    metrics = {k: {"value": statistics.median(values[k]), "unit": u} for k, u in units}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit_id(), "src_sha256": source_digest(),
        "python": setups[0]["python"], "numpy": setups[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "passes": len(plain), "traced_passes": len(traced),
        "setup_samples": len(samples), "checks_per_pass": passes[0]["checks"],
    }
    for i, p in enumerate(passes, 1):
        kind = "traced" if i > len(plain) else "plain"
        print(f"pass {i} ({kind}): wall_s {p['wall_s']:.4f} peak_rss_mib "
              f"{p['peak_rss_mib']:.1f} checks {p['checks']} "
              f"checks_failed {len(p['failures'])}")
    if traced:
        print(f"span table of the last traced pass (trace in {chrome.relative_to(ROOT)}):")
        print(f"  {'span':<44} {'calls':>7} {'total_s':>9} {'self_s':>9}")
        for name, row in sorted(traced[-1]["span_table"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<44} {row['calls']:>7} {row['total_s']:>9.4f} {row['self_s']:>9.4f}")
    for name, detail in failures[:20]:
        print(f"FAILED {name}: {detail}")
    for name, m in metrics.items():
        spread = ""
        if len(values[name]) > 1:
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            spread = f"  (median of {len(values[name])}, quartiles {q1:.6g} .. {q3:.6g})"
        print(f"{name} {m['value']:.6g} {m['unit']}{spread}")
    print(f"checks {attempted} count")
    print(f"checks_failed {len(failures)} count")
    print("record " + json.dumps(record, sort_keys=True))

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "record": record, "passes": passes,
                    "setups": setups}, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
