"""One pass of a workload in a fresh interpreter; prints one JSON line.

run.py starts this once per pass, with PYTHONPATH set to the checkout's
src/.  Setup is the import of loopfold plus building the inputs from the
seed; the pass's wall time runs from the end of setup to the verdict.
"""

import time

_t0 = time.perf_counter()
import loopfold  # noqa: E402,F401  -- the timed import
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    ap.add_argument("--chrome-trace", help="where a traced pass writes its spans")
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    t = time.perf_counter()
    inputs = workload.inputs(random.Random(args.seed))
    inputs_s = time.perf_counter() - t
    out = {"import_s": IMPORT_S, "inputs_s": inputs_s,
           "python": platform.python_version(), "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return

    rec = None
    if args.trace:
        import layers
        import spans
        rec = spans.Recorder()
        layers.instrument(rec)
    checks = workloads.Checks(wrong_first=args.wrong_expected)
    start_ns = time.perf_counter_ns()
    workload.run(inputs, checks)
    wall_s = (time.perf_counter_ns() - start_ns) / 1e9

    out.update(wall_s=wall_s,
               peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               checks=len(checks.results), failures=checks.failures)
    if rec is not None:
        out["layers"] = layers.metrics(rec, wall_s)
        out["span_table"] = rec.by_name()
        if args.chrome_trace:
            rec.write_chrome_trace(args.chrome_trace, start_ns,
                                   {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
