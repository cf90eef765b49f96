"""Command-line front end: config ingestion, subcommands, report emission.

Reports are dual-emitted: an aligned human-readable table on stdout and,
with --json, a machine-readable document (schema_version 1) where every
numeric quantity carries its defining expression and exact rational value.
Exit status 0 iff every check in the invocation passed; 2 argument errors,
4 config errors, 5 fixture errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .costs import (OPERATING_N, STEADY_STATE_EXPR, T_CYC_STAR_EXPR, effective_cycle_time,
                    gate_cells, pipeline_steady_state, table1)
from .factory import ccz_factory_spec, factory_runtime, verify_factory
from .layout import (MergeRequest, check_requests, fig10a_fixture, fig10b_fixture,
                     layout_from_doc, plan_with_swaps, routable)
from .loopsim import (LoopState, TimingParams, cycle_trace_n2, pipeline_model, rearrange,
                      search_lattice, simulate_cycle, swap_protocol, worst_case_search)
from .patches import build_patch, embed_stack
from .verify import verify_s_teleport, verify_single_qubit, verify_two_qubit

SCHEMA_VERSION = 1

# config key -> (the TimingParams field it sets, that field's units per config unit)
CONFIG_KEYS = {"t_loop_ns": ("t_loop", 1), "t_1q_ns": ("t_1q", 1), "t_2q_ns": ("t_2q", 1),
               "t_meas_ns": ("t_meas", 1), "t_int_ns": ("t_int", 1),
               "meas_devices": ("meas_devices", 1), "slack_us": ("slack_ns", 1000)}


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> TimingParams:
    """Flat key = value UTF-8 text config, each key set at most once (a leading
    byte-order mark is allowed); TimingParams' defaults for the keys it leaves out."""
    values, set_on = {}, {}     # key -> value, key -> the line that set it
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in set_on:
                raise ConfigError(f"line {lineno}: {key} is already set on line {set_on[key]}")
            set_on[key] = lineno
            try:
                values[key] = Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"line {lineno}: bad value {raw!r}") from exc
    for key in ("t_loop_ns", "t_1q_ns", "t_2q_ns", "t_meas_ns", "t_int_ns"):
        if key in values and values[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if values.get("slack_us", 0) < 0:
        raise ConfigError("slack_us must be nonnegative")
    if "meas_devices" in values:
        m = values["meas_devices"]
        if m.denominator != 1 or m < 1:
            raise ConfigError(f"meas_devices must be an integer >= 1, got {m}")
        values["meas_devices"] = int(m)
    try:
        return TimingParams(**{CONFIG_KEYS[k][0]: v * CONFIG_KEYS[k][1]
                               for k, v in values.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(doc: dict, as_json: bool, human: str) -> None:
    if as_json:
        doc = {"schema_version": SCHEMA_VERSION, **doc}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human, end="")


def _integer(lo: int, hi: int | None = None, odd: bool = False):
    """argparse type: an integer in [lo, hi] (odd if asked); anything else exits 2."""
    what = (("an odd integer" if odd else "an integer")
            + (f" >= {lo}" if hi is None else f" in {lo}..{hi}"))

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lo or (hi is not None and value > hi) or (odd and value % 2 == 0):
            raise argparse.ArgumentTypeError(f"{value} is not {what}")
        return value
    return convert


DISTANCE = _integer(3, odd=True)


def _argument_error(message: str) -> int:
    print(f"argument error: {message}", file=sys.stderr)
    return 2


# -- subcommands ----------------------------------------------------------------

def cmd_verify(args, params) -> int:
    checks, calls = [], []

    def run(check, *check_args):
        start = time.perf_counter()
        checks.extend(check(*check_args))
        calls.append({"call": check.__name__, "args": list(check_args),
                      "wall_s": time.perf_counter() - start})

    began = time.perf_counter()
    d_values = [args.d] if args.d else [3, 5]
    for d in d_values:
        for gate in ("S", "H"):
            if args.gate in (gate, "all"):
                run(verify_single_qubit, d, gate)
        if args.gate in ("CNOT", "all"):
            run(verify_two_qubit, d, "CNOT")
        if args.gate == "all":
            run(verify_two_qubit, d, "SWAP")
    if args.gate == "all":
        run(verify_s_teleport)
    total_s = time.perf_counter() - began
    passed = sum(c.passed for c in checks)
    doc = {"checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                      for c in checks],
           "passed": passed, "total": len(checks),
           "stats": {"calls": calls, "total_s": total_s}}
    human = "".join(f"{c}\n" for c in checks) + f"{passed}/{len(checks)} checks passed\n"
    _emit(doc, args.json, human)
    return 0 if passed == len(checks) else 1


def cmd_cycle_time(args, params) -> int:
    n = args.n
    trace = cycle_trace_n2(params)
    t2, terms = trace.makespan, trace.meta["terms"]
    expr = " + ".join(name if k == 1 else f"{k}*{name}" for name, k in terms.items())
    steady, star = pipeline_steady_state(n, params), effective_cycle_time(n, params)
    doc = {"t_cyc_n2": {"expr": expr, "terms": {name: str(k) for name, k in terms.items()},
                        "value_ns": str(t2)},
           "steady_state": {"expr": STEADY_STATE_EXPR, "n": n, "value_ns": str(steady)},
           "t_cyc_star": {"expr": T_CYC_STAR_EXPR, "value_ns": str(star)}}
    human = (f"T_cyc(n=2) = {expr.replace('t_', 'T_')} = {t2} ns\n"
             f"steady state (n={n}, m={params.meas_devices}) = {steady} ns\n"
             f"T*_cyc({n}) = {star} ns\n")
    _emit(doc, args.json, human)
    return 0


def cmd_gate_times(args, params) -> int:
    d = args.d
    rows = []
    doc = {"d": d, "gates": {}}
    for arch, gates in (("pipelined_folded", ("S", "H", "CNOT")),
                        ("pipelined_rotated", ("S", "H", "CNOT")),
                        ("standard", ("S", "H", "CNOT")),
                        ("interloop", ("H", "SWAP", "CNOT"))):
        cells = gate_cells(arch, d, params)
        for gate in gates:
            expr, t = cells[gate]
            entry = doc["gates"][f"{gate}/{arch}"] = {"expr": expr, "value_ns": str(t)}
            if arch == "interloop":    # its row shows no loop occupancy
                rows.append((gate, arch, "-", t))
            else:
                entry["n"] = OPERATING_N[arch]
                rows.append((gate, arch, entry["n"], t))
    width = max(len(a) for _, a, _, _ in rows)
    human = "".join(f"{g:<5} {a:<{width}} n={str(n):<3} {t} ns\n" for g, a, n, t in rows)
    _emit(doc, args.json, human)
    return 0


# simulate options and the protocols that read them
_SIMULATE_OPTIONS = {"n": ("rearrange", "pipeline"), "d": ("cycle",), "rounds": ("pipeline",)}


def cmd_simulate(args, params) -> int:
    for option, readers in _SIMULATE_OPTIONS.items():
        if getattr(args, option) is not None and args.protocol not in readers:
            return _argument_error(f"--{option} does not apply to --protocol {args.protocol}")
    if args.protocol == "cycle":
        sched = simulate_cycle(embed_stack([build_patch(args.d or 3, "folded")]), params)
    elif args.protocol == "swap":
        loop = LoopState({0: Fraction(1, 4), 1: Fraction(3, 4)})
        sched = swap_protocol(loop, 0, 1, params)
    elif args.protocol == "rearrange":
        n = args.n or 8
        loop = LoopState.evenly_spaced(n, Fraction(1, 2 * n))
        target = list(range(1, n)) + [0]
        sched = rearrange(loop, target, params)
    else:   # pipeline, the last protocol the parser admits
        n = args.n or 16
        avgs = pipeline_model(n, params, args.rounds or 50)
        human = "".join(f"round {i+1:3d}  avg cycle {float(a):10.3f} ns  ({a})\n"
                        for i, a in enumerate(avgs))
        doc = {"protocol": "pipeline", "n": n,
               "running_average_ns": [str(a) for a in avgs]}
        _emit(doc, args.json, human)
        return 0
    doc = {"protocol": args.protocol, "makespan_ns": str(sched.makespan),
           "events": [{"start": str(sched.ns(e.start)), "duration": str(sched.ns(e.duration)),
                       "action": e.action, "loop": e.loop,
                       "tokens": list(e.tokens)} for e in sched.events]}
    _emit(doc, args.json, sched.to_text() + f"makespan = {sched.makespan} ns\n")
    return 0


def cmd_worst_case(args, params) -> int:
    try:
        granularity = None if args.granularity is None else Fraction(args.granularity)
    except (ValueError, ZeroDivisionError):
        return _argument_error(f"--granularity {args.granularity!r} is not a fraction")
    try:
        gamma = search_lattice(args.protocol, args.n, granularity)
    except ValueError as exc:
        return _argument_error(str(exc))
    start = time.perf_counter()
    res = worst_case_search(args.protocol, args.n, gamma, params)
    search_s = time.perf_counter() - start
    doc = {"protocol": res.protocol, "n": res.n, "granularity": str(res.granularity),
           "max_ns": str(res.maximum), "max_shuttle_ns": str(res.shuttle_maximum),
           "witness": res.witness, "configurations": res.configurations,
           "search_s": search_s}
    _emit(doc, args.json, f"{res} in {search_s:.3f} s\n")
    return 0


def cmd_factory(args, params) -> int:
    report = factory_runtime(args.variant, params, args.d)
    ok = True
    lines = [f"8T-to-CCZ factory, {args.variant} architecture, d={args.d}"]
    for name, val in report.runtime_terms.items():
        lines.append(f"  {name:<24} {float(val/1000):10.4f} us  ({val} ns)")
    lines.append(f"  {'total runtime':<24} {float(report.runtime_ns/1000):10.4f} us")
    lines.append(f"  space {report.space} patch areas; spacetime {report.spacetime_ns} ns")
    lines.append(f"  cultivation {report.cultivation_cycles} code cycles")
    lines.append(f"  output error {float(report.output_error):.3g}")
    doc = report.to_doc()
    if args.check:
        ver = verify_factory(ccz_factory_spec(args.variant))
        ok = ver.passed
        lines.append(f"  logical verification over {len(ver.branches)} branches: "
                     f"min fidelity {ver.min_fidelity:.12f} -> {'PASS' if ver.passed else 'FAIL'}")
        doc["check"] = {"branches": len(ver.branches), "min_fidelity": ver.min_fidelity,
                        "passed": ver.passed, "probability_sum": ver.probability_sum}
    _emit(doc, args.json, "\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_table1(args, params) -> int:
    report = table1(params, args.d)
    _emit(report.to_doc(), args.json, report.to_text())
    return 0


def cmd_layout(args, params) -> int:
    if args.fixture in ("fig10a", "fig10b"):
        layout, requests = (fig10a_fixture if args.fixture == "fig10a" else fig10b_fixture)()
    else:
        try:
            doc = json.loads(Path(args.fixture).read_text())
            layout = layout_from_doc(doc)
            requests = [MergeRequest(r["patch_a"], r["operator_a"],
                                     r["patch_b"], r["operator_b"], r.get("layer"))
                        for r in doc.get("requests", [])]
            check_requests(layout, requests)
        except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            print(f"fixture error: {exc}", file=sys.stderr)
            return 5
    res = routable(layout, requests)
    lines = [layout.to_text()]
    lines.append(f"requests: {', '.join(map(str, requests))}")
    lines.append(f"simultaneously routable: {res.feasible} (explored {res.explored} path sets)")
    doc = {"routable": res.feasible, "explored": res.explored,
           "paths": {str(r): [list(c) for c in p] for r, p in res.paths.items()}}
    if args.plan:
        plan = plan_with_swaps(layout, requests, max_swaps=args.max_swaps)
        doc["plan"] = {"feasible": plan.feasible, "swaps": plan.swaps,
                       "states_explored": plan.states_explored}
        if plan.feasible:
            lines.append(f"swap plan ({len(plan)} swaps): {plan.swaps}")
        else:
            lines.append(f"no plan within {args.max_swaps} swaps "
                         f"({plan.states_explored} states searched)")
    _emit(doc, args.json, "\n".join(lines) + "\n")
    return 0


@functools.cache   # built once per process; each parse returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="loopfold",
                                 description="looped-pipeline folded-surface-code toolkit")
    ap.add_argument("--config", help="key = value timing config file")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="protocol logical-action checks")
    p.add_argument("--d", type=DISTANCE, help="code distance (default: 3 and 5)")
    p.add_argument("--gate", default="all", choices=("S", "H", "CNOT", "all"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cycle-time", help="stabilizer cycle times")
    p.add_argument("--n", type=_integer(2), default=2)
    p.set_defaults(func=cmd_cycle_time)

    p = sub.add_parser("gate-times", help="closed-form logical gate times")
    p.add_argument("--d", type=DISTANCE, default=25)
    p.set_defaults(func=cmd_gate_times)

    p = sub.add_parser("simulate", help="emit a timed event trace")
    p.add_argument("--protocol", default="cycle",
                   choices=("cycle", "swap", "rearrange", "pipeline"))
    p.add_argument("--d", type=DISTANCE, help="code distance for cycle (default 3)")
    p.add_argument("--n", type=_integer(2),
                   help="tokens (default 8 for rearrange, 16 for pipeline)")
    p.add_argument("--rounds", type=_integer(1), help="rounds for pipeline (default 50)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("worst-case", help="exhaustive worst-case search")
    p.add_argument("--protocol", required=True,
                   choices=("swap", "rearrange", "cnot_stack"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--granularity", help="lattice spacing as a fraction, e.g. 1/32")
    p.set_defaults(func=cmd_worst_case)

    p = sub.add_parser("factory", help="8T-to-CCZ factory report")
    p.add_argument("--variant", required=True, choices=("folded", "rotated"))
    p.add_argument("--d", type=DISTANCE, default=25)
    p.add_argument("--check", action="store_true",
                   help="run the dense logical verification too")
    p.set_defaults(func=cmd_factory)

    p = sub.add_parser("table1", help="spacetime-overhead table reproduction")
    p.add_argument("--d", type=DISTANCE, default=25)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("layout", help="routability verdicts for a layout fixture")
    p.add_argument("--fixture", default="fig10a",
                   help="fig10a, fig10b, or a fixture JSON path")
    p.add_argument("--plan", action="store_true", help="search for a swap plan")
    p.add_argument("--max-swaps", type=_integer(0, 8), default=4)
    p.set_defaults(func=cmd_layout)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        params = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    return args.func(args, params)


if __name__ == "__main__":
    sys.exit(main())
