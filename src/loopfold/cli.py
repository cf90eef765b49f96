"""Command-line front end: config ingestion, subcommands, report emission.

Reports are dual-emitted: an aligned human-readable table on stdout and,
with --json, a machine-readable document (schema_version 1) where every
numeric quantity carries its defining expression and exact rational value.
Exit status 0 iff every check in the invocation passed; 2 argument errors,
4 config errors, 5 fixture errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .costs import (cycle_time_n2, effective_cycle_time, gate_time,
                    pipeline_steady_state, table1)
from .factory import ccz_factory_spec, factory_runtime, verify_factory
from .layout import (MergeRequest, fig10a_fixture, fig10b_fixture,
                     layout_from_doc, plan_with_swaps, routable)
from .loopsim import (LoopState, TimingParams, pipeline_model, rearrange,
                      search_lattice, simulate_cycle, swap_protocol,
                      worst_case_search)
from .patches import build_patch, embed_stack
from .verify import verify_s_teleport, verify_single_qubit, verify_two_qubit

SCHEMA_VERSION = 1

CONFIG_KEYS = ("t_loop_ns", "t_1q_ns", "t_2q_ns", "t_meas_ns", "t_int_ns",
               "meas_devices", "slack_us")


class ConfigError(ValueError):
    pass


def load_config(path: str | None) -> TimingParams:
    """Flat key = value text config; silicon defaults when absent."""
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
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
            try:
                values[key] = Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"line {lineno}: bad value {raw!r}") from exc
    def get(key, default):
        return values.get(key, Fraction(default))
    t_loop = get("t_loop_ns", 400)
    t_int = values.get("t_int_ns")
    for key in ("t_loop_ns", "t_1q_ns", "t_2q_ns", "t_meas_ns"):
        if key in values and values[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    return TimingParams(
        t_loop=t_loop,
        t_1q=get("t_1q_ns", 200),
        t_2q=get("t_2q_ns", 100),
        t_meas=get("t_meas_ns", 1000),
        meas_devices=int(get("meas_devices", 3)),
        t_int=t_int,
        slack_ns=get("slack_us", Fraction(1, 2)) * 1000,
    )


def _emit(doc: dict, as_json: bool, human: str) -> None:
    if as_json:
        doc = {"schema_version": SCHEMA_VERSION, **doc}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(human, end="")


def _argument_error(message: str) -> int:
    print(f"argument error: {message}", file=sys.stderr)
    return 2


# -- subcommands ----------------------------------------------------------------

def cmd_verify(args, params) -> int:
    checks = []
    d_values = [args.d] if args.d else [3, 5]
    for d in d_values:
        for gate in ("S", "H"):
            if args.gate in (gate, "all"):
                checks += verify_single_qubit(d, gate)
        if args.gate in ("CNOT", "all"):
            checks += verify_two_qubit(d, "CNOT")
        if args.gate == "all":
            checks += verify_two_qubit(d, "SWAP")
    if args.gate == "all":
        checks += verify_s_teleport()
    for c in checks:
        print(c)
    ok = all(c.passed for c in checks)
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if ok else 1


def cmd_cycle_time(args, params) -> int:
    n = args.n
    t2 = cycle_time_n2(params)
    doc = {
        "t_cyc_n2": {"expr": "27/8*t_loop + 2*t_1q + 4*t_2q + t_meas",
                     "terms": {"t_loop": "27/8", "t_1q": "2", "t_2q": "4", "t_meas": "1"},
                     "value_ns": str(t2)},
    }
    human = (f"T_cyc(n=2) = 27/8*T_loop + 2*T_1q + 4*T_2q + T_meas = {t2} ns\n")
    if n >= 2:
        steady = pipeline_steady_state(n, params)
        star = effective_cycle_time(n, params)
        doc["steady_state"] = {"expr": "max(t_cyc(2), n/m*t_meas)", "n": n,
                               "value_ns": str(steady)}
        doc["t_cyc_star"] = {"expr": "ceil_us(steady + slack)", "value_ns": str(star)}
        human += (f"steady state (n={n}, m={params.meas_devices}) = {steady} ns\n"
                  f"T*_cyc({n}) = {star} ns\n")
    _emit(doc, args.json, human)
    return 0


def cmd_gate_times(args, params) -> int:
    d = args.d
    rows = []
    doc = {"d": d, "gates": {}}
    for arch, n in (("pipelined_folded", 16), ("pipelined_rotated", 12), ("standard", 2)):
        for gate in ("S", "H", "CNOT"):
            t = gate_time(gate, arch, n, d, params)
            rows.append((gate, arch, n, t))
            doc["gates"][f"{gate}/{arch}"] = {"n": n, "value_ns": str(t)}
    for gate, expr in (("H", "(d-1)*t_int"), ("SWAP", "d*t_int"), ("CNOT", "2d*t_int")):
        t = gate_time(gate, "interloop", 2, d, params)
        rows.append((gate, "interloop", "-", t))
        doc["gates"][f"{gate}/interloop"] = {"expr": expr, "value_ns": str(t)}
    width = max(len(a) for _, a, _, _ in rows)
    human = "".join(f"{g:<5} {a:<{width}} n={str(n):<3} {t} ns\n" for g, a, n, t in rows)
    _emit(doc, args.json, human)
    return 0


def cmd_simulate(args, params) -> int:
    if args.protocol == "cycle":
        patch = build_patch(args.d, "folded")
        sched = simulate_cycle(embed_stack([patch]), params)
    elif args.protocol == "swap":
        loop = LoopState({0: Fraction(1, 4), 1: Fraction(3, 4)})
        sched = swap_protocol(loop, 0, 1, params)
    elif args.protocol == "rearrange":
        n = args.n if args.n >= 2 else 8
        loop = LoopState.evenly_spaced(n, Fraction(1, 2 * n))
        target = list(range(1, n)) + [0]
        sched = rearrange(loop, target, params)
    elif args.protocol == "pipeline":
        n = args.n if args.n >= 2 else 16
        avgs = pipeline_model(n, params, args.rounds)
        human = "".join(f"round {i+1:3d}  avg cycle {float(a):10.3f} ns  ({a})\n"
                        for i, a in enumerate(avgs))
        doc = {"protocol": "pipeline", "n": n,
               "running_average_ns": [str(a) for a in avgs]}
        _emit(doc, args.json, human)
        return 0
    else:
        raise ConfigError(f"unknown protocol {args.protocol}")
    doc = {"protocol": args.protocol, "makespan_ns": str(sched.makespan),
           "events": [{"start": str(e.start), "duration": str(e.duration),
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
    res = worst_case_search(args.protocol, args.n, gamma, params)
    doc = {"protocol": res.protocol, "n": res.n, "granularity": str(res.granularity),
           "max_ns": str(res.maximum), "max_shuttle_ns": str(res.shuttle_maximum),
           "witness": res.witness}
    _emit(doc, args.json, str(res) + "\n")
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
    if args.check:
        ver = verify_factory(ccz_factory_spec(args.variant))
        ok = ver.passed
        lines.append(f"  logical verification over {len(ver.branches)} branches: "
                     f"min fidelity {ver.min_fidelity:.12f} -> {'PASS' if ver.passed else 'FAIL'}")
    _emit(report.to_doc(), args.json, "\n".join(lines) + "\n")
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
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="loopfold",
                                 description="looped-pipeline folded-surface-code toolkit")
    ap.add_argument("--config", help="key = value timing config file")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="protocol logical-action checks")
    p.add_argument("--d", type=int, choices=(3, 5))
    p.add_argument("--gate", default="all", choices=("S", "H", "CNOT", "all"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cycle-time", help="stabilizer cycle times")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=cmd_cycle_time)

    p = sub.add_parser("gate-times", help="closed-form logical gate times")
    p.add_argument("--d", type=int, default=25)
    p.set_defaults(func=cmd_gate_times)

    p = sub.add_parser("simulate", help="emit a timed event trace")
    p.add_argument("--protocol", default="cycle",
                   choices=("cycle", "swap", "rearrange", "pipeline"))
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--rounds", type=int, default=50)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("worst-case", help="exhaustive worst-case search")
    p.add_argument("--protocol", required=True,
                   choices=("swap", "rearrange", "cnot_stack"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--granularity", help="lattice spacing as a fraction, e.g. 1/32")
    p.set_defaults(func=cmd_worst_case)

    p = sub.add_parser("factory", help="8T-to-CCZ factory report")
    p.add_argument("--variant", required=True, choices=("folded", "rotated"))
    p.add_argument("--d", type=int, default=25)
    p.add_argument("--check", action="store_true",
                   help="run the dense logical verification too")
    p.set_defaults(func=cmd_factory)

    p = sub.add_parser("table1", help="spacetime-overhead table reproduction")
    p.add_argument("--d", type=int, default=25)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("layout", help="routability verdicts for a layout fixture")
    p.add_argument("--fixture", default="fig10a",
                   help="fig10a, fig10b, or a fixture JSON path")
    p.add_argument("--plan", action="store_true", help="search for a swap plan")
    p.add_argument("--max-swaps", type=int, default=4)
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
