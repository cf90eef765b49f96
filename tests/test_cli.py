"""Command-line interface: subcommands, config handling, report formats."""

import json
import os
import re
import subprocess
import sys

import pytest

import loopfold
from loopfold.cli import build_parser, main


def run_cli(*argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_cycle_time_human(capsys):
    code, out, _ = run_cli("cycle-time", "--n", "16", capsys=capsys)
    assert code == 0
    assert "27/8*T_loop + 2*T_1q + 4*T_2q + T_meas = 3150 ns" in out
    assert "T*_cyc(16) = 6000 ns" in out


def test_cycle_time_json_schema_and_expression(capsys):
    code, out, _ = run_cli("--json", "cycle-time", "--n", "16", capsys=capsys)
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    t = doc["t_cyc_n2"]
    # re-evaluating the carried expression reproduces the value exactly
    from fractions import Fraction as F
    terms = {k: F(v) for k, v in t["terms"].items()}
    value = terms["t_loop"] * 400 + terms["t_1q"] * 200 + terms["t_2q"] * 100 + terms["t_meas"] * 1000
    assert value == F(t["value_ns"])


def evaluate(expr: str, names: dict):
    """An expression as `cycle-time` prints it, evaluated on exact Fractions."""
    from fractions import Fraction as F
    return eval(re.sub(r"\b\d+\b", lambda m: f"F({m.group()})", expr),
                {"F": F, "max": max, **names})


@pytest.mark.parametrize("config", ["", "t_loop_ns = 1600\n"], ids=["silicon", "t_loop-1600"])
@pytest.mark.parametrize("n", [2, 12, 16])
def test_cycle_time_expressions_evaluate_to_their_values(config, n, tmp_path, capsys):
    """Each printed expression, evaluated on the run's timing parameters,
    gives its own value_ns exactly."""
    from fractions import Fraction as F
    from loopfold.cli import load_config
    cfg = tmp_path / "params.cfg"
    cfg.write_text(config)
    code, out, _ = run_cli("--config", str(cfg), "--json", "cycle-time", "--n", str(n),
                           capsys=capsys)
    assert code == 0
    doc, p = json.loads(out), load_config(str(cfg))
    names = {"t_loop": p.t_loop, "t_1q": p.t_1q, "t_2q": p.t_2q, "t_meas": p.t_meas,
             "n": F(doc["steady_state"]["n"]), "m": F(p.meas_devices), "slack": p.slack_ns,
             "ceil_us": lambda ns: -(-ns // 1000) * 1000}
    t2 = evaluate(doc["t_cyc_n2"]["expr"], names)
    assert t2 == F(doc["t_cyc_n2"]["value_ns"])
    names["t_cyc"] = {2: t2}.__getitem__    # t_cyc(2), the round above
    steady = evaluate(doc["steady_state"]["expr"], names)
    assert steady == F(doc["steady_state"]["value_ns"])
    names["steady"] = steady
    assert evaluate(doc["t_cyc_star"]["expr"], names) == F(doc["t_cyc_star"]["value_ns"])


def test_gate_times(capsys):
    code, out, _ = run_cli("gate-times", "--d", "25", capsys=capsys)
    assert code == 0
    assert "6600" in out and "6800" in out and "2025/2" in out


def test_gate_times_json_carries_each_expression_and_value(capsys):
    from fractions import Fraction as F
    from loopfold.costs import gate_cells, gate_time
    from loopfold.loopsim import SILICON
    code, out, _ = run_cli("--json", "gate-times", "--d", "9", capsys=capsys)
    gates = json.loads(out)["gates"]
    assert code == 0 and sorted(gates) == sorted(
        [f"{g}/{a}" for a in ("pipelined_folded", "pipelined_rotated", "standard")
         for g in ("S", "H", "CNOT")] + ["H/interloop", "SWAP/interloop", "CNOT/interloop"])
    for key, entry in gates.items():
        gate, arch = key.split("/")
        assert F(entry["value_ns"]) == gate_time(gate, arch, 9, SILICON)
        assert entry["expr"] == gate_cells(arch, 9, SILICON)[gate][0]
    assert gates["H/interloop"]["expr"] == "(d-1)*t_int" and "n" not in gates["H/interloop"]
    assert gates["S/pipelined_folded"]["n"] == 16


def test_worst_case_swap(capsys):
    code, out, _ = run_cli("worst-case", "--protocol", "swap", "--n", "8",
                           "--granularity", "1/32", capsys=capsys)
    assert code == 0
    assert "500" in out and "1/4" in out
    assert "configurations scored: 496 in " in out


def test_worst_case_json_reports_configurations_and_search_time(capsys):
    code, out, _ = run_cli("--json", "worst-case", "--protocol", "cnot_stack", "--n", "16",
                           capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["configurations"] == 119
    assert isinstance(doc["search_s"], float) and doc["search_s"] >= 0
    del doc["configurations"], doc["search_s"]
    assert doc == {"schema_version": 1, "protocol": "cnot_stack", "n": 16,
                   "granularity": "1/128", "max_ns": "2025/2", "max_shuttle_ns": "1625/2",
                   "witness": {"lead_offset": "7/32", "pair_gap": "7/16"}}


@pytest.mark.parametrize("argv", [
    ("--protocol", "rearrange", "--n", "0"),
    ("--protocol", "rearrange", "--n", "-2"),
    ("--protocol", "swap", "--n", "1"),
    ("--protocol", "cnot_stack", "--n", "3"),
    ("--protocol", "swap", "--n", "4", "--granularity", "abc"),
    ("--protocol", "swap", "--n", "4", "--granularity", "0"),
    ("--protocol", "swap", "--n", "4", "--granularity", "1/0"),
    ("--protocol", "rearrange", "--n", "8", "--granularity", "1/16"),
])
def test_worst_case_argument_errors(argv, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("arguments must be rejected before the search runs")
    monkeypatch.setattr("loopfold.cli.worst_case_search", no_search)
    code, out, err = run_cli("worst-case", *argv, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("argument error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("table1", "--d", "4"),
    ("table1", "--d", "-3"),
    ("factory", "--variant", "folded", "--d", "4"),
    ("factory", "--variant", "folded", "--d", "1"),
    ("gate-times", "--d", "2"),
    ("cycle-time", "--n", "-3"),
    ("simulate", "--d", "4"),
    ("simulate", "--protocol", "pipeline", "--rounds", "0"),
    ("simulate", "--protocol", "rearrange", "--n", "1"),
    ("layout", "--plan", "--max-swaps", "9"),
    ("layout", "--fixture", "fig10a", "--plan", "--max-swaps", "-1"),
])
def test_argument_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "error: argument --" in err


@pytest.mark.parametrize("line", [
    "slack_us = -1",
    "meas_devices = 0",
    "meas_devices = 2.5",
    "t_int_ns = -5",
])
def test_config_value_errors_exit_4(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert code == 4 and out == ""
    assert err.startswith("config error: ")
    assert line.split("=")[0].strip() in err   # the key the config names


def test_factory_report(capsys):
    code, out, _ = run_cli("factory", "--variant", "folded", capsys=capsys)
    assert code == 0
    assert "215.5625" in out and "22 code cycles" in out and "2.8e-13" in out


@pytest.mark.parametrize("variant, branches", [("folded", 16), ("rotated", 256)])
def test_factory_check_json(variant, branches, capsys):
    code, out, _ = run_cli("--json", "factory", "--variant", variant, "--check", capsys=capsys)
    check = json.loads(out)["check"]
    assert code == 0
    assert set(check) == {"branches", "min_fidelity", "passed", "probability_sum"}
    assert check["branches"] == branches and check["passed"] is True
    assert abs(check["probability_sum"] - 1) < 1e-9 and check["min_fidelity"] > 1 - 1e-9


def test_table1(capsys):
    code, out, _ = run_cli("table1", capsys=capsys)
    assert code == 0
    assert "spacetime saving" in out


def test_simulate_cycle_trace(capsys):
    code, out, _ = run_cli("simulate", "--protocol", "cycle", capsys=capsys)
    assert code == 0
    assert "makespan = 3150 ns" in out


def test_layout_fixtures(capsys):
    code, out, _ = run_cli("layout", "--fixture", "fig10a", capsys=capsys)
    assert code == 0
    assert "simultaneously routable: False" in out
    code, out, _ = run_cli("layout", "--fixture", "fig10b", "--plan", capsys=capsys)
    assert code == 0
    assert "swap plan (4 swaps)" in out


def _fig10a_doc():
    from loopfold.layout import fig10a_fixture
    from test_layout import layout_to_doc
    layout, requests = fig10a_fixture()
    doc = layout_to_doc(layout)
    doc["requests"] = [{"patch_a": r.patch_a, "operator_a": r.operator_a,
                        "patch_b": r.patch_b, "operator_b": r.operator_b}
                       for r in requests]
    return doc


def test_layout_fixture_file_round_trip(tmp_path, capsys):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_fig10a_doc()))
    code, out, _ = run_cli("layout", "--fixture", str(path), capsys=capsys)
    assert code == 0
    assert "simultaneously routable: False" in out


def test_fixture_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli("layout", "--fixture", str(bad), capsys=capsys)
    assert code == 5


def _unknown_patch(doc):
    doc["requests"][1]["patch_b"] = "9"


def _y_boundary(doc):
    doc["layers"][0][0]["ns"] = "Y"


def _y_operator(doc):
    doc["requests"][0]["operator_a"] = "Y"


def _scalar_cell(doc):
    doc["layers"][1][0]["cell"] = 5


def _missing_role(doc):
    doc["layer_roles"].pop()


def _text_layer(doc):
    doc["requests"][0]["layer"] = "0"


def _integer_patch(doc):
    doc["layers"][0][0]["patch"] = 7


def _shared_cell(doc):
    doc["layers"][0][1]["cell"] = doc["layers"][0][0]["cell"]


def _self_merge(doc):
    doc["requests"][0]["patch_b"] = doc["requests"][0]["patch_a"]


def _layer_outside(doc):
    doc["requests"][0]["layer"] = 5


def _fractional_rows(doc):
    doc["rows"] = 2.5


def _text_rows(doc):   # with no patches, nothing else compares the text with a cell
    doc.update(rows="2", layers=[[], []], requests=[])


def _boolean_rows(doc):
    doc["rows"] = True


def _fractional_cell(doc):
    doc["layers"][0][0]["cell"] = [0.5, 0]


def _boolean_cell(doc):   # True would otherwise place the patch on row 1
    doc["layers"][0][0]["cell"] = [True, 0]


def _text_roles(doc):   # list() would otherwise split it into the roles "a" and "b"
    doc["layer_roles"] = "ab"


def _integer_role(doc):
    doc["layer_roles"][0] = 7


@pytest.mark.parametrize("spoil, names", [
    (_unknown_patch, "'9'"), (_y_boundary, "'Y'"), (_y_operator, "'Y'"),
    (_scalar_cell, "int"), (_missing_role, "1 layer roles for 2 layers"),
    (_text_layer, "'0'"), (_integer_patch, "not 7"), (_shared_cell, "cell [0, 1] of layer 0"),
    (_self_merge, "'1' with itself"), (_layer_outside, "layer 5 of a 2-layer stack"),
    (_fractional_rows, "not 2.5"), (_text_rows, "not '2'"), (_boolean_rows, "not True"),
    (_fractional_cell, "not [0.5, 0]"), (_boolean_cell, "not [True, 0]"),
    (_text_roles, "list of strings, not 'ab'"), (_integer_role, "strings, not [7, "),
], ids=["unknown-patch", "y-boundary", "y-operator", "scalar-cell", "missing-role",
        "text-layer", "integer-patch", "shared-cell", "self-merge", "layer-outside",
        "fractional-rows", "text-rows", "boolean-rows", "fractional-cell", "boolean-cell",
        "text-roles", "integer-role"])
@pytest.mark.parametrize("plan", [(), ("--plan",)], ids=["route", "plan"])
def test_bad_fixture_exits_5_without_traceback(spoil, names, plan, tmp_path, capsys):
    doc = _fig10a_doc()
    spoil(doc)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("layout", "--fixture", str(path), *plan, capsys=capsys)
    assert code == 5 and out == ""
    assert err.startswith("fixture error: ") and err.count("\n") == 1
    assert names in err


def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("t_loop_ns = 800\nt_1q_ns = 200\nt_2q_ns = 100\nt_meas_ns = 1000\n")
    code, out, _ = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert code == 0
    assert "= 4500 ns" in out   # 27/8*800 + 2*200 + 4*100 + 1000


@pytest.mark.parametrize("t_2q, expr, terms, value", [
    ("300", "19/8*T_loop + 2*T_1q + 6*T_2q + T_meas", ("19/8", "2", "6", "1"), "4150"),
    ("200", "27/8*T_loop + 2*T_1q + 4*T_2q + T_meas", ("27/8", "2", "4", "1"), "3550")],
    ids=["cnots-limit", "tie"])
def test_cycle_time_prints_the_traced_round(t_2q, expr, terms, value, tmp_path, capsys):
    """Past t_2q = t_loop/2 a two-token loop's three CNOTs limit each half
    round; at the tie the boundary loop, with more shuttle, is named."""
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"t_2q_ns = {t_2q}\n")
    code, out, _ = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert code == 0 and f"T_cyc(n=2) = {expr} = {value} ns\n" in out
    code, out, _ = run_cli("--config", str(cfg), "--json", "cycle-time", capsys=capsys)
    t = json.loads(out)["t_cyc_n2"]
    assert t["terms"] == dict(zip(("t_loop", "t_1q", "t_2q", "t_meas"), terms))
    assert (t["expr"], t["value_ns"]) == (expr.replace("T_", "t_"), value)


@pytest.mark.parametrize("protocol", ["swap", "rearrange", "cycle", "pipeline"])
def test_simulate_json_at_a_rational_config_equals_the_fraction_reference(
        protocol, tmp_path, capsys):
    from fractions import Fraction as F

    from loopfold.cli import load_config
    from loopfold.loopsim import LoopState
    from loopfold.patches import build_patch, embed_stack
    from test_loopsim import (in_ns, ref_pipeline_model, ref_rearrange,
                              ref_simulate_cycle, ref_swap_protocol)
    cfg = tmp_path / "rational.cfg"
    cfg.write_text("t_loop_ns = 1/3\nt_2q_ns = 2/7\nt_1q_ns = 0.1\n")
    code, out, _ = run_cli("--config", str(cfg), "--json", "simulate", "--protocol", protocol,
                           capsys=capsys)
    doc, params = json.loads(out), load_config(str(cfg))
    assert code == 0 and (params.t_loop, params.t_2q, params.t_1q) == (F(1, 3), F(2, 7), F(1, 10))
    if protocol == "pipeline":
        assert [F(a) for a in doc["running_average_ns"]] == ref_pipeline_model(16, params, 50)
        return
    if protocol == "swap":
        ref = ref_swap_protocol(LoopState({0: F(1, 4), 1: F(3, 4)}), 0, 1, params)
    elif protocol == "rearrange":
        ref = ref_rearrange(LoopState.evenly_spaced(8, F(1, 16)), list(range(1, 8)) + [0], params)
    else:
        ref = ref_simulate_cycle(embed_stack([build_patch(3, "folded")]), params)
    assert F(doc["makespan_ns"]) == ref.makespan
    assert [(F(e["start"]), F(e["duration"]), e["action"], tuple(e["tokens"]), e["loop"])
            for e in doc["events"]] == in_ns(ref)


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t_loop_ns = -5\n")
    code, out, err = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert code == 4
    cfg.write_text("nonsense_key = 3\n")
    assert run_cli("--config", str(cfg), "cycle-time", capsys=capsys)[0] == 4
    cfg.write_text("t_loop_ns 400\n")
    assert run_cli("--config", str(cfg), "cycle-time", capsys=capsys)[0] == 4


def test_table1_savings_follow_the_cells_under_a_config(tmp_path, capsys):
    # at t_loop = 1600 ns the folded CNOT cell is 3450 ns, so the CNOT is charged
    # 3 us and its saving against standard is 12d, not the silicon 36d; the
    # factory cells are the counted runtimes 319.25 and 474.67 us rounded up
    cfg = tmp_path / "slow_loop.cfg"
    cfg.write_text("t_loop_ns = 1600\n")
    code, out, _ = run_cli("--json", "--config", str(cfg), "table1", capsys=capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["cells"]["CNOT/pipelined_folded"]["runtime_ns"] == "3450"
    assert doc["cells"]["FACTORY/pipelined_folded"]["runtime_ns"] == "320000"
    assert doc["cells"]["FACTORY/pipelined_rotated"]["runtime_ns"] == "475000"
    assert doc["savings_vs_standard"] == {"H": "300", "S": "150", "CNOT": "300",
                                          "FACTORY": "225/8"}
    assert doc["savings_vs_pipelined_rotated"] == {"H": "300", "S": "75", "CNOT": "2",
                                                   "FACTORY": "95/32"}


def test_config_that_is_not_utf8_exits_4(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfe")
    code, out, err = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert code == 4 and out == ""
    assert err.startswith("config error: cannot read config") and err.count("\n") == 1


def test_config_key_set_twice_exits_4(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("t_loop_ns = 400\nt_loop_ns = 500\n")
    code, out, err = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert (code, out) == (4, "")
    assert err == "config error: line 2: t_loop_ns is already set on line 1\n"


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text("t_loop_ns = 500\n", encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = run_cli("--config", str(plain), "cycle-time", capsys=capsys)
    assert expected[0] == 0 and "6975/2 ns" in expected[1]
    assert run_cli("--config", str(marked), "cycle-time", capsys=capsys) == expected


def test_empty_config_gives_the_timing_defaults(tmp_path):
    from loopfold.cli import load_config
    from loopfold.loopsim import SILICON, TimingParams
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# nothing set\n")
    assert load_config(str(cfg)) == TimingParams() == SILICON


def test_seed_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text("seed = 1\n")
    code, _, err = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert code == 4
    assert "unknown key 'seed'" in err


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_byte_identical_invocations(capsys):
    a = run_cli("--json", "table1", capsys=capsys)[1]
    b = run_cli("--json", "table1", capsys=capsys)[1]
    assert a == b
    a = run_cli("--json", "factory", "--variant", "rotated", capsys=capsys)[1]
    b = run_cli("--json", "factory", "--variant", "rotated", capsys=capsys)[1]
    assert a == b


BACK_TO_BACK = [
    ("--json", "cycle-time", "--n", "16"),
    ("gate-times", "--d", "9"),
    ("--json", "simulate", "--protocol", "swap"),
    ("table1", "--d", "9"),
    ("--json", "layout", "--fixture", "fig10b", "--plan"),
    ("factory", "--variant", "folded"),
]


def separate_process(argv) -> tuple[int, str]:
    """(exit code, stdout) of `python -m loopfold.cli argv` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(loopfold.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "loopfold.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


def test_back_to_back_calls_print_what_separate_processes_print(capsys):
    """`main` builds its parser once per process; calls on different
    subcommands, one after another, still each print what a fresh process
    prints."""
    assert build_parser() is build_parser()
    in_process = [run_cli(*argv, capsys=capsys)[:2] for argv in BACK_TO_BACK]
    assert in_process == [separate_process(argv) for argv in BACK_TO_BACK]


def test_a_call_after_an_argument_error_still_works(capsys):
    for argv in BACK_TO_BACK[:2]:
        with pytest.raises(SystemExit) as exc:
            main(["factory", "--d", "4"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(*argv, capsys=capsys)[:2] == separate_process(argv)


def test_verify_subcommand_small(capsys):
    code, out, _ = run_cli("verify", "--d", "3", "--gate", "S", capsys=capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ("--protocol", "cycle", "--n", "4"),
    ("--protocol", "swap", "--n", "5"),
    ("--protocol", "pipeline", "--d", "5"),
    ("--protocol", "rearrange", "--rounds", "7"),
])
def test_simulate_rejects_options_its_protocol_ignores(argv, capsys):
    code, out, err = run_cli("simulate", *argv, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("argument error: ") and err.count("\n") == 1


def test_verify_json(capsys):
    code, out, _ = run_cli("--json", "verify", "--gate", "S", "--d", "3", capsys=capsys)
    doc = json.loads(out)
    assert code == 0 and doc["passed"] == doc["total"] == len(doc["checks"]) == 3
    assert doc["checks"][0] == {"name": "transversal-S d=3 tableau", "passed": True,
                                "detail": "logical action = S"}


def test_verify_json_all_gates(capsys):
    # the dense-oracle and s-teleport checks compare numpy floats
    code, out, _ = run_cli("--json", "verify", "--d", "3", capsys=capsys)
    doc = json.loads(out)
    assert code == 0 and doc["passed"] == doc["total"] == len(doc["checks"]) == 11
    assert all(c["passed"] is True for c in doc["checks"])
    assert doc["checks"][-1]["name"] == "s-teleport i_state dense"


def test_verify_json_reports_the_wall_time_of_each_call(capsys):
    code, out, _ = run_cli("--json", "verify", "--d", "3", capsys=capsys)
    stats = json.loads(out)["stats"]
    assert set(stats) == {"calls", "total_s"}
    assert [(c["call"], c["args"]) for c in stats["calls"]] == [
        ("verify_single_qubit", [3, "S"]), ("verify_single_qubit", [3, "H"]),
        ("verify_two_qubit", [3, "CNOT"]), ("verify_two_qubit", [3, "SWAP"]),
        ("verify_s_teleport", [])]
    assert all(set(c) == {"call", "args", "wall_s"} and c["wall_s"] > 0
               for c in stats["calls"])
    assert stats["total_s"] >= sum(c["wall_s"] for c in stats["calls"])
    code, text, _ = run_cli("verify", "--d", "3", capsys=capsys)
    assert "wall" not in text and "stats" not in text


def test_verify_takes_an_odd_distance_above_5(capsys):
    code, out, _ = run_cli("verify", "--gate", "S", "--d", "7", capsys=capsys)
    assert code == 0 and "2/2 checks passed" in out


@pytest.mark.skipif(os.environ.get("LOOPFOLD_SLOW") != "1",
                    reason="slow (about 3 s); set LOOPFOLD_SLOW=1 to run")
def test_verify_d25_passes_all_nine_checks(capsys):
    code, out, _ = run_cli("--json", "verify", "--d", "25", capsys=capsys)
    doc = json.loads(out)
    assert code == 0 and doc["passed"] == doc["total"] == len(doc["checks"]) == 9
    assert all(c["passed"] is True for c in doc["checks"])


def test_verify_even_distance_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--d", "4"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
