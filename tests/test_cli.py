"""Command-line interface: subcommands, config handling, report formats."""

import json

import pytest

from loopfold.cli import main


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


def test_gate_times(capsys):
    code, out, _ = run_cli("gate-times", "--d", "25", capsys=capsys)
    assert code == 0
    assert "6600" in out and "6800" in out and "2025/2" in out


def test_worst_case_swap(capsys):
    code, out, _ = run_cli("worst-case", "--protocol", "swap", "--n", "8",
                           "--granularity", "1/32", capsys=capsys)
    assert code == 0
    assert "500" in out and "1/4" in out


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


def test_factory_report(capsys):
    code, out, _ = run_cli("factory", "--variant", "folded", capsys=capsys)
    assert code == 0
    assert "215.5625" in out and "22 code cycles" in out and "2.8e-13" in out


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


def test_layout_fixture_file_round_trip(tmp_path, capsys):
    from loopfold.layout import fig10a_fixture, layout_to_doc
    layout, requests = fig10a_fixture()
    doc = layout_to_doc(layout)
    doc["requests"] = [{"patch_a": r.patch_a, "operator_a": r.operator_a,
                        "patch_b": r.patch_b, "operator_b": r.operator_b}
                       for r in requests]
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("layout", "--fixture", str(path), capsys=capsys)
    assert code == 0
    assert "simultaneously routable: False" in out


def test_fixture_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli("layout", "--fixture", str(bad), capsys=capsys)
    assert code == 5


def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("t_loop_ns = 800\nt_1q_ns = 200\nt_2q_ns = 100\nt_meas_ns = 1000\n")
    code, out, _ = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert code == 0
    assert "= 4500 ns" in out   # 27/8*800 + 2*200 + 4*100 + 1000


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t_loop_ns = -5\n")
    code, out, err = run_cli("--config", str(cfg), "cycle-time", capsys=capsys)
    assert code == 4
    cfg.write_text("nonsense_key = 3\n")
    assert run_cli("--config", str(cfg), "cycle-time", capsys=capsys)[0] == 4
    cfg.write_text("t_loop_ns 400\n")
    assert run_cli("--config", str(cfg), "cycle-time", capsys=capsys)[0] == 4


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


def test_verify_subcommand_small(capsys):
    code, out, _ = run_cli("verify", "--d", "3", "--gate", "S", capsys=capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
