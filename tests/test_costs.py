"""Closed-form calculators and the overhead-table reproduction."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from loopfold.costs import (SPACE, cnot_time, cycle_time_n2, effective_cycle_time,
                            gate_cells, gate_time, pipeline_steady_state,
                            rearrange_worst, table1)
from loopfold.factory import factory_runtime
from loopfold.loopsim import SILICON, TimingParams

P = SILICON


def swap_worst_shuttle(params):
    """Worst-case shuttle time of the intra-loop pair protocol: 5/4 lap."""
    return F(5, 4) * params.t_loop


def test_cycle_time_n2_silicon():
    assert cycle_time_n2(P) == 3150


@pytest.mark.parametrize("n,want_ns", [(16, 6000), (12, 5000), (2, 4000)])
def test_effective_cycle_time(n, want_ns):
    # n=2 is a modeling artifact (3.15 us + 0.5 us slack, rounded up), the
    # published anchors are 6 us at n=16 and 5 us at n=12
    assert effective_cycle_time(n, P) == want_ns


def test_steady_state():
    assert pipeline_steady_state(16, P) == F(16, 3) * 1000
    assert pipeline_steady_state(2, P) == 3150


def test_gate_times_silicon():
    assert gate_time("S", "pipelined_folded", 25, P) == 6600
    assert gate_time("H", "pipelined_folded", 25, P) == 6800
    assert gate_time("CNOT", "pipelined_folded", 25, P) == F(2025, 2)  # 1012.5 ns
    assert cnot_time(16, P) == F(2025, 2)


def test_gate_times_baselines():
    d = 25
    assert gate_time("H", "standard", d, P) == 3 * d * 3000
    assert gate_time("S", "standard", d, P) == F(3, 2) * d * 3000
    assert gate_time("CNOT", "standard", d, P) == 2 * d * 3000
    assert gate_time("SWAP", "standard", d, P) == 2 * d * 3000
    assert gate_time("H", "pipelined_rotated", d, P) == 3 * d * 5000
    assert gate_time("S", "pipelined_rotated", d, P) == F(3, 2) * d * 5000


def test_interloop_variant():
    d = 25
    assert gate_time("H", "interloop", d, P) == (d - 1) * 200
    assert gate_time("SWAP", "interloop", d, P) == d * 200
    assert gate_time("CNOT", "interloop", d, P) == 2 * d * 200


def test_undefined_combinations_rejected():
    with pytest.raises(ValueError):
        gate_time("S", "interloop", 25, P)
    with pytest.raises(ValueError):
        cnot_time(3, P)   # odd n
    with pytest.raises(ValueError):
        gate_time("H", "nowhere", 25, P)


def test_gate_cells_key_sets():
    """Only standard's lattice-surgery factory is a closed form; factory_runtime
    counts the pipelined ones."""
    closed = {"CYCLE", "H", "S", "CNOT", "SWAP"}
    assert set(gate_cells("standard", 25, P)) == closed | {"FACTORY"}
    for arch in ("pipelined_rotated", "pipelined_folded"):
        assert set(gate_cells(arch, 25, P)) == closed, arch
        with pytest.raises(ValueError):
            gate_time("FACTORY", arch, 25, P)
    assert set(gate_cells("interloop", 25, P)) == {"H", "SWAP", "CNOT"}
    for gate in ("S", "FACTORY", "CYCLE"):
        with pytest.raises(ValueError):
            gate_time(gate, "interloop", 25, P)
    with pytest.raises(ValueError):
        gate_cells("nowhere", 25, P)
    with pytest.raises(ValueError):
        gate_time("FACTORY", "nowhere", 25, P)


@pytest.mark.parametrize("d", [1, -3, 4, 25.0, 3.0, True, "25"])
def test_distance_must_be_an_odd_integer_of_at_least_3(d):
    """gate_cells checks d, for every architecture; gate_time and table1 read it."""
    for arch in ("standard", "pipelined_rotated", "pipelined_folded", "interloop"):
        with pytest.raises(ValueError, match="odd integer >= 3"):
            gate_cells(arch, d, P)
    with pytest.raises(ValueError, match="odd integer >= 3"):
        gate_time("H", "standard", d, P)
    with pytest.raises(ValueError, match="odd integer >= 3"):
        table1(P, d)


def test_rearrange_worst_values():
    assert rearrange_worst(8, P) == F(61, 16) * 400 == 1525
    assert rearrange_worst(7, P) == (F(7, 2) - F(2, 7)) * 400
    # n=2 evaluates the even-n formula to a quarter lap (the published
    # worst-case expression, not the separate 5/4-lap pair-protocol bound)
    assert rearrange_worst(2, P) == F(1, 4) * 400
    assert swap_worst_shuttle(P) == F(5, 4) * 400


def test_gate_time_monotone_in_params():
    base = dict(t_loop=400, t_1q=200, t_2q=100, t_meas=1000)
    for gate, arch in (("S", "pipelined_folded"), ("H", "pipelined_folded"),
                       ("CNOT", "pipelined_folded")):
        t0 = gate_time(gate, arch, 25, TimingParams(**base))
        for key in base:
            bumped = dict(base)
            bumped[key] = base[key] + 40
            t1 = gate_time(gate, arch, 25, TimingParams(**bumped))
            assert t1 >= t0, (gate, key)


def test_table1_cells_and_savings():
    rep = table1(P, 25)
    d = 25
    # runtime cells
    assert rep.cells[("S", "pipelined_folded")].runtime_ns == 6600
    assert rep.cells[("H", "pipelined_folded")].runtime_ns == 6800
    assert rep.cells[("FACTORY", "pipelined_folded")].runtime_ns == 216000
    assert rep.cells[("FACTORY", "pipelined_rotated")].runtime_ns == (5 * d + 154) * 1000
    # spaces
    assert rep.cells[("H", "standard")].space == 2
    assert rep.cells[("CNOT", "standard")].space == 3
    assert rep.cells[("FACTORY", "standard")].space == 12
    assert rep.cells[("S", "pipelined_rotated")].space == 1
    assert rep.cells[("H", "pipelined_folded")].space == F(1, 2)
    # spacetime consistency
    for cell in rep.cells.values():
        assert cell.spacetime == cell.runtime_ns * cell.space
    # savings rows (exact rational forms of the published entries)
    assert rep.savings_vs_standard["H"] == 12 * d
    assert rep.savings_vs_standard["S"] == 6 * d
    assert rep.savings_vs_standard["CNOT"] == 36 * d
    assert rep.savings_vs_standard["FACTORY"] == F(5, 3) * d
    assert rep.savings_vs_pipelined_rotated["H"] == 12 * d
    assert rep.savings_vs_pipelined_rotated["S"] == 3 * d
    assert rep.savings_vs_pipelined_rotated["CNOT"] == 2
    assert rep.savings_vs_pipelined_rotated["FACTORY"] == F(5 * d + 154, 108)


def test_table1_savings_are_functions_of_d():
    """H, S and CNOT keep their published functions of d at every d; the
    FACTORY savings follow the counted cells, which give 5d/3 and
    (5d+154)/108 at d = 25 only."""
    for d in (3, 9, 17, 25, 51):
        rep = table1(P, d)
        std, rot = dict(rep.savings_vs_standard), dict(rep.savings_vs_pipelined_rotated)
        del std["FACTORY"], rot["FACTORY"]
        assert std == {"H": 12 * d, "S": 6 * d, "CNOT": 36 * d}
        assert rot == {"H": 12 * d, "S": 3 * d, "CNOT": 2}
        assert_savings_follow_the_rule(P, d)
    assert table1(P, 25).savings_vs_standard["FACTORY"] == F(5, 3) * 25
    assert table1(P, 25).savings_vs_pipelined_rotated["FACTORY"] == F(5 * 25 + 154, 108)
    # at d = 9 cultivation takes 139 of the folded factory's 161 rounds
    assert table1(P, 9).savings_vs_standard["FACTORY"] == F(135, 41)
    assert table1(P, 9).savings_vs_pipelined_rotated["FACTORY"] == F(52, 41)


def test_factory_row_evaluates_to_published_value():
    rep = table1(P, 25)
    assert round(float(rep.savings_vs_pipelined_rotated["FACTORY"]), 2) == 2.58


def test_factory_cell_expressions():
    """The published condensed forms at silicon and d = 25, and their d = 9 values."""
    for d, folded, rotated in ((25, ("33*T_cyc*(16)+18us", (33 * 6 + 18) * 1000),
                                ("(d+27)*T_cyc*(12)+19us", (52 * 5 + 19) * 1000)),
                               (9, ("161*T_cyc*(16)+18us", (161 * 6 + 18) * 1000),
                                ("(d+112)*T_cyc*(12)+19us", (121 * 5 + 19) * 1000))):
        cells = table1(P, d).cells
        assert (cells[("FACTORY", "pipelined_folded")].runtime_expr,
                cells[("FACTORY", "pipelined_folded")].runtime_ns) == folded
        assert (cells[("FACTORY", "pipelined_rotated")].runtime_expr,
                cells[("FACTORY", "pipelined_rotated")].runtime_ns) == rotated


def test_table1_text_and_doc():
    rep = table1(P, 25)
    text = rep.to_text()
    assert "pipelined_folded" in text and "spacetime saving" in text
    doc = rep.to_doc()
    assert doc["d"] == 25 and "S/pipelined_folded" in doc["cells"]


# -- the charging rule, restated ---------------------------------------------------

# the published operating points: loop occupancy per architecture
_N = {"standard": 2, "pipelined_rotated": 12, "pipelined_folded": 16}


def cell_of(gate, arch, params, d):
    """A table cell's (expression, runtime ns): factory_runtime's for a
    pipelined factory, gate_cells' otherwise."""
    if gate == "FACTORY" and arch != "standard":
        return factory_runtime(arch.removeprefix("pipelined_"), params, d).cell
    return gate_cells(arch, d, params)[gate]


def charged_spacetime(gate, arch, params, d):
    """H and S in stabilizer rounds (the folded transversal gate is one round),
    a CNOT in whole us rounded half up and at least 1, a factory at its cell."""
    space = SPACE[arch][gate]
    runtime = cell_of(gate, arch, params, d)[1]
    if gate == "FACTORY":
        return runtime * space
    if gate == "CNOT":
        us = runtime / 1000
        whole = us.numerator // us.denominator
        if us - whole >= F(1, 2):
            whole += 1
        return max(whole, 1) * space
    if arch == "pipelined_folded":
        return space
    return runtime / gate_time("CYCLE", arch, d, params) * space


def assert_savings_follow_the_rule(params, d):
    rep = table1(params, d)
    for other, row in (("standard", rep.savings_vs_standard),
                       ("pipelined_rotated", rep.savings_vs_pipelined_rotated)):
        assert list(row) == ["H", "S", "CNOT", "FACTORY"]
        for g, saving in row.items():
            want = (charged_spacetime(g, other, params, d)
                    / charged_spacetime(g, "pipelined_folded", params, d))
            assert saving == want, (other, g)
    assert set(rep.cells) == {(g, a) for a in SPACE for g in ("H", "S", "CNOT", "FACTORY")}
    for (g, a), cell in rep.cells.items():
        assert (cell.runtime_expr, cell.runtime_ns) == cell_of(g, a, params, d)
    for a in ("pipelined_rotated", "pipelined_folded"):   # each at its operating point
        assert gate_time("CYCLE", a, d, params) == effective_cycle_time(_N[a], params)
        assert rep.cells[("CNOT", a)].runtime_ns == cnot_time(_N[a], params)


times = st.fractions(min_value=0, max_value=6000, max_denominator=48)
timings = st.builds(TimingParams, t_loop=times.filter(lambda t: t > 0), t_1q=times,
                    t_2q=times, t_meas=times, meas_devices=st.integers(1, 6), slack_ns=times)
distances = st.integers(1, 25).map(lambda k: 2 * k + 1)


@settings(max_examples=150, deadline=None)
@given(params=timings, d=distances)
def test_savings_are_charged_spacetime_ratios(params, d):
    assert_savings_follow_the_rule(params, d)


def factory_cell_value(expr, params, d):
    """A factory cell's N*T_cyc*(n)+Mus, with N a count or (d+k), evaluated exactly."""
    m = re.fullmatch(r"(\d+|\(d\+\d+\))\*T_cyc\*\((\d+)\)\+(\d+)us", expr)
    assert m, expr
    rounds = int(m[1]) if m[1].isdigit() else d + int(m[1][3:-1])
    return rounds * effective_cycle_time(int(m[2]), params) + int(m[3]) * 1000


@settings(max_examples=150, deadline=None)
@given(params=timings, d=distances)
def test_factory_cells_are_the_counted_runtime_rounded_up_to_a_us(params, d):
    """Each pipelined FACTORY cell is factory_runtime's runtime rounded up to a
    whole us, and its expression evaluates to it."""
    rep = table1(params, d)
    for variant in ("folded", "rotated"):
        cell = rep.cells[("FACTORY", f"pipelined_{variant}")]
        runtime = factory_runtime(variant, params, d).runtime_ns
        assert runtime <= cell.runtime_ns < runtime + 1000
        assert factory_cell_value(cell.runtime_expr, params, d) == cell.runtime_ns


def test_cnot_charge_rounds_half_up():
    # t_2q = 0 and t_loop = 16000/13 put the folded CNOT at exactly 2500 ns: it
    # is charged 3 us (round-half-even would give 2), the rotated one 2 us;
    # the standard CNOT is 150 us on 3 patches, the folded one on half a patch
    params = TimingParams(t_loop=F(16000, 13), t_2q=0)
    assert cnot_time(16, params) == 2500
    rep = table1(params, 25)
    assert rep.savings_vs_standard["CNOT"] == 150 * 3 / (3 * F(1, 2)) == 300
    assert rep.savings_vs_pipelined_rotated["CNOT"] == 2 * 1 / (3 * F(1, 2)) == F(4, 3)


def test_cnot_charge_is_at_least_one_us():
    params = TimingParams(t_loop=100, t_2q=0)
    assert cnot_time(16, params) < 500
    assert table1(params, 25).savings_vs_pipelined_rotated["CNOT"] == 2
