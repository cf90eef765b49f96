"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion runs as one test and prints a PASS/FAIL line; run with -s (or
read the captured output) for the per-criterion report.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from loopfold.costs import (cnot_time, cycle_time_n2, effective_cycle_time,
                            gate_time, table1)
from loopfold.factory import (ccz_factory_spec, cultivation_cycles, factory_runtime,
                              verify_factory)
from loopfold.layout import (LayerStackLayout, MergeRequest, PatchCell,
                             fig10a_fixture, fig10b_fixture, plan_with_swaps,
                             routable)
from loopfold.loopsim import SILICON, pipeline_model, simulate_cycle, worst_case_search
from loopfold.patches import build_patch, embed_stack, first_half_circuit, \
    midcycle_expected, second_half_circuit
from loopfold.pauli import gf2_rank, in_group_up_to_sign
from loopfold.tableau import StabilizerState
from loopfold.circuits import run_on_state
from loopfold.verify import verify_s_teleport, verify_single_qubit, verify_two_qubit

P = SILICON


def report(name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line)
    assert passed, line


def test_criterion_1_logical_action_verification():
    """Transversal S, H (dense at d=3, tableau at d=5) and CNOT/SWAP at
    d=3,5 all identified as the claimed logical Cliffords; < 60 s."""
    t0 = time.time()
    checks = []
    checks += verify_single_qubit(3, "S")
    checks += verify_single_qubit(3, "H")
    checks += verify_single_qubit(5, "S")
    checks += verify_single_qubit(5, "H")
    for d in (3, 5):
        checks += verify_two_qubit(d, "CNOT")
        checks += verify_two_qubit(d, "SWAP")
    checks += verify_s_teleport()
    elapsed = time.time() - t0
    ok = all(c.passed for c in checks) and elapsed < 60
    report("criterion 1: logical-action verification",
           ok, f"{sum(c.passed for c in checks)}/{len(checks)} checks, {elapsed:.1f}s")


def test_criterion_2_midcycle_structure():
    """After 2 CNOT layers the instantaneous group matches the unrotated-code
    profile at d=3,5; the last 2 layers restore the rotated group exactly."""
    ok = True
    details = []
    for d in (3, 5):
        p = build_patch(d, "rotated")
        st = StabilizerState(p.num_qubits)
        for s in p.stabilizers:
            st.measure_pauli(p.stabilizer_pauli(s), force=0)
        st.measure_pauli(p.logical_z_pauli(), force=0)
        run_on_state(first_half_circuit(p), st)
        exp = midcycle_expected(p)
        ok &= len(exp.active_coords) == d * d + (d - 1) ** 2
        ok &= exp.num_generators == 2 * d * (d - 1)
        ok &= exp.weight_profile == {3: 4 * (d - 1), 4: 2 * (d - 1) * (d - 2)}
        mat = np.array([g.symplectic() for g in exp.generators], dtype=np.uint8)
        ok &= gf2_rank(mat) == exp.num_generators
        gens_now = st.stabilizer_generators()
        ok &= all(in_group_up_to_sign(g, gens_now) for g in exp.generators)
        rec = run_on_state(second_half_circuit(p), st, rng=None)
        ok &= all(v == 0 for v in rec.values())
        ok &= all(st.expectation_sign(p.stabilizer_pauli(s)) == 1 for s in p.stabilizers)
        details.append(f"d={d}: {exp.num_generators} generators on "
                       f"{len(exp.active_coords)} active qubits")
    report("criterion 2: mid-cycle unrotated structure + round trip", ok,
           "; ".join(details))


def test_criterion_3_timing_closed_forms_vs_simulation():
    """Exact rational equality between simulations and closed forms."""
    t0 = time.time()
    ok = cycle_time_n2(P) == 3150
    emb = embed_stack([build_patch(3, "folded")])
    ok &= simulate_cycle(emb, P).makespan == 3150
    res = worst_case_search("swap", 8, F(1, 32), P)
    ok &= res.shuttle_maximum == F(5, 4) * P.t_loop
    ok &= worst_case_search("rearrange", 8, F(1, 64), P).maximum == \
        F(61, 16) * P.t_loop == 1525
    for n in (2, 4, 8, 12, 16):
        ok &= worst_case_search("cnot_stack", n, F(1, 8 * n), P).maximum == cnot_time(n, P)
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report("criterion 3: timing closed forms = simulated worst cases", ok,
           f"T_cyc 3150 ns, swap 5/4 lap, rearrange 61/16 lap, "
           f"T_CNOT matched for n in 2..16; {elapsed:.1f}s")


def test_criterion_4_congestion_model():
    avgs = pipeline_model(16, P, 50)
    target = F(16, 3) * 1000
    rel = abs(avgs[49] - target) / target
    ok = rel < F(1, 100)
    avgs12 = pipeline_model(12, P, 80)
    increments = [avgs12[i] * (i + 1) - avgs12[i - 1] * i for i in range(60, 79)]
    ok &= all(inc == 4000 for inc in increments)
    report("criterion 4: congestion model", ok,
           f"n=16 round-50 average within {float(rel)*100:.3f}% of 16/3 us; "
           f"n=12 steady state 4 us exactly")


def test_criterion_5_gate_times():
    t_s = gate_time("S", "pipelined_folded", 25, P)
    t_h = gate_time("H", "pipelined_folded", 25, P)
    t_cnot = gate_time("CNOT", "pipelined_folded", 25, P)
    ok = (t_s == 6600 and t_h == 6800 and t_cnot == F(2025, 2)
          and effective_cycle_time(16, P) == 6000
          and effective_cycle_time(12, P) == 5000)
    report("criterion 5: gate times", ok,
           f"T_S {t_s} ns, T_H {t_h} ns, T_CNOT(16) {t_cnot} ns, "
           f"T*_cyc 6000/5000 ns")


def test_criterion_6_factory():
    t0 = time.time()
    folded = factory_runtime("folded", P, 25)
    rotated = factory_runtime("rotated", P, 25)
    ok = abs(folded.runtime_ns - 216000) <= 1000
    ok &= abs(rotated.runtime_ns - 279000) <= 1000
    ratio = rotated.spacetime_ns / folded.spacetime_ns
    ok &= abs(float(ratio) - 2.6) <= 0.05
    ok &= folded.output_error == F(28, 10**14)
    ok &= cultivation_cycles(25, 8) == 22
    ok &= cultivation_cycles(25, 12) == 15
    vf = verify_factory(ccz_factory_spec("folded"))
    vr = verify_factory(ccz_factory_spec("rotated"))
    ok &= vf.passed and vr.passed
    elapsed = time.time() - t0
    ok &= elapsed < 120
    report("criterion 6: factory", ok,
           f"folded {float(folded.runtime_ns/1000):.4f} us, rotated "
           f"{float(rotated.runtime_ns/1000):.3f} us, ratio {float(ratio):.3f}, "
           f"error 2.8e-13, cultivation 22/15, 16+256 branches verified, {elapsed:.0f}s")


def test_criterion_7_table1():
    rep = table1(P, 25)
    d = 25
    ok = rep.savings_vs_standard == {"H": 12 * d, "S": 6 * d, "CNOT": 36 * d,
                                     "FACTORY": F(5, 3) * d}
    ok &= rep.savings_vs_pipelined_rotated == {"H": 12 * d, "S": 3 * d, "CNOT": 2,
                                               "FACTORY": F(5 * d + 154, 108)}
    ok &= round(float(rep.savings_vs_pipelined_rotated["FACTORY"]), 2) == 2.58
    for cell in rep.cells.values():
        ok &= cell.spacetime == cell.runtime_ns * cell.space
    # the rows are functions of d regenerated from the cells, not constants;
    # the factory cells are counted off the circuit, cultivation included
    rep9 = table1(P, 9)
    ok &= rep9.savings_vs_standard["H"] == 12 * 9
    ok &= rep9.savings_vs_pipelined_rotated["FACTORY"] == F(52, 41)
    report("criterion 7: overhead-table reproduction", ok,
           "savings rows {12d, 6d, 36d, 5d/3} and {12d, 3d, 2, (5d+154)/108}; "
           "factory row 2.58 at d=25")


def test_criterion_8_layout():
    lay_a, req_a = fig10a_fixture()
    res_a = routable(lay_a, req_a)
    ok = not res_a.feasible and res_a.explored > 0
    lay_b, req_b = fig10b_fixture()
    ok &= not routable(lay_b, req_b).feasible
    plan = plan_with_swaps(lay_b, req_b, max_swaps=4)
    ok &= plan.feasible and len(plan) == 4
    ok &= not plan_with_swaps(lay_b, req_b, max_swaps=3).feasible

    rng = random.Random(2026)
    flips = 0
    trials = 0
    while trials < 1000:
        rows, cols = 3, 4
        n = rng.randint(2, 5)
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        rng.shuffle(cells)
        layer = {cells[i]: PatchCell(str(i + 1), rng.choice("ZX")) for i in range(n)}
        layout = LayerStackLayout(rows, cols, [layer])
        ids = [str(i + 1) for i in range(n)]
        a, b = rng.sample(ids, 2)
        req = [MergeRequest(a, rng.choice("ZX"), b, rng.choice("ZX"))]
        removable = [pid for pid in ids if pid not in (a, b)]
        if not removable:
            continue
        trials += 1
        before = routable(layout, req).feasible
        drop = rng.choice(removable)
        li, cell = layout.find(drop)
        bigger = layout.copy()
        del bigger.layers[li][cell]
        if before and not routable(bigger, req).feasible:
            flips += 1
    ok &= flips == 0
    report("criterion 8: layout", ok,
           f"10a infeasible (certificate), 10b 4-swap plan (minimal), "
           f"monotonicity held in {trials} trials")
